import hashlib
import re
import struct
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fernkit import (
    ClassSet,
    CorruptModel,
    FernModel,
    FormatError,
    GrayImage,
    InvalidArgument,
    InvalidLabel,
    InvalidPatch,
    OutOfBounds,
    TreeForest,
)
from fernkit import ferns
from fernkit.cli import build_parser
from fernkit.ferns import (
    DEFAULT_FERN_COUNT,
    DEFAULT_FERN_SIZE,
    PATCH_BLOCK,
    Combination,
    LeafModel,
    _softmax_rows,
    _total_dtype,
    random_tests,
    train_models,
)

from support import (
    KEYPOINT_WORD,
    WIDTH_WORD,
    accumulate_oracle,
    cached,
    count_section,
    fern_tests,
    grid_classes,
    leaf_index_oracle,
    peak_traced_bytes,
    pin_probe,
    posterior_oracle,
    random_patches,
    random_tests_oracle,
    sha256_of,
    tree_tests,
    v1_fern_file,
    v2_fern_file,
    with_counts,
)


def center_of(img):
    return img.width // 2, img.height // 2


def leaf_of(values, *tests) -> int:
    """Leaf index of one fern made of ``tests`` rows on one square patch."""
    patch = np.array(values, dtype=np.uint8)
    model = FernModel(grid_classes(1, patch.shape[0]), [tests])
    return int(model.leaf_indices(patch)[0, 0])


class TestEvalFeature:
    def test_strictly_less_is_one(self):
        test = (-1, -1, 0, -1)  # reads 10 then 20
        assert leaf_of([[10, 20, 0], [0, 0, 0], [0, 0, 0]], test) == 1

    def test_tie_is_zero(self):
        test = (-1, -1, 0, -1)
        assert leaf_of([[10, 10, 0], [0, 0, 0], [0, 0, 0]], test) == 0

    def test_constant_image_always_zero(self):
        patch = np.full((9, 9), 42, dtype=np.uint8)
        rng = np.random.default_rng(0)
        for t in random_tests(12, 9, rng):
            assert leaf_of(patch, t) == 0

    def test_out_of_bounds(self):
        model = FernModel(grid_classes(1, 3), [[(1, 0, 0, 1)]])
        img = GrayImage(np.zeros((5, 5), dtype=np.uint8))
        with pytest.raises(OutOfBounds):
            model.classify(img, 4, 4)
        with pytest.raises(OutOfBounds):
            model.posterior(img, 4, 4)

    def test_coincident_offsets_rejected(self):
        with pytest.raises(InvalidArgument, match="offsets must differ"):
            FernModel(grid_classes(1, 3), [[(-1, 0, 1, 0), (1, 1, 1, 1)]])
        with pytest.raises(InvalidArgument, match="offsets must differ"):
            TreeForest(grid_classes(1, 3), [[(1, 1, 1, 1)]])


class TestEvalFern:
    def test_declared_bit_order(self):
        # three tests engineered to produce bits (1, 0, 1) -> 5
        patch = np.array([[5, 9, 0], [7, 1, 7], [0, 9, 5]], dtype=np.uint8)
        fern = np.array(
            [
                (-1, -1, 0, -1),  # 5 < 9 -> 1
                (1, 0, -1, 0),  # 7 < 7 -> 0
                (-1, 1, 0, 1),  # 0 < 9 -> 1
            ]
        )
        assert leaf_of(patch, *fern) == 5
        assert leaf_index_oracle(patch, fern) == 5

    def test_constant_image_leaf_zero(self):
        patches = np.full((1, 11, 11), 8, dtype=np.uint8)
        model = FernModel.random(grid_classes(1, 11), 5, 6, np.random.default_rng(1))
        assert not model.leaf_indices(patches).any()

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_bit_packing_oracle(self, seed):
        rng = np.random.default_rng(seed)
        patches = random_patches(rng, 4, 13)
        model = FernModel.random(grid_classes(1, 13), 3, 7, rng)
        leaves = model.leaf_indices(patches)
        expected = [[leaf_index_oracle(p, f) for f in model.tests] for p in patches]
        assert np.array_equal(leaves, expected)


class TestMakeRandomFerns:
    """``LeafModel.random`` draws units x tests per unit in one ``random_tests`` call."""

    def test_deterministic(self):
        classes = grid_classes(1, 31)
        a = FernModel.random(classes, 4, 5, np.random.default_rng(12))
        b = FernModel.random(classes, 4, 5, np.random.default_rng(12))
        assert a.tests.tobytes() == b.tests.tobytes()
        want = random_tests(20, 31, np.random.default_rng(12)).reshape(4, 5, 4)
        assert np.array_equal(a.tests, want)

    def test_offsets_within_patch_and_distinct(self):
        tests = random_tests(100 * 100, 15, np.random.default_rng(3))
        assert tests.shape == (100 * 100, 4)
        for dx1, dy1, dx2, dy2 in tests.tolist():
            assert max(abs(dx1), abs(dy1), abs(dx2), abs(dy2)) <= 7
            assert (dx1, dy1) != (dx2, dy2)

    @pytest.mark.parametrize("count, patch_size, message", [
        (2, 15.0, "patch_size must be an odd integer"),
        (2, True, "patch_size must be an odd integer"),
        (2, 14, "patch_size must be an odd integer"),
        (-1, 15, "count must be an integer >= 0"),
        (True, 15, "count must be an integer >= 0"),
        (2.0, 15, "count must be an integer >= 0"),
    ])
    def test_bad_count_or_patch_size_rejected_before_any_draw(
        self, count, patch_size, message
    ):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidArgument, match=message):
            random_tests(count, patch_size, rng)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    # reach 1 redraws one attempt in nine, so most draws take several
    # rounds; a small chunk splits a round into several calls
    @given(st.integers(0, 300), st.sampled_from([3, 5, 9, 31, 201, 65535]),
           st.integers(0, 2**32), st.sampled_from([1, 7, 2**16]))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_bulk_draw_equals_row_by_row_draws(self, count, patch_size, seed, chunk):
        bulk, rows = np.random.default_rng(seed), np.random.default_rng(seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ferns, "TEST_CHUNK", chunk)
            tests = random_tests(count, patch_size, bulk)
        assert np.array_equal(tests, random_tests_oracle(count, patch_size, rows))
        # and leaves the rng where the row-by-row draws leave it
        assert bulk.integers(0, 2**62) == rows.integers(0, 2**62)

    def test_default_budget_is_300_features(self):
        args = build_parser().parse_args(["train", "--image", "a", "--model", "b", "--seed", "0"])
        assert (args.ferns, args.fern_size, args.patch) == (30, 10, 31)

    def test_prefix_stability(self):
        # the first k ferns of a big draw equal a fresh draw of k ferns
        classes = grid_classes(1, 21)
        big = FernModel.random(classes, 30, 6, np.random.default_rng(77))
        small = FernModel.random(classes, 5, 6, np.random.default_rng(77))
        assert np.array_equal(big.tests[:5], small.tests)


MODEL_KINDS = {"fern": FernModel, "tree": TreeForest}


@pytest.mark.parametrize("kind", ["fern", "tree"])
class TestTestsArray:
    """Both constructors take one (units, tests per unit, 4) integer array,
    check it once and hold it read-only as ``tests``."""

    @pytest.mark.parametrize(
        "tests",
        [
            # truncated to the always-false (0, 0, 0, 0), whose file never loaded
            np.array([[[0.2, 0, 0, 0]]]),
            np.array([[[1.0, 0, 0, 1]]]),  # whole floats too: the dtype is checked
            np.array([[[True, False, True, True]]]),  # was taken as (1, 0, 1, 1)
            np.array([[[1, 0, 0, 1]]], dtype=object),
        ],
        ids=["fraction", "whole-float", "bool", "object"],
    )
    def test_offsets_that_are_not_integers_rejected(self, kind, tests):
        with pytest.raises(InvalidArgument, match="must be integers"):
            MODEL_KINDS[kind](grid_classes(2, 5), tests)

    @pytest.mark.parametrize(
        "dtype, value",
        [("int8", -3), ("int8", 3), ("uint8", 3), ("int16", -32768), ("int64", 2**62),
         ("uint64", 2**63), ("uint64", 2**64 - 1)],
    )
    def test_offsets_outside_the_patch_rejected_at_every_dtype(self, kind, dtype, value):
        # 2^63 and 2^64 - 1 would cast to -2^63 and to -1, which is inside
        tests = np.array([[[value, 0, 0, 1]]], dtype=dtype)
        with pytest.raises(InvalidArgument, match="outside the patch"):
            MODEL_KINDS[kind](grid_classes(2, 5), tests)

    @pytest.mark.parametrize("shape", [(3, 4), (1, 1, 3), (0, 1, 4), (1, 0, 4), (1, 1, 1, 4)])
    def test_shapes_other_than_units_by_tests_by_4_rejected(self, kind, shape):
        with pytest.raises(InvalidArgument, match="tests must be"):
            MODEL_KINDS[kind](grid_classes(2, 5), np.ones(shape, dtype=np.int64))

    @pytest.mark.parametrize("dtype", ["int8", "uint8", "int16", "uint16", "int32", "uint64"])
    def test_any_integer_dtype_gives_the_same_model(self, kind, dtype):
        # offsets >= 0, so every dtype holds them
        tests = np.array([[[0, 1, 2, 0]], [[1, 1, 0, 2]]])
        counts = np.array([[[3, 1], [2, 0]]] * 2)
        want = MODEL_KINDS[kind](grid_classes(2, 5), tests, counts=counts)
        got = MODEL_KINDS[kind](grid_classes(2, 5), tests.astype(dtype), counts=counts)
        assert got.tests.dtype == np.intp
        assert got.save() == want.save()

    def test_tests_are_a_read_only_copy(self, kind):
        tests = np.array([[[-1, 0, 1, 0]]])
        model = MODEL_KINDS[kind](grid_classes(2, 5), tests)
        tests[0, 0, 0] = 0  # the caller's array, not the model's
        assert model.tests.tolist() == [[[-1, 0, 1, 0]]]
        with pytest.raises(ValueError, match="read-only"):
            model.tests[0, 0, 0] = 0
        assert (model.num_units, model.depth) == (1, 1)

    @pytest.mark.parametrize("combination", ["naive", 0, 1, True])
    def test_combination_that_is_not_a_combination_rejected(self, kind, combination):
        with pytest.raises(InvalidArgument, match="takes Combination"):
            MODEL_KINDS[kind](grid_classes(2, 5), [[(-1, 0, 1, 0)]], combination)
        # classify_patches scored such a value by averaging
        model = MODEL_KINDS[kind](grid_classes(2, 5), [[(-1, 0, 1, 0)]])
        patches = np.zeros((2, 5, 5), dtype=np.uint8)
        message = f"^combination must be a Combination, got {re.escape(repr(combination))}$"
        with pytest.raises(InvalidArgument, match=message):
            model.classify_patches(patches, combination)

    def test_no_combination_is_the_kind_default(self, kind):
        default = {"fern": Combination.NAIVE_BAYES, "tree": Combination.AVERAGE}[kind]
        tests = [[(-1, 0, 1, 0)]]
        for model in (
            MODEL_KINDS[kind](grid_classes(2, 5), tests, None),
            MODEL_KINDS[kind].random(grid_classes(2, 5), 1, 1, np.random.default_rng(0)),
        ):
            assert model.combination is default

    def test_forged_int16_minimum_offset_is_corrupt(self, kind, small_model, small_forest):
        model = small_model if kind == "fern" else small_forest
        data = bytearray(model.save())
        # the tests follow the header and the classes' f4 pairs
        struct.pack_into("<h", data, KEYPOINT_WORD + 8 * model.num_classes, -32768)
        with pytest.raises(CorruptModel, match="outside the patch"):
            type(model).load(bytes(data))


def two_class_m1_model(c1=(1, 3)) -> FernModel:
    """1 fern, M=1, counts c0: (3, 1), c1: ``c1`` over leaves 0 and 1."""
    counts = np.array([[[3, c1[0]], [1, c1[1]]]], dtype=np.uint64)
    return FernModel(grid_classes(2, 5), [[(-1, 0, 1, 0)]], counts=counts)


def leaf1_patch() -> GrayImage:
    # left pixel < right pixel at every row, so the single test fires
    pixels = np.tile(np.arange(5, dtype=np.uint8) * 10, (5, 1))
    return GrayImage(pixels)


class TestTrain:
    def test_zero_samples_uniform_leaves(self):
        model = FernModel.random(grid_classes(3, 7), 2, 4, np.random.default_rng(0))
        assert np.allclose(np.exp(model.log_table), 1.0 / 16.0)

    def test_hand_computed_regularized_estimate(self):
        model = two_class_m1_model()
        # P(leaf1 | c0) = (1 + 1) / (4 + 2) = 1/3
        assert np.isclose(np.exp(model.log_table[0, 1, 0]), 1.0 / 3.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        classes = grid_classes(4, 9)
        patches = random_patches(rng, 60, 9)
        labels = rng.integers(0, 4, 60)
        samples = [(GrayImage(p), int(l)) for p, l in zip(patches, labels)]

        a = FernModel.random(classes, 3, 4, np.random.default_rng(1))
        a.train(iter(samples))
        b = FernModel.random(classes, 3, 4, np.random.default_rng(1))
        shuffled = list(samples)
        np.random.default_rng(9).shuffle(shuffled)
        b.train(iter(shuffled))

        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.log_table, b.log_table)

    def test_invalid_label(self):
        model = FernModel.random(grid_classes(2, 5), 1, 2, np.random.default_rng(0))
        patch = GrayImage(np.zeros((5, 5), dtype=np.uint8))
        with pytest.raises(InvalidLabel):
            model.train([(patch, 2)])

    def test_models_trained_in_one_pass_equal_each_trained_alone(
        self, texture_small, monkeypatch
    ):
        from fernkit import DatasetSpec, TreeForest, derive_rng
        from fernkit.dataset import generate_training_set

        classes = grid_classes(6, 9)
        spec = DatasetSpec(1, 12, test_views=0)

        def pair():
            rng = np.random.default_rng(8)
            return FernModel.random(classes, 5, 4, rng), TreeForest.random(classes, 5, 4, rng)

        monkeypatch.setattr("fernkit.ferns.TRAIN_CHUNK", 100)
        together = pair()
        train_models(together, generate_training_set(texture_small, classes, spec, 2))
        for i, alone in enumerate(pair()):
            alone.train(generate_training_set(texture_small, classes, spec, 2))
            assert alone.counts.sum() > 0
            assert together[i].counts.tobytes() == alone.counts.tobytes()
            assert together[i].log_table.tobytes() == alone.log_table.tobytes()

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_bad_label_in_a_later_chunk(self, bad, monkeypatch):
        rng = np.random.default_rng(12)
        classes = grid_classes(3, 9)
        patches = random_patches(rng, 10, 9)
        labels = [0, 1, 2, 0, 1, 2, bad, 0, 1, 2]
        models = [
            FernModel.random(classes, 2, 3, np.random.default_rng(i))
            for i in range(2)
        ]
        monkeypatch.setattr("fernkit.ferns.TRAIN_CHUNK", 4)
        with pytest.raises(InvalidLabel, match=f"label {bad} "):
            train_models(models, zip(patches, labels))
        # the first chunk was counted into both models; the bad one into none
        for model in models:
            assert np.array_equal(model.counts, accumulate_oracle(
                FernModel(classes, model.tests), patches[:4], np.array(labels[:4])
            ))

    def test_undersized_patch(self):
        model = FernModel.random(grid_classes(2, 9), 1, 2, np.random.default_rng(0))
        patch = GrayImage(np.zeros((5, 5), dtype=np.uint8))
        with pytest.raises(InvalidPatch):
            model.train([(patch, 0)])

    def test_patches_of_one_chunk_differ_in_shape(self):
        model = FernModel.random(grid_classes(2, 9), 1, 2, np.random.default_rng(0))
        big, small = (GrayImage(np.zeros((n, n), dtype=np.uint8)) for n in (9, 5))
        with pytest.raises(InvalidPatch):
            model.train([(big, 0), (small, 1)])

    def test_training_is_resumable(self):
        rng = np.random.default_rng(6)
        classes = grid_classes(3, 9)
        patches = random_patches(rng, 40, 9)
        labels = rng.integers(0, 3, 40)
        samples = [(GrayImage(p), int(l)) for p, l in zip(patches, labels)]

        once = FernModel.random(classes, 2, 3, np.random.default_rng(2))
        once.train(iter(samples))
        twice = FernModel.random(classes, 2, 3, np.random.default_rng(2))
        twice.train(iter(samples[:17]))
        twice.train(iter(samples[17:]))
        assert np.array_equal(once.counts, twice.counts)
        assert np.array_equal(once.log_table, twice.log_table)

    def test_starting_counts(self, small_model):
        counts = small_model.counts.astype(np.uint64)
        model = FernModel(small_model.classes, small_model.tests, counts=counts)
        assert np.array_equal(model.log_table, small_model.log_table)
        counts[0, 0, 0] += 1  # the model keeps its own copy
        assert np.array_equal(model.counts, small_model.counts)
        with pytest.raises(InvalidArgument):
            FernModel(small_model.classes, small_model.tests, counts=counts[:2])
        # a sample reaches every fern, so unequal per-class totals are invalid
        with pytest.raises(InvalidArgument, match="totals disagree"):
            FernModel(small_model.classes, small_model.tests, counts=counts)

    @pytest.mark.parametrize(
        "bad", [-1, 1.7, np.nan, np.inf, 2.0**64], ids=["-1", "1.7", "nan", "inf", "2**64"]
    )
    def test_counts_that_are_not_whole_and_non_negative_rejected(self, bad):
        counts = spread_counts(9).astype(np.int64 if bad == -1 else np.float64)
        counts[:, 0, 0] = bad  # in both ferns, so unit totals still agree
        with pytest.raises(InvalidArgument, match="whole numbers"):
            two_fern_model(counts)

    def test_float16_counts_are_checked_without_a_warning(self):
        # compared at float16, the 2**64 bound would overflow and warn
        classes = grid_classes(2, 9)
        tests = [[[1, 0, -1, 0], [0, 1, 0, -1]]]
        counts = np.array([[[1, 0], [2, 7], [3, 0], [2048, 1]]], np.float16)
        model = FernModel(classes, tests, counts=counts)
        assert model.save() == FernModel(classes, tests, counts=counts.astype(np.uint64)).save()
        counts[0, 0, 0] = 0.5
        with pytest.raises(InvalidArgument, match="whole numbers"):
            FernModel(classes, tests, counts=counts)


class TestClassify:
    def test_single_class_always_wins(self):
        classes = grid_classes(1, 7)
        model = FernModel.random(classes, 2, 3, np.random.default_rng(0))
        img = GrayImage(random_patches(np.random.default_rng(1), 1, 7)[0])
        label, _ = model.classify(img, *center_of(img))
        assert label == 0
        assert np.allclose(model.posterior(img, *center_of(img)), [1.0])

    def test_hand_computed_two_class_posterior(self):
        model = two_class_m1_model()
        img = leaf1_patch()
        label, _ = model.classify(img, *center_of(img))
        assert label == 1
        post = model.posterior(img, *center_of(img))
        assert np.allclose(post, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)

    def test_symmetric_model_splits_evenly(self):
        model = two_class_m1_model(c1=(3, 1))
        img = leaf1_patch()
        assert np.allclose(model.posterior(img, *center_of(img)), [0.5, 0.5])
        assert model.classify(img, *center_of(img))[0] == 0  # tie goes low

    def test_untrained_model_scores_finite(self):
        model = FernModel.random(grid_classes(4, 9), 3, 4, np.random.default_rng(1))
        img = GrayImage(random_patches(np.random.default_rng(2), 1, 9)[0])
        label, score = model.classify(img, *center_of(img))
        assert 0 <= label < 4 and np.isfinite(score)

    def test_out_of_bounds_center(self):
        model = FernModel.random(grid_classes(2, 9), 1, 2, np.random.default_rng(0))
        img = GrayImage(np.zeros((32, 32), dtype=np.uint8))
        with pytest.raises(OutOfBounds):
            model.classify(img, 2, 2)

    @pytest.mark.parametrize("kind", ["fern", "tree"])
    @pytest.mark.parametrize("x, y", [
        (np.nan, 16.0), (16.0, np.nan), (np.inf, 16.0), (16.0, -np.inf),
        (float("nan"), float("inf")),
    ])
    def test_non_finite_location_is_out_of_bounds(self, kind, x, y):
        model = MODEL_KINDS[kind].random(grid_classes(2, 9), 1, 2, np.random.default_rng(0))
        img = GrayImage(np.zeros((32, 32), dtype=np.uint8))
        with pytest.raises(OutOfBounds):
            model.classify(img, x, y)
        with pytest.raises(OutOfBounds):
            model.posterior(img, x, y)

    def test_posterior_argmax_agrees_with_classify(self):
        rng = np.random.default_rng(10)
        classes = grid_classes(4, 9)
        model = FernModel.random(classes, 3, 3, rng)
        patches = random_patches(rng, 80, 9)
        labels = rng.integers(0, 4, 80)
        model.train([(GrayImage(p), int(l)) for p, l in zip(patches, labels)])
        for p in random_patches(rng, 50, 9):
            img = GrayImage(p)
            post = model.posterior(img, *center_of(img))
            assert abs(post.sum() - 1.0) < 1e-12
            assert int(np.argmax(post)) == model.classify(img, *center_of(img))[0]

    def test_batch_path_matches_scalar_path(self):
        rng = np.random.default_rng(11)
        model = FernModel.random(grid_classes(3, 11), 4, 5, rng)
        patches = random_patches(rng, 100, 11)
        labels = rng.integers(0, 3, 100)
        model.train([(GrayImage(p), int(l)) for p, l in zip(patches, labels)])
        probe = random_patches(np.random.default_rng(11), 30, 11)
        batch_labels, batch_scores = model.classify_patches(probe)
        for i in range(30):
            img = GrayImage(probe[i])
            label, score = model.classify(img, *center_of(img))
            assert label == batch_labels[i]
            assert score == batch_scores[i]

    def test_threads_share_one_model(self):
        # one-patch scores and their scratch are made per call, so calls on
        # more threads than cores, switching often, give the serial results
        rng = np.random.default_rng(12)
        units, depth, p = DEFAULT_FERN_COUNT, DEFAULT_FERN_SIZE, 15
        leaves = rng.integers(0, 8, (1 << depth, 200), dtype=np.uint8)
        # each unit a shuffle of one leaf table, so unit totals agree
        counts = np.stack([leaves[rng.permutation(1 << depth)] for _ in range(units)])
        model = FernModel(grid_classes(200, p), fern_tests(units, depth, p, rng), None, counts)
        img = GrayImage(random_patches(rng, 1, 64)[0])
        spots = rng.uniform(p // 2, 63 - p // 2, (400, 2)).tolist()

        def calls():
            return [(model.classify(img, x, y), model.posterior(img, x, y).tobytes())
                    for x, y in spots]

        serial = calls()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(4) as pool:
                runs = [pool.submit(calls) for _ in range(4)]
                got = [run.result(timeout=60) for run in runs]
        finally:
            sys.setswitchinterval(interval)
        assert [sum(a != b for a, b in zip(g, serial)) for g in got] == [0] * 4


class TestBruteForceOracle:
    def test_posterior_matches_exact_rationals(self):
        rng = np.random.default_rng(21)
        classes = grid_classes(3, 9)
        model = FernModel.random(classes, 3, 3, rng)
        patches = random_patches(rng, 90, 9)
        labels = rng.integers(0, 3, 90)
        model.train([(GrayImage(p), int(l)) for p, l in zip(patches, labels)])
        for p in random_patches(rng, 40, 9):
            got = model.posterior(GrayImage(p), 4, 4)
            expected = [float(v) for v in posterior_oracle(model, p)]
            assert np.allclose(got, expected, atol=1e-9)


class TestMonotoneInvariance:
    def test_strictly_increasing_maps_preserve_everything(self, small_model):
        rng = np.random.default_rng(30)
        p = small_model.patch_size
        patches = random_patches(rng, 50, p, low=0, high=85)
        base_leaves = small_model.leaf_indices(patches)
        base_labels, _ = small_model.classify_patches(patches)
        for remap in (lambda v: v + 100, lambda v: 2 * v, lambda v: 3 * v):
            mapped = remap(patches.astype(np.int64)).astype(np.uint8)
            assert np.array_equal(small_model.leaf_indices(mapped), base_leaves)
            labels, _ = small_model.classify_patches(mapped)
            assert np.array_equal(labels, base_labels)


class TestCostContract:
    def test_pixel_comparisons_and_lookups(self):
        rng = np.random.default_rng(31)
        model = FernModel.random(grid_classes(4, 9), 5, 4, rng)
        img = GrayImage(random_patches(rng, 1, 9)[0])
        model.pixel_comparisons = 0
        model.table_lookups = 0
        model.classify(img, *center_of(img))
        assert model.pixel_comparisons == 5 * 4
        assert model.table_lookups == 5

        model.pixel_comparisons = 0
        model.table_lookups = 0
        model.classify_patches(random_patches(rng, 12, 9))
        assert model.pixel_comparisons == 12 * 5 * 4
        assert model.table_lookups == 12 * 5


class TestInvariants:
    def test_leaf_distributions_normalized_after_training(self, small_model):
        sums = np.exp(small_model.log_table).sum(axis=1)
        assert np.all(np.abs(sums - 1.0) < 1e-9)

    def test_count_conservation(self, small_model):
        totals = small_model.counts.sum(axis=1)  # (S, H)
        assert np.all(totals == totals[0])

    def test_prior_sums_to_one(self, small_model):
        assert abs(np.exp(small_model.log_prior).sum() - 1.0) < 1e-12


class TestSerialization:
    def test_round_trip_bit_exact(self, small_model):
        data = small_model.save()
        loaded = FernModel.load(data)
        assert loaded.save() == data
        assert np.array_equal(loaded.log_table, small_model.log_table)
        assert np.array_equal(loaded.counts, small_model.counts)
        assert loaded.tests.tobytes() == small_model.tests.tobytes()

    def test_class_set_round_trip(self, small_model, small_forest):
        # the fixtures' classes come from select_stable_classes
        for model in (small_model, small_forest):
            loaded = type(model).load(model.save())
            assert loaded.classes == model.classes
            assert hash(loaded.classes) == hash(model.classes)
            assert loaded.classes.coords.tobytes() == model.classes.coords.tobytes()

    def test_coordinates_off_the_float32_grid_round_trip(self):
        classes = ClassSet([(40.1, 20.0), (10.0, 40.0)], 9)
        model = FernModel.random(classes, 2, 3, np.random.default_rng(0))
        loaded = FernModel.load(model.save())
        assert loaded.classes == classes
        assert loaded.classes.coords.tobytes() == classes.coords.tobytes()
        assert loaded.save() == model.save()

    def test_behavioral_round_trip(self, small_model):
        loaded = FernModel.load(small_model.save())
        rng = np.random.default_rng(40)
        probe = random_patches(rng, 200, small_model.patch_size)
        a_labels, a_scores = small_model.classify_patches(probe)
        b_labels, b_scores = loaded.classify_patches(probe)
        assert np.array_equal(a_labels, b_labels)
        assert np.array_equal(a_scores, b_scores)

    def test_flipped_magic(self, small_model):
        data = bytearray(small_model.save())
        data[0] ^= 0xFF
        with pytest.raises(FormatError):
            FernModel.load(bytes(data))

    def test_truncation(self, small_model):
        data = small_model.save()
        with pytest.raises(FormatError):
            FernModel.load(data[: len(data) - 9])

    def test_trailing_garbage(self, small_model):
        with pytest.raises(FormatError):
            FernModel.load(small_model.save() + b"\0")

    def test_tampered_counts_are_corrupt(self, small_model):
        data = bytearray(small_model.save())
        start, width = count_section(data, small_model)
        data[start] ^= 1  # one class of unit 0 now disagrees with the rest
        with pytest.raises(CorruptModel, match="totals disagree"):
            FernModel.load(bytes(data))

    def test_tables_are_rebuilt_from_counts(self, small_model):
        # a count moved between two leaves of one class keeps every total,
        # so the file loads, and its tables follow the moved count
        counts = small_model.counts.astype(np.uint64)
        src = int(np.argmax(counts[0, :, 0]))
        dst = (src + 1) % small_model.num_leaves
        counts[0, src, 0] -= 1
        counts[0, dst, 0] += 1
        data = bytearray(small_model.save())
        start, width = count_section(data, small_model)
        data[start:] = counts.astype(f"<u{width}").tobytes()
        loaded = FernModel.load(bytes(data))
        assert np.array_equal(loaded.counts, counts)
        total = int(counts[0, :, 0].sum())
        for leaf in (src, dst):
            expected = (int(counts[0, leaf, 0]) + 1) / (total + small_model.num_leaves)
            assert np.isclose(np.exp(loaded.log_table[0, leaf, 0]), expected, rtol=1e-12)

    @pytest.mark.parametrize("field", [0, 4])  # x or y of class 0
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_keypoint_is_corrupt(self, small_model, field, value):
        data = bytearray(small_model.save())
        struct.pack_into("<f", data, KEYPOINT_WORD + field, value)
        with pytest.raises(CorruptModel, match="finite"):
            FernModel.load(bytes(data))

    def test_averaging_fern_file_is_corrupt(self, small_model):
        data = bytearray(small_model.save())
        # header words follow the magic: version, classes, units, size,
        # patch, combination
        struct.pack_into("<I", data, 8 + 20, Combination.AVERAGE.value)
        with pytest.raises(CorruptModel):
            FernModel.load(bytes(data))

    def test_patch_size_past_int16_offsets_is_rejected(self):
        # offset 32768 would be stored as -32768 and load as another model
        classes = ClassSet([[40000.0, 40000.0]], 65537)
        with pytest.raises(InvalidArgument, match="^patch size 65537 exceeds 65535$"):
            FernModel(classes, [[[32768, 0, 1, 0]]])

    def test_widest_patch_round_trips(self):
        model = FernModel(ClassSet([[40000.0, 40000.0]], 65535), [[[32767, 0, -32767, 0]]])
        loaded = FernModel.load(model.save())
        assert loaded.patch_size == 65535
        assert loaded.tests.tolist() == [[[32767, 0, -32767, 0]]]

    def test_version_1_file_rejected(self, small_model):
        with pytest.raises(FormatError, match="version 1"):
            FernModel.load(v1_fern_file(small_model))

    def test_version_2_file_rejected(self, small_model):
        with pytest.raises(FormatError, match="version 2; retrain"):
            FernModel.load(v2_fern_file(small_model))


def one_cell_model(value: int) -> FernModel:
    """1 fern, M=1, 2 classes; a single count of ``value`` at leaf 1, class 1."""
    counts = np.zeros((1, 2, 2), dtype=np.uint64)
    counts[0, 1, 1] = value
    return FernModel(grid_classes(2, 5), [[(-1, 0, 1, 0)]], counts=counts)


class TestCountWidth:
    """Counts are stored at the narrowest of 1, 2, 4 or 8 bytes."""

    @pytest.mark.parametrize(
        "value, width",
        [
            (0, 1),
            (255, 1),
            (256, 2),
            (65535, 2),
            (65536, 4),
            (2**32 - 1, 4),
            (2**32, 8),
            (2**64 - 1, 8),
        ],
    )
    def test_narrowest_width_chosen(self, value, width):
        model = one_cell_model(value)
        data = model.save()
        assert struct.unpack_from("<I", data, WIDTH_WORD) == (width,)
        assert len(data) == WIDTH_WORD + 4 + 2 * 8 + 4 * 2 + model.counts.size * width

    @pytest.mark.parametrize("value", [255, 256, 65535, 65536, 2**32 - 1, 2**32])
    def test_round_trip_at_every_width(self, value):
        model = one_cell_model(value)
        data = model.save()
        loaded = FernModel.load(data)
        assert loaded.counts.itemsize == count_section(data, model)[1]
        assert np.array_equal(loaded.counts, model.counts)
        assert loaded.log_table.tobytes() == model.log_table.tobytes()
        probe = random_patches(np.random.default_rng(value % 1000), 50, 5)
        a_labels, a_scores = model.classify_patches(probe)
        b_labels, b_scores = loaded.classify_patches(probe)
        assert np.array_equal(a_labels, b_labels)
        assert a_scores.tobytes() == b_scores.tobytes()

    def test_trained_fixture_round_trips_narrow(self, small_model):
        data = small_model.save()
        _, width = count_section(data, small_model)
        assert width == 1
        loaded = FernModel.load(data)
        assert np.array_equal(loaded.counts, small_model.counts)
        assert loaded.log_table.tobytes() == small_model.log_table.tobytes()

    @pytest.mark.parametrize("width", [0, 3, 16])
    def test_unknown_width_is_a_format_error(self, small_model, width):
        data = bytearray(small_model.save())
        struct.pack_into("<I", data, WIDTH_WORD, width)
        with pytest.raises(FormatError, match="count width"):
            FernModel.load(bytes(data))

    @pytest.mark.parametrize(
        "value, claimed, problem",
        [(1, 2, "truncated"), (1, 8, "truncated"), (256, 1, "trailing"), (2**32, 4, "trailing")],
    )
    def test_width_and_section_length_disagree(self, value, claimed, problem):
        data = bytearray(one_cell_model(value).save())
        struct.pack_into("<I", data, WIDTH_WORD, claimed)
        with pytest.raises(FormatError, match=problem):
            FernModel.load(bytes(data))


class TestLoadedTables:
    """Load builds the tables from the file's narrow counts."""

    @pytest.mark.parametrize("extra, width", [(0, 1), (1000, 2), (70000, 4), (2**33, 8)])
    def test_equal_to_a_model_built_from_uint64_counts(self, small_model, extra, width):
        # uint64, so the added counts cannot wrap at the fixture's u8 width
        counts = small_model.counts.astype(np.uint64)
        counts[:, 0, 0] += np.uint64(extra)  # in every unit, so totals agree
        built = FernModel(small_model.classes, small_model.tests, counts=counts)
        data = built.save()
        assert struct.unpack_from("<I", data, WIDTH_WORD) == (width,)
        loaded = FernModel.load(data)
        assert loaded.counts.dtype == np.dtype(f"u{width}")
        assert loaded.counts.flags.c_contiguous
        assert np.array_equal(loaded.counts, counts)
        assert loaded.log_table.tobytes() == built.log_table.tobytes()

    def test_disagreeing_totals_rejected_before_any_table(self):
        model = FernModel.random(grid_classes(100, 9), 4, 10, np.random.default_rng(0))
        data = bytearray(model.save())
        start, _ = count_section(data, model)
        data[start] = 1  # a sample that only unit 0 saw
        blob = bytes(data)

        def load():
            with pytest.raises(CorruptModel, match="totals disagree"):
                FernModel.load(blob)

        # the model's copy of the u8 counts is an eighth of the table, so a
        # table built before the check would take the peak past this bound
        assert peak_traced_bytes(load) < 0.5 * model.log_table.nbytes


def spread_counts(value: int) -> np.ndarray:
    """Counts of a 2-fern, M=2, 2-class model with ``value`` at leaf 1 of
    class 1 in both ferns (so unit totals agree) and small counts elsewhere."""
    counts = np.array([[[3, 1], [0, 0], [2, 4], [1, 0]]] * 2, dtype=np.uint64)
    counts[:, 1, 1] = value
    return counts


def two_fern_model(counts: np.ndarray) -> FernModel:
    tests = [[(-1, 0, 1, 0), (0, -1, 0, 1)], [(1, 1, -1, -1), (-1, 1, 1, -1)]]
    return FernModel(grid_classes(2, 5), tests, counts=counts)


class TestTotalsCheck:
    """The totals check sums in the narrowest integers that hold a unit's
    totals, and its denominators are the float64 sum's bytes at every width."""

    @pytest.mark.parametrize("dtype, largest", [
        ("uint8", 255), ("uint8", 3), ("uint16", 2**16 - 1), ("uint32", 2**32 - 1),
        ("uint64", 2**64 - 1), ("uint64", 3), ("bool", 1),
    ])
    def test_denominators_equal_the_float64_sum(self, dtype, largest):
        rng = np.random.default_rng(largest)
        leaves = rng.integers(0, largest, (16, 3), endpoint=True, dtype=np.uint64)
        # three units of the same leaves: their totals agree in any sum
        counts = np.stack([leaves] * 3).astype(dtype)
        ferns = fern_tests(3, 4, 9, rng)
        model = FernModel(grid_classes(3, 9), ferns, counts=counts)
        # a bool array is held as u8, so every held array is unsigned
        assert model._counts.dtype == np.dtype("uint8" if dtype == "bool" else dtype)
        want = counts[0].sum(axis=0, dtype=np.float64) + 16.0
        assert model._denominators.dtype == np.float64
        assert model._denominators.tobytes() == want.tobytes()

    @pytest.mark.parametrize("depth, acc", [(8, np.uint16), (9, np.uint32),
                                            (24, np.uint32), (25, np.uint64)])
    def test_both_sides_of_an_accumulator_boundary(self, depth, acc):
        # u8 counts of 255 at every leaf: 2^24 x 255 is the largest total a
        # uint32 holds, and 2^25 x 255 would wrap it
        assert _total_dtype(np.dtype(np.uint8), 1 << depth) == acc
        counts = np.full((1, 1 << depth, 1), 255, dtype=np.uint8)
        counts.flags.writeable = False  # shared, not copied
        ferns = fern_tests(1, depth, 9, np.random.default_rng(depth))
        model = FernModel(grid_classes(1, 9), ferns, counts=counts)
        want = counts[0].sum(axis=0, dtype=np.float64) + float(1 << depth)
        assert model._denominators.tobytes() == want.tobytes()
        assert model._denominators.tolist() == [256.0 * (1 << depth)]

    def test_float64_past_two_to_the_53(self):
        assert _total_dtype(np.dtype(np.uint64), 2) == np.float64
        assert _total_dtype(np.dtype(np.uint32), 1 << 21) == np.uint64
        assert _total_dtype(np.dtype(np.uint32), 1 << 22) == np.float64

    @pytest.mark.parametrize("value, width", [(9, 1), (1000, 2), (70000, 4), (2**33, 8)])
    def test_disagreeing_totals_are_corrupt_at_each_width(self, value, width):
        model = two_fern_model(spread_counts(value))
        data = bytearray(model.save())
        start, stored = count_section(data, model)
        assert stored == width
        FernModel.load(bytes(data))
        # the low byte of fern 0's count at leaf 1, class 1 (cell 3)
        data[start + 3 * width] ^= 1
        with pytest.raises(CorruptModel, match="totals disagree"):
            FernModel.load(bytes(data))


class TestNarrowCounts:
    """A loaded model holds the file's narrow counts, and ``counts`` reads
    them at that width."""

    def test_loaded_model_holds_the_file_width(self, small_model):
        loaded = FernModel.load(small_model.save())
        assert loaded._counts.dtype == np.uint8
        assert loaded._counts.nbytes == small_model.counts.size

    def test_accumulate_on_a_loaded_model(self, small_model):
        built = FernModel(small_model.classes, small_model.tests, counts=small_model.counts)
        loaded = FernModel.load(small_model.save())
        rng = np.random.default_rng(70)
        # 300 copies of one patch push its cells past what u8 holds
        patches = np.concatenate(
            [np.repeat(random_patches(rng, 1, built.patch_size), 300, axis=0),
             random_patches(rng, 40, built.patch_size)]
        )
        labels = np.concatenate([np.zeros(300, np.int64), rng.integers(0, 3, 40)])
        for model in (built, loaded):
            model._accumulate(patches, labels)
        assert int(loaded.counts.max()) > 255
        assert np.array_equal(loaded.counts, built.counts)

    def test_train_on_a_loaded_model(self, small_model):
        built = FernModel(small_model.classes, small_model.tests, counts=small_model.counts)
        loaded = FernModel.load(small_model.save())
        rng = np.random.default_rng(71)
        patch = random_patches(rng, 1, built.patch_size)[0]
        samples = [(GrayImage(patch), 1)] * 300 + [
            (GrayImage(p), int(l))
            for p, l in zip(random_patches(rng, 40, built.patch_size), rng.integers(0, 3, 40))
        ]
        for model in (built, loaded):
            model.train(samples)
        assert np.array_equal(loaded.counts, built.counts)
        assert loaded.log_table.tobytes() == built.log_table.tobytes()
        assert loaded.save() == built.save()

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_truncated_save_of_a_loaded_model(self, small_model, k):
        built = FernModel(small_model.classes, small_model.tests, counts=small_model.counts)
        loaded = FernModel.load(small_model.save())
        assert loaded.truncated(k).save() == built.truncated(k).save()
        # truncating reads the narrow counts; the loaded model keeps them
        assert loaded._counts.dtype == np.uint8

    @pytest.mark.parametrize(
        "source",
        ["fresh", "uint64", "fortran", "uint8", "int64", "float64", "bool",
         "loaded1", "loaded2", "loaded4", "loaded8", "truncated"],
    )
    def test_every_read_is_c_ordered_uint64(self, source):
        """Every read is a C-ordered read-only view of the held counts, at
        their width, holding the uint64 counts the model was given."""
        counts = spread_counts({"loaded2": 300, "loaded4": 70000, "loaded8": 2**33}.get(source, 9))
        model = {
            "fresh": lambda: two_fern_model(None),
            "uint64": lambda: two_fern_model(counts),
            "fortran": lambda: two_fern_model(np.asfortranarray(counts)),
            "uint8": lambda: two_fern_model(counts.astype(np.uint8)),
            "int64": lambda: two_fern_model(counts.astype(np.int64)),
            "float64": lambda: two_fern_model(counts.astype(np.float64)),
            "bool": lambda: two_fern_model(counts.astype(bool)),
            "truncated": lambda: FernModel.load(two_fern_model(counts).save()).truncated(1),
        }.get(source, lambda: FernModel.load(two_fern_model(counts).save()))()
        held = {"fresh": "u1", "uint8": "u1", "bool": "u1", "truncated": "u1"}.get(source, "u8")
        if source.startswith("loaded"):
            held = f"u{source[-1]}"
        for _ in range(2):
            got = model.counts
            assert got.dtype == np.dtype(held) == model._counts.dtype
            assert got.flags.c_contiguous
            assert not got.flags.writeable
            assert np.shares_memory(got, model._counts)
        want = {"fresh": 0, "bool": counts.astype(bool)}.get(source, counts)
        want = np.broadcast_to(want, counts.shape)[: got.shape[0]]
        assert np.array_equal(got, want)

    def test_a_read_only_view_of_a_writeable_array_is_copied(self):
        counts = spread_counts(9)
        view = counts.view()
        view.flags.writeable = False
        model = two_fern_model(view)
        assert not np.shares_memory(model._counts, counts)
        counts[0, 0, 0] += 1  # a sample that only fern 0 saw
        assert np.array_equal(model.counts, spread_counts(9))
        assert FernModel.load(model.save()).save() == model.save()

    def test_load_holds_no_uint64_copy(self):
        ferns = fern_tests(4, 10, 9, np.random.default_rng(0))
        rng = np.random.default_rng(72)
        # one row repeated in every fern, so unit totals agree
        counts = np.broadcast_to(rng.integers(0, 200, (1 << 10, 100)), (4, 1 << 10, 100))
        model = FernModel(grid_classes(100, 9), ferns, counts=counts)
        blob = model.save()
        assert count_section(blob, model)[1] == 1
        # the table, plus the u8 copy of the counts (an eighth of it); a
        # uint64 copy would be as large as the table again
        loaded = []
        peak = peak_traced_bytes(lambda: loaded.append(FernModel.load(blob)))
        assert peak < 1.25 * model.log_table.nbytes
        assert loaded[0].log_table.tobytes() == model.log_table.tobytes()


# 8 units x 10 bits x 50 classes: counts and tables of 3.3 MB each
MIDSIZE_UNITS = {
    "fern": lambda: fern_tests(8, 10, 9, np.random.default_rng(80)),
    "tree": lambda: tree_tests(8, 10, 9, np.random.default_rng(80)),
}
# log tables of the models trained on ``midsize_stream(0)``, pinned from
# the training path that rebuilt into a second table: the bytes must not move
MIDSIZE_TABLE_SHA = {
    "fern": "eed943086faf11fff4ea17f642f9c47710418f47f3cde429933ff03a80c0997c",
    "tree": "eb8a7c629512d1856aa9d79fcd44b4a7f4bb8e979f42038e5103ec0fe97d295e",
}


def midsize_model(kind: str, units) -> FernModel | TreeForest:
    classes = grid_classes(50, 9)
    return FernModel(classes, units) if kind == "fern" else TreeForest(classes, units)


def midsize_stream(repeats: int) -> tuple[np.ndarray, np.ndarray]:
    """3000 noise patches over 50 classes, after ``repeats`` copies of one
    patch of class 0 (so counts pass 255 when repeats do)."""
    rng = np.random.default_rng(81)
    patches = random_patches(rng, 3000, 9)
    labels = rng.integers(0, 50, 3000)
    return (
        np.concatenate([np.repeat(patches[:1], repeats, axis=0), patches]),
        np.concatenate([np.zeros(repeats, np.int64), labels]),
    )


@pytest.mark.parametrize("kind", ["fern", "tree"])
class TestTrainingMemory:
    """Training holds at most one table, and counts rest at the width
    ``save()`` picks whenever no one is counting."""

    @pytest.mark.parametrize("repeats, width", [(0, 1), (300, 2)])
    def test_counts_rest_at_the_saved_width(self, kind, repeats, width):
        model = midsize_model(kind, MIDSIZE_UNITS[kind]())
        model.train(zip(*midsize_stream(repeats)))
        data = model.save()
        assert model._counts.itemsize == count_section(data, model)[1] == width
        loaded = type(model).load(data)
        assert loaded.log_table.tobytes() == model.log_table.tobytes()
        if not repeats:
            assert sha256_of(model.log_table.astype("<f8")) == MIDSIZE_TABLE_SHA[kind]
        assert model.counts.itemsize == width

    def test_training_peak_holds_one_table(self, kind):
        units = MIDSIZE_UNITS[kind]()
        samples = list(zip(*midsize_stream(0)))
        trained = []
        peak = peak_traced_bytes(
            lambda: trained.append(midsize_model(kind, units).train(samples))
        )
        model = trained[0]
        # uint64 counts while counting and one float64 table (the one built
        # at construction, then the rebuilt one), plus chunk slack; a second
        # table alive during the rebuild would pass the bound
        u64_counts = model.log_table.size * 8
        assert peak < u64_counts + model.log_table.nbytes + 2**20

    def test_bad_label_in_the_second_chunk(self, kind, monkeypatch):
        units = MIDSIZE_UNITS[kind]()
        patches, labels = midsize_stream(0)
        labels[1500] = 50
        model = midsize_model(kind, units)
        monkeypatch.setattr("fernkit.ferns.TRAIN_CHUNK", 1000)
        with pytest.raises(InvalidLabel, match="label 50 "):
            model.train(zip(patches, labels))
        first = midsize_model(kind, units).train(zip(patches[:1000], labels[:1000]))
        assert model.log_table.tobytes() == first.log_table.tobytes()
        assert model._counts.itemsize == 1
        got, _ = model.classify_patches(patches[:100])
        assert np.array_equal(got, first.classify_patches(patches[:100])[0])

    def test_rejected_rebuild_keeps_the_old_table(self, kind):
        model = midsize_model(kind, MIDSIZE_UNITS[kind]())
        table = model.log_table
        model._counts[0, 0, 0] += 1  # a sample that only unit 0 saw
        with pytest.raises(InvalidArgument, match="totals disagree"):
            model._rebuild_tables()
        assert model.log_table is table


def add_at_oracle(model, patches: np.ndarray, labels: np.ndarray):
    """A model like ``model`` on uint64 counts of the stream, one np.add.at
    per unit, counted by a fresh model over the same units."""
    counts = np.zeros(model._counts.shape, dtype=np.uint64)
    leaves = with_counts(model, None).leaf_indices(patches)
    for u in range(counts.shape[0]):
        np.add.at(counts[u], (leaves[:, u], labels), 1)
    return with_counts(model, counts)


class TestCountWidthRule:
    """Each chunk is counted at the narrowest width that holds the class
    totals after it; training never holds uint64 counts."""

    def test_widens_exactly_when_a_class_total_passes_a_width(self):
        model = two_fern_model(None)
        rng = np.random.default_rng(100)
        want = np.zeros(model._counts.shape, dtype=np.uint64)
        # noise patches spread class 0 over the leaves, so no count reaches
        # 255 when its total passes it; class 1 stays small throughout
        for n, dtype in [(255, np.uint8), (1, np.uint16), (65535 - 256, np.uint16),
                         (1, np.uint32)]:
            patches = random_patches(rng, n + 3, 5)
            labels = np.concatenate([np.zeros(n, np.int64), np.ones(3, np.int64)])
            leaves = model.leaf_indices(patches)
            for u in range(want.shape[0]):
                np.add.at(want[u], (leaves[:, u], labels), 1)
            model._accumulate(patches, labels)
            assert model._counts.dtype == dtype
            assert np.array_equal(model._counts, want)
        assert int(want[0, :, 0].sum()) == 65536
        assert int(want.max()) < 65536

    @pytest.mark.parametrize("kind", ["fern", "tree"])
    @pytest.mark.parametrize("repeats", [0, 300])
    def test_counts_file_and_table_equal_a_uint64_oracle(self, kind, repeats, monkeypatch):
        model = midsize_model(kind, MIDSIZE_UNITS[kind]())
        patches, labels = midsize_stream(repeats)
        oracle = add_at_oracle(model, patches, labels)
        # small chunks: the counts widen partway through the stream
        monkeypatch.setattr("fernkit.ferns.TRAIN_CHUNK", 200)
        model.train(zip(patches, labels))
        assert np.array_equal(model._counts, oracle._counts)
        assert model.save() == oracle.save()
        assert model.log_table.tobytes() == oracle.log_table.tobytes()

    @pytest.mark.parametrize("kind", ["fern", "tree"])
    def test_a_stream_that_raises_keeps_the_widened_chunks(self, kind, monkeypatch):
        units = MIDSIZE_UNITS[kind]()
        patches, labels = midsize_stream(300)
        labels[2500] = 50
        model = midsize_model(kind, units)
        monkeypatch.setattr("fernkit.ferns.TRAIN_CHUNK", 1000)
        with pytest.raises(InvalidLabel, match="label 50 "):
            model.train(zip(patches, labels))
        first = midsize_model(kind, units).train(zip(patches[:2000], labels[:2000]))
        assert model._counts.itemsize == 2
        assert model.save() == first.save()
        assert model.log_table.tobytes() == first.log_table.tobytes()

    def test_a_class_total_past_2_64_minus_1_raises_before_any_write(self):
        counts = np.zeros((1, 2, 2), np.uint64)
        counts[0, 0, 0] = 2**64 - 2
        model = FernModel(ClassSet([[10, 10], [30, 30]], 9), [[[1, 0, -1, 0]]], counts=counts)
        # a flat patch reaches leaf 0: one sample takes class 0 to 2^64 - 1,
        # the largest total a count width holds, and the next past it
        sample = [(np.zeros((1, 9, 9), np.uint8), np.array([0]))]
        model.train(sample)
        counts[0, 0, 0] += np.uint64(1)
        with pytest.raises(InvalidArgument,
                           match=r"^a class total of 18446744073709551616 exceeds 2\^64 - 1$"):
            model.train(sample)
        assert model.counts.dtype == np.uint64
        assert np.array_equal(model.counts, counts)
        assert model._denominators.tolist() == [float(2**64 - 1 + 2), 2.0]

    def test_cli_shape_training_peaks_below_a_quarter_of_uint64_counts(self):
        rng = np.random.default_rng(101)
        s, m, h, p = DEFAULT_FERN_COUNT, DEFAULT_FERN_SIZE, 200, 9
        classes, ferns = grid_classes(h, p), fern_tests(s, m, p, rng)
        samples = list(zip(random_patches(rng, 10 * h, p), np.repeat(np.arange(h), 10)))
        trained = []
        peak = peak_traced_bytes(
            lambda: trained.append(FernModel(classes, ferns).train(samples))
        )
        # u8 counts (an eighth of the uint64 ones) and a chunk's temporaries
        assert peak < 0.25 * s * (1 << m) * h * 8
        assert trained[0]._counts.dtype == np.uint8
        assert int(trained[0]._counts[0].sum()) == 10 * h


def table_scores(model: LeafModel, window: np.ndarray) -> np.ndarray:
    """The (H,) Naive-Bayes scores of a (1, p, p) window, summed from
    ``log_table`` rows as in a two-patch batch."""
    scores, rows = model._buffers(2)
    model._score_block(np.concatenate([window, window]), Combination.NAIVE_BAYES, scores, rows)
    return scores[0].copy()


class TestTablesOnDemand:
    """``log_table`` is a cache of the counts, built on first read; a
    one-patch Naive-Bayes lookup maps its counts rows through the per-class
    count lookup instead, so a model that only scores single patches never
    builds one."""

    @pytest.mark.parametrize("kind", ["fern", "tree"])
    @pytest.mark.parametrize("repeats, width", [(0, 1), (300, 2)])
    def test_rows_from_counts_are_the_table_bytes(self, kind, repeats, width):
        model = midsize_model(kind, MIDSIZE_UNITS[kind]())
        model.train(zip(*midsize_stream(repeats)))
        assert model._counts.itemsize == width
        lookup, _ = model._count_lookup
        # one entry per count up to the largest class total
        assert lookup.shape == (model.num_classes, int(model.counts[0].sum(axis=0).max()) + 1)
        got = lookup[np.arange(model.num_classes), model._counts]
        assert cached(model, "log_table") is None
        assert got.tobytes() == model.log_table.tobytes()

    @pytest.mark.parametrize("units", [8, PATCH_BLOCK + 44])
    def test_one_patch_lookups_build_no_table(self, units):
        # more units than a step holds: the rows come in several steps
        rng = np.random.default_rng(90)
        model = FernModel.random(grid_classes(5, 9), units, 6, rng)
        model.train(zip(random_patches(rng, 400, 9), rng.integers(0, 5, 400)))
        data = model.save()
        loaded, built = FernModel.load(data), FernModel.load(data)
        img = GrayImage(random_patches(rng, 1, 40)[0])
        for centre in ((4, 4), (20, 17), (35, 35)):
            label, score = loaded.classify(img, *centre)
            # the reference: the window's score row in a two-patch batch,
            # which sums table rows
            want = table_scores(built, loaded._window(img, *centre))
            assert (label, np.float64(score).tobytes()) == (want.argmax(), want.max().tobytes())
            posterior = loaded.posterior(img, *centre)
            assert posterior.tobytes() == _softmax_rows(want[None])[0].tobytes()
        patch = random_patches(rng, 1, 9)
        labels, scores = loaded.classify_patches(patch)
        want_labels, want_scores = built.classify_patches(np.concatenate([patch, patch]))
        assert labels.tobytes() == want_labels[:1].tobytes()
        assert scores.tobytes() == want_scores[:1].tobytes()
        assert cached(loaded, "log_table") is None and cached(built, "log_table") is not None

    def test_one_location_reads_the_lookup_after_a_batch(self, small_model):
        model = FernModel.load(small_model.save())
        img = GrayImage(random_patches(np.random.default_rng(94), 1, 64)[0])
        r = model.patch_size // 2
        centres = ((r, r), (32, 30), (63 - r, 63 - r))

        def one_location():
            return [(model.classify(img, *c), model.posterior(img, *c).tobytes()) for c in centres]

        want = one_location()
        model.classify_patches(random_patches(np.random.default_rng(95), 50, model.patch_size))
        assert cached(model, "log_table") is not None
        # a table read would now give NaN scores
        model.log_table = np.full_like(model.log_table, np.nan)
        assert one_location() == want
        assert cached(model, "_count_lookup") is not None

    def test_a_batch_ending_in_one_patch_keeps_its_bytes(self):
        # its last block is one patch, scored in steps of a whole block's scratch
        rng = np.random.default_rng(96)
        model = FernModel.random(grid_classes(5, 9), PATCH_BLOCK + 44, 6, rng)
        model.train(zip(random_patches(rng, 400, 9), rng.integers(0, 5, 400)))
        patches = random_patches(rng, PATCH_BLOCK + 1, 9)
        labels, scores = model.classify_patches(patches)
        want = table_scores(model, patches[-1:])
        assert (labels[-1], scores[-1:].tobytes()) == (want.argmax(), want.max().tobytes())

    def test_batches_build_the_table_once_and_counting_drops_it(self, small_model):
        model = FernModel.load(small_model.save())
        rng = np.random.default_rng(91)
        patches = random_patches(rng, 50, model.patch_size)
        model.classify_patches(patches)
        table = cached(model, "log_table")
        assert table is not None
        model.classify_patches(patches[:1])
        model.classify_patches(patches)
        assert cached(model, "log_table") is table
        model._rebuild_tables()
        assert cached(model, "log_table") is None
        model.classify_patches(patches)
        assert cached(model, "log_table") is not None
        model.train(zip(patches, rng.integers(0, model.num_classes, 50)))
        assert cached(model, "log_table") is None
        assert model.log_table.tobytes() == FernModel.load(model.save()).log_table.tobytes()

    def test_fresh_models_hold_narrow_zero_counts_and_no_table(self, small_model):
        for model in (
            FernModel.random(small_model.classes, 4, 6, np.random.default_rng(92)),
            TreeForest.random(small_model.classes, 4, 3, np.random.default_rng(92)),
        ):
            assert model._counts.dtype == np.uint8
            assert cached(model, "log_table") is None
            assert not model._counts.any()

    def test_loading_a_cli_shape_model_builds_no_table(self):
        rng = np.random.default_rng(93)
        s, m, h, p = DEFAULT_FERN_COUNT, DEFAULT_FERN_SIZE, 200, 31
        # one row repeated in every fern, so unit totals agree
        counts = np.broadcast_to(rng.integers(0, 126, (1 << m, h), dtype=np.uint8), (s, 1 << m, h))
        blob = FernModel(grid_classes(h, p), fern_tests(s, m, p, rng), counts=counts).save()
        table_bytes = s * (1 << m) * h * 8
        loaded = []
        peak = peak_traced_bytes(lambda: loaded.append(FernModel.load(blob)))
        # the u8 copy of the counts is an eighth of the table
        assert peak < 0.25 * table_bytes
        assert cached(loaded[0], "log_table") is None

    def test_a_lookup_larger_than_the_table_is_never_allocated(self):
        # one unit of depth 1 holds 2 x H values; counts of 2**40 would need
        # a lookup of H x (2**41 + 1)
        h, p = 3, 9
        counts = np.full((1, 2, h), 2**40, dtype=np.uint64)
        model = FernModel(grid_classes(h, p), [[(1, 0, -1, 0)]], counts=counts)
        patches = random_patches(np.random.default_rng(94), 2, p)
        label, score = model.classify(GrayImage(patches[0]), p // 2, p // 2)
        assert "_count_lookup" in vars(model) and cached(model, "_count_lookup") is None
        # a two-patch batch reads the table
        labels, scores = model.classify_patches(patches)
        assert (label, np.float64(score).tobytes()) == (labels[0], scores[:1].tobytes())

    def test_training_and_truncation_drop_the_lookup(self):
        rng = np.random.default_rng(95)
        model = FernModel.random(grid_classes(5, 9), 6, 4, rng)
        model.train(zip(random_patches(rng, 40, 9), rng.integers(0, 5, 40)))
        img = GrayImage(random_patches(rng, 1, 40)[0])
        centres = ((4, 4), (20, 17), (35, 35))

        def one_location_bytes(m):
            return [(label, np.float64(score).tobytes())
                    for label, score in (m.classify(img, *c) for c in centres)]

        def batch_bytes(m):
            patches = np.stack([img.pixels[y - 4 : y + 5, x - 4 : x + 5] for x, y in centres])
            labels, scores = FernModel.load(m.save()).classify_patches(patches)
            return [(int(a), np.float64(s).tobytes()) for a, s in zip(labels, scores)]

        assert one_location_bytes(model) == batch_bytes(model)
        first, _ = cached(model, "_count_lookup")
        # more samples raise the largest class total, so the lookup grows
        model.train(zip(random_patches(rng, 400, 9), rng.integers(0, 5, 400)))
        assert cached(model, "_count_lookup") is None and cached(model, "log_table") is None
        assert one_location_bytes(model) == batch_bytes(model)
        assert cached(model, "_count_lookup")[0].shape[1] > first.shape[1]
        for k in (1, 4):
            fresh = FernModel(model.classes, model.tests[:k], counts=model.counts[:k])
            assert one_location_bytes(model.truncated(k)) == one_location_bytes(fresh)


class TestAccumulate:
    """One sort per chunk against one np.add.at per unit."""

    def test_repeated_leaf_label_pairs(self, small_model):
        model = FernModel(small_model.classes, small_model.tests, counts=small_model.counts)
        rng = np.random.default_rng(60)
        patches = np.concatenate(
            [np.repeat(random_patches(rng, 3, model.patch_size), 40, axis=0),
             random_patches(rng, 50, model.patch_size)]
        )
        labels = np.concatenate([np.zeros(100, np.int64), rng.integers(0, 3, 70)])
        want = accumulate_oracle(model, patches, labels)
        model._accumulate(patches, labels)
        assert np.array_equal(model.counts, want)

    def test_one_patch_chunk(self, small_model):
        model = FernModel(small_model.classes, small_model.tests)
        patch = random_patches(np.random.default_rng(61), 1, model.patch_size)
        label = np.array([model.num_classes - 1])
        want = accumulate_oracle(model, patch, label)
        model._accumulate(patch, label)
        assert np.array_equal(model.counts, want)
        assert int(model.counts.sum()) == model.num_units

    def test_truncated_model_counts(self, small_model):
        sub = small_model.truncated(3)
        rng = np.random.default_rng(62)
        patches = random_patches(rng, 300, sub.patch_size)
        labels = rng.integers(0, sub.num_classes, 300)
        want = accumulate_oracle(sub, patches, labels)
        before = small_model.counts.copy()
        sub._accumulate(patches, labels)
        assert np.array_equal(sub.counts, want)
        assert np.array_equal(small_model.counts, before)

    def test_fortran_ordered_starting_counts(self, small_model):
        counts = np.asfortranarray(small_model.counts)
        model = FernModel(small_model.classes, small_model.tests, counts=counts)
        rng = np.random.default_rng(63)
        patches = random_patches(rng, 100, model.patch_size)
        labels = rng.integers(0, model.num_classes, 100)
        want = accumulate_oracle(model, patches, labels)
        model._accumulate(patches, labels)
        assert np.array_equal(model.counts, want)


class TestTruncated:
    def test_prefix_shares_counts_and_tables(self, small_model):
        sub = small_model.truncated(3)
        assert sub.num_units == 3
        assert np.array_equal(sub.counts, small_model.counts[:3])
        assert np.array_equal(sub.log_table, small_model.log_table[:3])

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_prefix_tables_are_views_equal_to_the_slice(self, small_model, k):
        small_model.log_table  # built first; the prefix still builds its own
        sub = small_model.truncated(k)
        assert sub.log_table.tobytes() == small_model.log_table[:k].tobytes()
        assert np.shares_memory(sub._counts, small_model._counts)
        assert sub.counts.tobytes() == small_model.counts[:k].tobytes()

    @pytest.mark.parametrize("trained", ["parent", "sub"])
    @pytest.mark.parametrize("source", ["loaded", "built"])
    def test_counting_one_side_leaves_the_other(self, small_model, trained, source):
        # u8 counts shared with the file, or with the fixture model
        parent = {
            "loaded": lambda: FernModel.load(small_model.save()),
            "built": lambda: with_counts(small_model, small_model.counts),
        }[source]()
        parent.log_table
        sides = {"parent": parent, "sub": parent.truncated(3)}
        before = {name: (m.save(), m.log_table.tobytes()) for name, m in sides.items()}
        rng = np.random.default_rng(102)
        # 300 copies of one patch: counting widens u8 counts
        patches = np.concatenate(
            [np.repeat(random_patches(rng, 1, parent.patch_size), 300, axis=0),
             random_patches(rng, 40, parent.patch_size)]
        )
        model = sides[trained]
        model.train(zip(patches, np.zeros(340, np.int64)))
        assert model.save() != before[trained][0]
        for name, other in sides.items():
            if name != trained:
                assert (other.save(), other.log_table.tobytes()) == before[name]

    def test_bad_k(self, small_model):
        with pytest.raises(InvalidArgument):
            small_model.truncated(0)
        with pytest.raises(InvalidArgument):
            small_model.truncated(99)


def public_model(kind: str, source: str):
    """A 3-unit, depth-4, 3-class fern or tree model as a public call leaves
    it: fresh, trained, loaded at count width 1, 2, 4 or 8, or truncated."""
    rng = np.random.default_rng(110)
    classes = grid_classes(3, 9)
    model = (FernModel if kind == "fern" else TreeForest).random(classes, 3, 4, rng)
    if source == "fresh":
        return model
    model.train(zip(random_patches(rng, 60, 9), rng.integers(0, 3, 60)))
    if source == "trained":
        return model
    if source == "truncated":
        return model.truncated(2)
    extra = {"loaded1": 0, "loaded2": 300, "loaded4": 70000, "loaded8": 2**33}[source]
    counts = model.counts.astype(np.uint64)
    counts[:, 0, 0] += np.uint64(extra)  # in every unit, so totals agree
    return type(model).load(with_counts(model, counts).save())


@pytest.mark.parametrize("kind", ["fern", "tree"])
class TestReadOnlyCounts:
    """``counts`` is a read-only view of the held counts at their width, so
    counts reach a model only through its constructor and training."""

    @pytest.mark.parametrize(
        "source", ["fresh", "trained", "loaded1", "loaded2", "loaded4", "loaded8", "truncated"]
    )
    def test_a_write_through_counts_raises_and_the_model_round_trips(self, kind, source):
        model = public_model(kind, source)
        counts = model.counts
        assert counts.dtype.kind == "u"
        assert counts.dtype == model._counts.dtype
        if source.startswith("loaded"):
            assert counts.itemsize == int(source[-1])
        assert not counts.flags.writeable
        assert np.shares_memory(counts, model._counts)
        table, data = model.log_table.tobytes(), model.save()
        with pytest.raises(ValueError, match="read-only"):
            model.counts[0, 0, 0] += 1
        assert (model.log_table.tobytes(), model.save()) == (table, data)
        loaded = type(model).load(data)
        assert (loaded.log_table.tobytes(), loaded.save()) == (table, data)

    def test_training_after_a_read_leaves_the_view_and_its_sharers(self, kind):
        model = public_model(kind, "trained")
        view = model.counts
        before = view.astype(np.uint64)
        sharer = with_counts(model, view)  # shares the read-only view
        assert np.shares_memory(sharer._counts, view)
        rng = np.random.default_rng(111)
        patches, labels = random_patches(rng, 30, 9), rng.integers(0, 3, 30)
        model.train(zip(patches, labels))
        # training copied the counts before it wrote
        assert not np.shares_memory(view, model._counts)
        assert np.array_equal(view, before)
        assert np.array_equal(sharer.counts, before)
        assert np.array_equal(model.counts, accumulate_oracle(sharer, patches, labels))
        sharer.train(zip(patches, labels))
        assert sharer.save() == model.save()


class TestAverageCombination:
    def test_average_mode_differs_and_is_valid(self, small_model):
        rng = np.random.default_rng(50)
        probe = random_patches(rng, 60, small_model.patch_size)
        nb_labels, _ = small_model.classify_patches(probe, Combination.NAIVE_BAYES)
        avg_labels, avg_scores = small_model.classify_patches(probe, Combination.AVERAGE)
        assert nb_labels.shape == avg_labels.shape
        assert np.all((avg_scores > 0) & (avg_scores <= 1.0))

    def test_single_fern_modes_agree(self):
        rng = np.random.default_rng(51)
        model = FernModel.random(grid_classes(3, 9), 1, 4, rng)
        patches = random_patches(rng, 60, 9)
        labels = rng.integers(0, 3, 60)
        model.train([(GrayImage(p), int(l)) for p, l in zip(patches, labels)])
        probe = random_patches(rng, 40, 9)
        nb, _ = model.classify_patches(probe, Combination.NAIVE_BAYES)
        avg, _ = model.classify_patches(probe, Combination.AVERAGE)
        assert np.array_equal(nb, avg)


class TestGoldenPins:
    """Exact tables and decisions of the small fixture model."""

    def test_counts_and_tables(self, small_model):
        assert sha256_of(small_model.counts.astype("<u8")) == (
            "c9091e3c3b8436d78fd632f638a6e3809998bc1849aa630ee2e42f0b8b2d8408"
        )
        assert sha256_of(small_model.log_table.astype("<f8")) == (
            "b62c124c8bd592535cd82537d08664a4592f814c53c6334a67b6f742146e7b41"
        )

    def test_model_file(self, small_model):
        # version 3, count width 1: the version-2 file (121a4ef1...) with a
        # width word after the six header words and its counts as u8
        assert hashlib.sha256(small_model.save()).hexdigest() == (
            "933f1725171ab7a16d447895f479ad3584104845ae42ab48573b4aab50044b90"
        )

    def test_labels_and_scores(self, small_model):
        labels, scores = small_model.classify_patches(pin_probe(small_model.patch_size))
        assert sha256_of(labels.astype("<i8"), scores.astype("<f8")) == (
            "881a9720237f6054cff5e8c6354a1b46a57c49e661a2f7c2fe2bc835175c7011"
        )
