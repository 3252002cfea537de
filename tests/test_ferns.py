import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fernkit import (
    CorruptModel,
    FeatureTest,
    Fern,
    FernModel,
    FormatError,
    GrayImage,
    InvalidArgument,
    InvalidLabel,
    InvalidPatch,
    Keypoint,
    OutOfBounds,
    make_random_ferns,
)
from fernkit.ferns import Combination

from support import (
    grid_classes,
    leaf_index_oracle,
    pin_probe,
    posterior_oracle,
    random_patches,
    sha256_of,
    v1_fern_file,
)


def center_of(img):
    return Keypoint(img.width // 2, img.height // 2)


def leaf_of(values, *tests) -> int:
    """Leaf index of one fern made of ``tests`` on one square patch."""
    patch = np.array(values, dtype=np.uint8)
    model = FernModel(grid_classes(1, patch.shape[0]), [Fern(tests)])
    return int(model.leaf_indices(patch)[0, 0])


class TestEvalFeature:
    def test_strictly_less_is_one(self):
        test = FeatureTest(-1, -1, 0, -1)  # reads 10 then 20
        assert leaf_of([[10, 20, 0], [0, 0, 0], [0, 0, 0]], test) == 1

    def test_tie_is_zero(self):
        test = FeatureTest(-1, -1, 0, -1)
        assert leaf_of([[10, 10, 0], [0, 0, 0], [0, 0, 0]], test) == 0

    def test_constant_image_always_zero(self):
        patch = np.full((9, 9), 42, dtype=np.uint8)
        rng = np.random.default_rng(0)
        for fern in make_random_ferns(3, 4, 9, rng):
            for t in fern.tests:
                assert leaf_of(patch, t) == 0

    def test_out_of_bounds(self):
        model = FernModel(grid_classes(1, 3), [Fern((FeatureTest(1, 0, 0, 1),))])
        img = GrayImage(np.zeros((5, 5), dtype=np.uint8))
        with pytest.raises(OutOfBounds):
            model.classify(img, Keypoint(4, 4))
        with pytest.raises(OutOfBounds):
            model.posterior(img, Keypoint(4, 4))

    def test_coincident_offsets_rejected(self):
        with pytest.raises(InvalidArgument):
            FeatureTest(1, 1, 1, 1)


class TestEvalFern:
    def test_declared_bit_order(self):
        # three tests engineered to produce bits (1, 0, 1) -> 5
        patch = np.array([[5, 9, 0], [7, 1, 7], [0, 9, 5]], dtype=np.uint8)
        fern = Fern(
            (
                FeatureTest(-1, -1, 0, -1),  # 5 < 9 -> 1
                FeatureTest(1, 0, -1, 0),  # 7 < 7 -> 0
                FeatureTest(-1, 1, 0, 1),  # 0 < 9 -> 1
            )
        )
        assert leaf_of(patch, *fern.tests) == 5
        assert leaf_index_oracle(patch, fern) == 5

    def test_constant_image_leaf_zero(self):
        patches = np.full((1, 11, 11), 8, dtype=np.uint8)
        model = FernModel(grid_classes(1, 11), make_random_ferns(5, 6, 11, np.random.default_rng(1)))
        assert not model.leaf_indices(patches).any()

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_bit_packing_oracle(self, seed):
        rng = np.random.default_rng(seed)
        patches = random_patches(rng, 4, 13)
        ferns = make_random_ferns(3, 7, 13, rng)
        leaves = FernModel(grid_classes(1, 13), ferns).leaf_indices(patches)
        expected = [[leaf_index_oracle(p, f) for f in ferns] for p in patches]
        assert np.array_equal(leaves, expected)


class TestMakeRandomFerns:
    def test_deterministic(self):
        a = make_random_ferns(4, 5, 31, np.random.default_rng(12))
        b = make_random_ferns(4, 5, 31, np.random.default_rng(12))
        assert a == b

    def test_offsets_within_patch_and_distinct(self):
        ferns = make_random_ferns(100, 100, 15, np.random.default_rng(3))
        for fern in ferns:
            for t in fern.tests:
                assert max(abs(t.dx1), abs(t.dy1), abs(t.dx2), abs(t.dy2)) <= 7
                assert (t.dx1, t.dy1) != (t.dx2, t.dy2)

    def test_default_budget_is_300_features(self):
        ferns = make_random_ferns(30, 10, 31, np.random.default_rng(0))
        assert sum(f.size for f in ferns) == 300

    def test_prefix_stability(self):
        # the first k ferns of a big draw equal a fresh draw of k ferns
        big = make_random_ferns(30, 6, 21, np.random.default_rng(77))
        small = make_random_ferns(5, 6, 21, np.random.default_rng(77))
        assert big[:5] == small


def two_class_m1_model() -> FernModel:
    """1 fern, M=1, counts c0: (3, 1), c1: (1, 3)."""
    classes = grid_classes(2, 5)
    model = FernModel(classes, [Fern((FeatureTest(-1, 0, 1, 0),))])
    model.counts[0, 0, 0] = 3
    model.counts[0, 1, 0] = 1
    model.counts[0, 0, 1] = 1
    model.counts[0, 1, 1] = 3
    model._rebuild_tables()
    return model


def leaf1_patch() -> GrayImage:
    # left pixel < right pixel at every row, so the single test fires
    pixels = np.tile(np.arange(5, dtype=np.uint8) * 10, (5, 1))
    return GrayImage(pixels)


class TestTrain:
    def test_zero_samples_uniform_leaves(self):
        model = FernModel(grid_classes(3, 7), make_random_ferns(2, 4, 7, np.random.default_rng(0)))
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

        a = FernModel(classes, make_random_ferns(3, 4, 9, np.random.default_rng(1)))
        a.train(iter(samples))
        b = FernModel(classes, make_random_ferns(3, 4, 9, np.random.default_rng(1)))
        shuffled = list(samples)
        np.random.default_rng(9).shuffle(shuffled)
        b.train(iter(shuffled))

        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.log_table, b.log_table)

    def test_invalid_label(self):
        model = FernModel(grid_classes(2, 5), make_random_ferns(1, 2, 5, np.random.default_rng(0)))
        patch = GrayImage(np.zeros((5, 5), dtype=np.uint8))
        with pytest.raises(InvalidLabel):
            model.train([(patch, 2)])

    def test_undersized_patch(self):
        model = FernModel(grid_classes(2, 9), make_random_ferns(1, 2, 9, np.random.default_rng(0)))
        patch = GrayImage(np.zeros((5, 5), dtype=np.uint8))
        with pytest.raises(InvalidPatch):
            model.train([(patch, 0)])

    def test_training_is_resumable(self):
        rng = np.random.default_rng(6)
        classes = grid_classes(3, 9)
        patches = random_patches(rng, 40, 9)
        labels = rng.integers(0, 3, 40)
        samples = [(GrayImage(p), int(l)) for p, l in zip(patches, labels)]

        once = FernModel(classes, make_random_ferns(2, 3, 9, np.random.default_rng(2)))
        once.train(iter(samples))
        twice = FernModel(classes, make_random_ferns(2, 3, 9, np.random.default_rng(2)))
        twice.train(iter(samples[:17]))
        twice.train(iter(samples[17:]))
        assert np.array_equal(once.counts, twice.counts)
        assert np.array_equal(once.log_table, twice.log_table)

    def test_starting_counts(self, small_model):
        counts = small_model.counts.copy()
        model = FernModel(small_model.classes, small_model.ferns, counts)
        assert np.array_equal(model.log_table, small_model.log_table)
        counts[0, 0, 0] += 1  # the model keeps its own copy
        assert np.array_equal(model.counts, small_model.counts)
        with pytest.raises(InvalidArgument):
            FernModel(small_model.classes, small_model.ferns, counts[:2])

    def test_shard_merge_commutative(self):
        rng = np.random.default_rng(8)
        classes = grid_classes(3, 9)
        patches = random_patches(rng, 50, 9)
        labels = rng.integers(0, 3, 50)
        samples = [(GrayImage(p), int(l)) for p, l in zip(patches, labels)]

        def shard(subset):
            m = FernModel(classes, make_random_ferns(2, 3, 9, np.random.default_rng(4)))
            return m.train(iter(subset))

        full = shard(samples)
        a, b = shard(samples[:25]), shard(samples[25:])
        assert np.array_equal(a.merged(b).counts, full.counts)
        assert np.array_equal(b.merged(a).counts, a.merged(b).counts)

        # associativity over three shards
        x, y, z = shard(samples[:10]), shard(samples[10:30]), shard(samples[30:])
        left = x.merged(y).merged(z)
        right = x.merged(y.merged(z))
        assert np.array_equal(left.counts, right.counts)
        assert np.array_equal(left.counts, full.counts)


class TestClassify:
    def test_single_class_always_wins(self):
        classes = grid_classes(1, 7)
        model = FernModel(classes, make_random_ferns(2, 3, 7, np.random.default_rng(0)))
        img = GrayImage(random_patches(np.random.default_rng(1), 1, 7)[0])
        label, _ = model.classify(img, center_of(img))
        assert label == 0
        assert np.allclose(model.posterior(img, center_of(img)), [1.0])

    def test_hand_computed_two_class_posterior(self):
        model = two_class_m1_model()
        img = leaf1_patch()
        label, _ = model.classify(img, center_of(img))
        assert label == 1
        post = model.posterior(img, center_of(img))
        assert np.allclose(post, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)

    def test_symmetric_model_splits_evenly(self):
        model = two_class_m1_model()
        model.counts[0, :, 1] = model.counts[0, :, 0]
        model._rebuild_tables()
        img = leaf1_patch()
        assert np.allclose(model.posterior(img, center_of(img)), [0.5, 0.5])
        assert model.classify(img, center_of(img))[0] == 0  # tie goes low

    def test_untrained_model_scores_finite(self):
        model = FernModel(grid_classes(4, 9), make_random_ferns(3, 4, 9, np.random.default_rng(1)))
        img = GrayImage(random_patches(np.random.default_rng(2), 1, 9)[0])
        label, score = model.classify(img, center_of(img))
        assert 0 <= label < 4 and np.isfinite(score)

    def test_out_of_bounds_center(self):
        model = FernModel(grid_classes(2, 9), make_random_ferns(1, 2, 9, np.random.default_rng(0)))
        img = GrayImage(np.zeros((32, 32), dtype=np.uint8))
        with pytest.raises(OutOfBounds):
            model.classify(img, Keypoint(2, 2))

    def test_posterior_argmax_agrees_with_classify(self):
        rng = np.random.default_rng(10)
        classes = grid_classes(4, 9)
        model = FernModel(classes, make_random_ferns(3, 3, 9, rng))
        patches = random_patches(rng, 80, 9)
        labels = rng.integers(0, 4, 80)
        model.train([(GrayImage(p), int(l)) for p, l in zip(patches, labels)])
        for p in random_patches(rng, 50, 9):
            img = GrayImage(p)
            post = model.posterior(img, center_of(img))
            assert abs(post.sum() - 1.0) < 1e-12
            assert int(np.argmax(post)) == model.classify(img, center_of(img))[0]

    def test_batch_path_matches_scalar_path(self):
        rng = np.random.default_rng(11)
        model = FernModel(grid_classes(3, 11), make_random_ferns(4, 5, 11, rng))
        patches = random_patches(rng, 100, 11)
        labels = rng.integers(0, 3, 100)
        model.train([(GrayImage(p), int(l)) for p, l in zip(patches, labels)])
        probe = random_patches(np.random.default_rng(11), 30, 11)
        batch_labels, batch_scores = model.classify_patches(probe)
        for i in range(30):
            img = GrayImage(probe[i])
            label, score = model.classify(img, center_of(img))
            assert label == batch_labels[i]
            assert score == batch_scores[i]


class TestBruteForceOracle:
    def test_posterior_matches_exact_rationals(self):
        rng = np.random.default_rng(21)
        classes = grid_classes(3, 9)
        model = FernModel(classes, make_random_ferns(3, 3, 9, rng))
        patches = random_patches(rng, 90, 9)
        labels = rng.integers(0, 3, 90)
        model.train([(GrayImage(p), int(l)) for p, l in zip(patches, labels)])
        for p in random_patches(rng, 40, 9):
            got = model.posterior(GrayImage(p), Keypoint(4, 4))
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
        model = FernModel(grid_classes(4, 9), make_random_ferns(5, 4, 9, rng))
        img = GrayImage(random_patches(rng, 1, 9)[0])
        model.pixel_comparisons = 0
        model.table_lookups = 0
        model.classify(img, center_of(img))
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
        assert loaded.ferns == small_model.ferns

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
        # counts are the file's last section
        counts_start = len(data) - small_model.counts.size * 8
        data[counts_start : counts_start + 8] = (12345678).to_bytes(8, "little")
        with pytest.raises(CorruptModel):
            FernModel.load(bytes(data))

    def test_tables_are_rebuilt_from_counts(self, small_model):
        # a count moved between two leaves of one class keeps every total,
        # so the file loads, and its tables follow the moved count
        counts = small_model.counts.copy()
        src = int(np.argmax(counts[0, :, 0]))
        dst = (src + 1) % small_model.num_leaves
        counts[0, src, 0] -= 1
        counts[0, dst, 0] += 1
        data = bytearray(small_model.save())
        data[len(data) - counts.nbytes :] = counts.astype("<u8").tobytes()
        loaded = FernModel.load(bytes(data))
        assert np.array_equal(loaded.counts, counts)
        total = int(counts[0, :, 0].sum())
        for leaf in (src, dst):
            expected = (int(counts[0, leaf, 0]) + 1) / (total + small_model.num_leaves)
            assert np.isclose(np.exp(loaded.log_table[0, leaf, 0]), expected, rtol=1e-12)

    def test_averaging_fern_file_is_corrupt(self, small_model):
        data = bytearray(small_model.save())
        # header words follow the magic: version, classes, units, size,
        # patch, combination
        struct.pack_into("<I", data, 8 + 20, Combination.AVERAGE.value)
        with pytest.raises(CorruptModel):
            FernModel.load(bytes(data))

    def test_version_1_file_rejected(self, small_model):
        with pytest.raises(FormatError, match="version 1"):
            FernModel.load(v1_fern_file(small_model))


class TestTruncated:
    def test_prefix_shares_counts_and_tables(self, small_model):
        sub = small_model.truncated(3)
        assert sub.num_ferns == 3
        assert np.array_equal(sub.counts, small_model.counts[:3])
        assert np.array_equal(sub.log_table, small_model.log_table[:3])

    def test_bad_k(self, small_model):
        with pytest.raises(InvalidArgument):
            small_model.truncated(0)
        with pytest.raises(InvalidArgument):
            small_model.truncated(99)


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
        model = FernModel(grid_classes(3, 9), make_random_ferns(1, 4, 9, rng))
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
        assert hashlib.sha256(small_model.save()).hexdigest() == (
            "121a4ef1ae0f74fce1c24cd62115ca16bce9cd5ecb73d35a628574ef7bf25414"
        )

    def test_labels_and_scores(self, small_model):
        labels, scores = small_model.classify_patches(pin_probe(small_model.patch_size))
        assert sha256_of(labels.astype("<i8"), scores.astype("<f8")) == (
            "881a9720237f6054cff5e8c6354a1b46a57c49e661a2f7c2fe2bc835175c7011"
        )
