import re
import struct

import numpy as np
import pytest

from fernkit import (
    CorruptModel,
    FernModel,
    FormatError,
    GrayImage,
    InvalidArgument,
    TreeForest,
)
from fernkit.ferns import MAX_DEPTH, Combination, random_tests

from support import (
    WIDTH_WORD,
    accumulate_oracle,
    count_section,
    grid_classes,
    leaf_index_oracle,
    peak_traced_bytes,
    pin_probe,
    random_patches,
    sha256_of,
    tree_leaf_oracle,
)


def center_of(img):
    return img.width // 2, img.height // 2


def trained_forest(seed=3, t=3, depth=4, h=4, patch=9, n=120) -> TreeForest:
    rng = np.random.default_rng(seed)
    forest = TreeForest.random(grid_classes(h, patch), t, depth, rng)
    patches = random_patches(rng, n, patch)
    labels = rng.integers(0, h, n)
    forest.train([(GrayImage(p), int(l)) for p, l in zip(patches, labels)])
    return forest


class TestEvalTree:
    def test_constant_image_leftmost_leaf(self):
        rng = np.random.default_rng(0)
        forest = TreeForest.random(grid_classes(1, 9), 3, 4, rng)
        patches = np.full((1, 9, 9), 7, dtype=np.uint8)
        assert not forest.leaf_indices(patches).any()

    def test_path_oracle(self):
        rng = np.random.default_rng(1)
        forest = TreeForest.random(grid_classes(1, 11), 2, 5, rng)
        patches = random_patches(rng, 50, 11)
        leaves = forest.leaf_indices(patches)
        expected = [[tree_leaf_oracle(p, t) for t in forest.tests] for p in patches]
        assert np.array_equal(leaves, expected)

    def test_tree_with_shared_level_tests_equals_fern(self):
        # level l of the tree uses one test everywhere: exactly a fern
        rng = np.random.default_rng(2)
        depth = 5
        level_tests = random_tests(depth, 11, rng)
        # breadth-first: level l holds nodes 2^l - 1 to 2^(l+1) - 2
        nodes = np.repeat(level_tests, 1 << np.arange(depth), axis=0)
        classes = grid_classes(1, 11)
        patches = random_patches(rng, 200, 11)
        tree_leaves = TreeForest(classes, nodes[None]).leaf_indices(patches)
        fern_leaves = FernModel(classes, level_tests[None]).leaf_indices(patches)
        assert np.array_equal(tree_leaves, fern_leaves)
        assert np.array_equal(
            fern_leaves[:, 0], [leaf_index_oracle(p, level_tests) for p in patches]
        )

    def test_wrong_test_count_rejected(self):
        # 2^D - 1 node tests per tree: 2, 5 and 8 fit no depth
        for count in (2, 5, 8):
            tests = random_tests(count, 9, np.random.default_rng(3))
            with pytest.raises(InvalidArgument, match=f"tests, got {count}"):
                TreeForest(grid_classes(1, 9), tests[None])


class TestTrainForest:
    def test_zero_samples_uniform(self):
        rng = np.random.default_rng(4)
        forest = TreeForest.random(grid_classes(3, 9), 2, 3, rng)
        assert np.allclose(np.exp(forest.log_table), 1.0 / 8.0)

    def test_single_sample_counts(self):
        rng = np.random.default_rng(5)
        forest = TreeForest.random(grid_classes(3, 9), 2, 3, rng)
        patch = random_patches(rng, 1, 9)[0]
        forest.train([(GrayImage(patch), 0)])
        for t in range(2):
            leaf = tree_leaf_oracle(patch, forest.tests[t])
            expected = np.zeros((8, 3), dtype=np.uint64)
            expected[leaf, 0] = 1
            assert np.array_equal(forest.counts[t], expected)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        patches = random_patches(rng, 60, 9)
        labels = rng.integers(0, 3, 60)
        samples = [(GrayImage(p), int(l)) for p, l in zip(patches, labels)]

        a = TreeForest.random(grid_classes(3, 9), 2, 3, np.random.default_rng(7))
        a.train(iter(samples))
        shuffled = list(samples)
        np.random.default_rng(8).shuffle(shuffled)
        b = TreeForest.random(grid_classes(3, 9), 2, 3, np.random.default_rng(7))
        b.train(iter(shuffled))
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.log_table, b.log_table)

    def test_same_regularization_as_ferns(self):
        forest = trained_forest()
        n_per_class = forest.counts[0].sum(axis=0).astype(np.float64)
        expected = (forest.counts[1].astype(np.float64) + 1.0) / (
            n_per_class[None, :] + forest.num_leaves
        )
        assert np.allclose(np.exp(forest.log_table[1]), expected)


def forged_depth_file(forest: TreeForest, depth: int) -> bytes:
    """The forest's file with its header's depth word replaced."""
    data = bytearray(forest.save())
    struct.pack_into("<I", data, len(forest.magic) + 12, depth)
    return bytes(data)


def rigged_forest(posteriors: list[list[float]]) -> TreeForest:
    """Depth-1 forest whose per-tree class posterior is fixed everywhere.

    Every leaf of tree t carries the same class weights, so whatever leaf a
    patch reaches, the tree's (uniform-prior) posterior equals the target.
    """
    classes = grid_classes(len(posteriors[0]), 5)
    forest = TreeForest.random(classes, len(posteriors), 1, np.random.default_rng(0))
    for t, dist in enumerate(posteriors):
        forest.log_table[t, :, :] = np.log(np.array([dist, dist]))
    return forest


class TestClassifyForest:
    def test_single_tree_modes_agree(self):
        forest = trained_forest(t=1)
        probe = random_patches(np.random.default_rng(11), 100, 9)
        nb, _ = forest.classify_patches(probe, Combination.NAIVE_BAYES)
        avg, _ = forest.classify_patches(probe, Combination.AVERAGE)
        assert np.array_equal(nb, avg)

    @pytest.mark.parametrize(
        "posteriors,avg_winner,nb_winner",
        [
            ([[0.6, 0.4], [0.1, 0.9]], 1, 1),  # avg (.35,.65); nb (.06,.36)
            ([[0.9, 0.1], [0.35, 0.65]], 0, 0),  # avg (.625,.375); nb (.315,.065)
            # (.9,.1) with (.2,.8): avg (.55,.45); nb (.18,.08). Both class 0.
            # With two proper 2-class posteriors the modes cannot disagree:
            # a0+b0 > 1 iff a0*b0 > (1-a0)*(1-b0).
            ([[0.9, 0.1], [0.2, 0.8]], 0, 0),
            # three classes can split the modes: avg (.455,.2725,.2725) but
            # nb (.009,.024753,.024753), the tie broken toward class 1
            ([[0.9, 0.05, 0.05], [0.01, 0.495, 0.495]], 0, 1),
        ],
    )
    def test_hand_arithmetic(self, posteriors, avg_winner, nb_winner):
        forest = rigged_forest(posteriors)
        # two patches: one Naive-Bayes patch reads the counts, not the rigged table
        patches = random_patches(np.random.default_rng(12), 2, 5)
        avg_labels, avg_scores = forest.classify_patches(patches, Combination.AVERAGE)
        nb_labels, _ = forest.classify_patches(patches, Combination.NAIVE_BAYES)
        assert avg_labels.tolist() == [avg_winner] * 2
        assert nb_labels.tolist() == [nb_winner] * 2
        expected_avg = np.mean([p[avg_winner] for p in posteriors])
        assert np.allclose(avg_scores, expected_avg)

    def test_scalar_path_matches_batch(self):
        forest = trained_forest(t=4, depth=3)
        probe = random_patches(np.random.default_rng(13), 25, 9)
        batch_labels, batch_scores = forest.classify_patches(probe)
        for i in range(25):
            img = GrayImage(probe[i])
            label, score = forest.classify(img, *center_of(img))
            assert label == batch_labels[i]
            assert score == batch_scores[i]

    @pytest.mark.parametrize("combination", list(Combination))
    def test_posterior_agrees_with_classify(self, combination):
        forest = trained_forest(t=4, depth=3)
        forest.combination = combination
        for p in random_patches(np.random.default_rng(16), 20, 9):
            img = GrayImage(p)
            post = forest.posterior(img, *center_of(img))
            assert abs(post.sum() - 1.0) < 1e-12
            assert int(np.argmax(post)) == forest.classify(img, *center_of(img))[0]

    def test_cost_counter(self):
        forest = trained_forest(t=3, depth=4)
        forest.pixel_comparisons = 0
        forest.classify_patches(random_patches(np.random.default_rng(14), 10, 9))
        assert forest.pixel_comparisons == 10 * 3 * 4


class TestForestInvariants:
    def test_leaf_distribution_normalized(self):
        forest = trained_forest()
        sums = np.exp(forest.log_table).sum(axis=1)
        assert np.all(np.abs(sums - 1.0) < 1e-9)

    def test_count_conservation(self):
        forest = trained_forest()
        totals = forest.counts.sum(axis=1)
        assert np.all(totals == totals[0])


class TestForestSerialization:
    def test_round_trip(self):
        forest = trained_forest(t=3, depth=4)
        forest.combination = Combination.NAIVE_BAYES
        data = forest.save()
        loaded = TreeForest.load(data)
        assert loaded.save() == data
        assert loaded.combination is Combination.NAIVE_BAYES
        assert loaded.tests.tobytes() == forest.tests.tobytes()
        probe = random_patches(np.random.default_rng(15), 50, 9)
        assert np.array_equal(
            loaded.classify_patches(probe)[0], forest.classify_patches(probe)[0]
        )

    def test_fern_magic_rejected(self, small_model):
        with pytest.raises(FormatError):
            TreeForest.load(small_model.save())

    def test_truncated_file(self):
        data = trained_forest().save()
        with pytest.raises(FormatError):
            TreeForest.load(data[:-4])

    def test_corrupt_counts(self):
        forest = trained_forest()
        data = bytearray(forest.save())
        start, width = count_section(data, forest)
        data[start : start + width] = (200).to_bytes(width, "little")
        with pytest.raises(CorruptModel):
            TreeForest.load(bytes(data))

    @pytest.mark.parametrize(
        "value, width", [(255, 1), (256, 2), (65535, 2), (65536, 4), (2**32 - 1, 4), (2**32, 8)]
    )
    def test_narrowest_width_round_trip(self, value, width):
        trained = trained_forest(t=1, depth=3)
        counts = trained.counts.astype(np.uint64)
        counts[0, 5, 2] = value
        forest = TreeForest(trained.classes, trained.tests, trained.combination, counts)
        data = forest.save()
        assert struct.unpack_from("<I", data, WIDTH_WORD) == (width,)
        loaded = TreeForest.load(data)
        assert np.array_equal(loaded.counts, forest.counts)
        assert loaded.log_table.tobytes() == forest.log_table.tobytes()
        probe = random_patches(np.random.default_rng(16), 50, 9)
        for combination in Combination:
            a = forest.classify_patches(probe, combination)
            b = loaded.classify_patches(probe, combination)
            assert np.array_equal(a[0], b[0]) and a[1].tobytes() == b[1].tobytes()

    @pytest.mark.parametrize("extra, width", [(0, 1), (1000, 2), (70000, 4), (2**33, 8)])
    def test_loaded_tables_equal_a_forest_built_from_uint64_counts(self, extra, width):
        forest = trained_forest(t=3, depth=4)
        # uint64, so the added counts cannot wrap at the trained u8 width
        counts = forest.counts.astype(np.uint64)
        counts[:, 0, 0] += np.uint64(extra)  # in every unit, so totals agree
        for combination in Combination:
            built = TreeForest(forest.classes, forest.tests, combination, counts)
            data = built.save()
            assert struct.unpack_from("<I", data, WIDTH_WORD) == (width,)
            loaded = TreeForest.load(data)
            assert loaded.combination is combination
            assert loaded.counts.dtype == np.dtype(f"u{width}")
            assert loaded.counts.flags.c_contiguous
            assert np.array_equal(loaded.counts, counts)
            assert loaded.log_table.tobytes() == built.log_table.tobytes()

    def test_disagreeing_totals_rejected_before_any_table(self):
        forest = TreeForest.random(grid_classes(400, 9), 4, 6, np.random.default_rng(0))
        data = bytearray(forest.save())
        start, _ = count_section(data, forest)
        data[start] = 1  # a sample that only tree 0 saw
        blob = bytes(data)

        def load():
            with pytest.raises(CorruptModel, match="totals disagree"):
                TreeForest.load(blob)

        # the uint64 copy of the counts is as large as the table would be
        assert peak_traced_bytes(load) < 1.5 * forest.log_table.nbytes

    @pytest.mark.parametrize("width", [0, 3, 16])
    def test_unknown_width_is_a_format_error(self, width):
        data = bytearray(trained_forest().save())
        struct.pack_into("<I", data, WIDTH_WORD, width)
        with pytest.raises(FormatError, match="count width"):
            TreeForest.load(bytes(data))

    def test_accumulate_matches_per_unit_oracle(self):
        forest = trained_forest(t=4, depth=3)
        rng = np.random.default_rng(17)
        patches = np.repeat(random_patches(rng, 5, 9), 7, axis=0)
        labels = rng.integers(0, 4, 35)
        want = accumulate_oracle(forest, patches, labels)
        forest._accumulate(patches, labels)
        assert np.array_equal(forest.counts, want)

    @pytest.mark.parametrize("depth", [62, 63, 64, 2**32 - 1])
    def test_oversized_depth_is_a_format_error(self, depth):
        with pytest.raises(FormatError):
            TreeForest.load(forged_depth_file(trained_forest(), depth))


class TestDepthBound:
    """One depth bound, ``MAX_DEPTH``, holds on load, on construction and on
    a random fern or tree draw, which checks it before it draws a test."""

    @pytest.mark.parametrize("kind", [FernModel, TreeForest])
    def test_load(self, small_model, kind):
        data = bytearray(small_model.save() if kind is FernModel else trained_forest().save())
        struct.pack_into("<I", data, len(kind.magic) + 12, MAX_DEPTH + 1)
        with pytest.raises(FormatError, match=f"depth {MAX_DEPTH + 1} exceeds {MAX_DEPTH}"):
            kind.load(bytes(data))

    def test_construction(self):
        tests = random_tests(MAX_DEPTH + 1, 9, np.random.default_rng(0))
        with pytest.raises(InvalidArgument, match=f"depth {MAX_DEPTH + 1} exceeds"):
            FernModel(grid_classes(2, 9), tests[None])

    # the shallowest depth whose units hold the tests: a fern's count, a
    # tree's bit length, with no cap on the depth the error names
    @pytest.mark.parametrize("kind, per_unit, message", [
        (FernModel, 100, "unit depth 100 exceeds 63"),
        (TreeForest, 4, "a depth-3 unit needs 7 tests, got 4"),
        (TreeForest, 100, "a depth-7 unit needs 127 tests, got 100"),
    ])
    def test_depth_of_a_test_count(self, kind, per_unit, message):
        tests = random_tests(per_unit, 9, np.random.default_rng(0))
        with pytest.raises(InvalidArgument, match=f"^{message}$"):
            kind(grid_classes(2, 9), tests[None])

    # 2 x (2^40 - 1) tests are 64 TiB and 2 x (2^56 - 1) are 4 EiB: too
    # large to allocate, so the draw fails before its first test
    @pytest.mark.parametrize("depth", [-1, 0, MAX_DEPTH + 1, 40, 56])
    def test_random_trees_draw_no_test(self, depth):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        if 1 <= depth <= MAX_DEPTH:
            message = f"cannot allocate {2 * ((1 << depth) - 1)} tests"
        else:
            message = re.escape(f"depth must be an integer in [1, {MAX_DEPTH}], got {depth}")
        with pytest.raises(InvalidArgument, match=f"^{message}$"):
            TreeForest.random(grid_classes(2, 9), 2, depth, rng)
        assert rng.bit_generator.state == state

    # the error names the size that breaks its rule, and its value
    @pytest.mark.parametrize("units, depth, message", [
        pytest.param(units, depth, message, id=f"{units}-{depth}")
        for units, depth, message in [
            (0, 4, "units must be an integer >= 1, got 0"),
            (2, 0, "depth must be an integer in [1, 63], got 0"),
            (2, MAX_DEPTH + 1, "depth must be an integer in [1, 63], got 64"),
            (2, 10**6, "depth must be an integer in [1, 63], got 1000000"),
            (2.0, 4, "units must be an integer >= 1, got 2.0"),
            (2, 4.0, "depth must be an integer in [1, 63], got 4.0"),
            (True, 4, "units must be an integer >= 1, got True"),
            (2, None, "depth must be an integer in [1, 63], got None"),
        ]
    ])
    def test_random_ferns_draw_no_test(self, units, depth, message):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(InvalidArgument, match=f"^{re.escape(message)}$"):
            FernModel.random(grid_classes(2, 9), units, depth, rng)
        assert rng.bit_generator.state == state

    # 2 x 2^56 x 4 counts are 512 PiB, more than a 57-bit address space
    # holds; 2 x 2^62 x 4 are past numpy's size limit
    @pytest.mark.parametrize("m, cause", [(56, MemoryError), (62, ValueError)])
    def test_counts_past_memory_are_an_invalid_argument(self, m, cause):
        with pytest.raises(InvalidArgument, match=rf"shape \(2, {1 << m}, 4\)") as info:
            FernModel.random(grid_classes(4, 9), 2, m, np.random.default_rng(0))
        assert isinstance(info.value.__context__, cause)


class TestTruncatedForest:
    def test_prefix(self):
        forest = trained_forest(t=5)
        sub = forest.truncated(2)
        assert sub.num_units == 2
        assert np.array_equal(sub.counts, forest.counts[:2])
        assert np.array_equal(sub.log_table, forest.log_table[:2])


class TestGoldenPins:
    """Exact tables and decisions of the small fixture forest."""

    def test_counts_and_tables(self, small_forest):
        assert sha256_of(small_forest.counts.astype("<u8")) == (
            "94f43b475f5ec788ca7401aa013caa418cd1ca3c8ad0969e2ceafe7013a6a1c3"
        )
        assert sha256_of(small_forest.log_table.astype("<f8")) == (
            "6e9f22a401943f0db4c77577d301f529446ce100873b26e8789a930aa3c4a4ac"
        )

    @pytest.mark.parametrize(
        "combination, digest",
        [
            (
                Combination.AVERAGE,
                "b78b0ad3f5e4c9afc9b2374a515cf4aa9dbd5a0198ef7af33809b2fe731629c9",
            ),
            (
                Combination.NAIVE_BAYES,
                "c938d6806a126880970e22cfaa85625dec0b8ebdac9ff13a5bf03ba136ccf84d",
            ),
        ],
    )
    def test_labels_and_scores(self, small_forest, combination, digest):
        probe = pin_probe(small_forest.patch_size)
        labels, scores = small_forest.classify_patches(probe, combination)
        assert sha256_of(labels.astype("<i8"), scores.astype("<f8")) == digest
