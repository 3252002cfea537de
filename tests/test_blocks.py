"""Block-wise classification and synthesis: exact at block edges, bounded memory.

``classify_patches`` scores ``PATCH_BLOCK`` patches at a time, each block in
steps of ``PATCH_BLOCK // k`` units, and ``warp_image``/``add_noise`` work on
``PIXEL_BLOCK`` pixels at a time. These tests pin that the blocks and steps
change no output bit and that no temporary grows with the batch or the frame.
"""

import numpy as np
import pytest

from fernkit import (
    AffineDeform,
    FernModel,
    GrayImage,
    TreeForest,
    add_noise,
    warp_image,
)
from fernkit.dataset import RESERVED_BYTES, sample_batches
from fernkit.ferns import PATCH_BLOCK, Combination
from fernkit.image import PIXEL_BLOCK, _pixel_blocks
from fernkit.keypoints import detect_keypoints

from support import (
    add_noise_oracle,
    cached,
    grid_classes,
    peak_traced_bytes,
    random_patches,
    scores_oracle,
    stepwise_average_oracle,
    warp_image_oracle,
    with_counts,
)

PATCH = 9
BATCH_SIZES = [0, 1, PATCH_BLOCK - 1, PATCH_BLOCK, PATCH_BLOCK + 1, 2 * PATCH_BLOCK + 3]


def trained(kind: str, combination: Combination, h: int = 5, units: int = 4):
    """A small fern model or forest trained on noise patches, fused by
    ``combination`` (also a fern model's, so classify and posterior use it)."""
    rng = np.random.default_rng(3)
    classes = grid_classes(h, PATCH)
    if kind == "fern":
        model = FernModel.random(classes, units, 5, rng)
    else:
        model = TreeForest.random(classes, units, 4, rng, combination)
    patches = random_patches(rng, 300, PATCH)
    labels = rng.integers(0, h, 300)
    model.train([(GrayImage(p), int(l)) for p, l in zip(patches, labels)])
    model.combination = combination
    return model


MODELS = [
    ("fern", Combination.NAIVE_BAYES),
    ("fern", Combination.AVERAGE),
    ("tree", Combination.NAIVE_BAYES),
    ("tree", Combination.AVERAGE),
]


def per_patch(model, patches):
    """Labels and scores from one classify call per patch."""
    centre = (PATCH // 2, PATCH // 2)
    pairs = [model.classify(GrayImage(p), *centre) for p in patches]
    labels = np.array([label for label, _ in pairs], dtype=np.intp)
    scores = np.array([score for _, score in pairs])
    return labels, scores


def centred(patches: np.ndarray) -> np.ndarray:
    """The centred PATCH x PATCH windows of larger patches, copied."""
    h, w = patches.shape[1:]
    top, left = h // 2 - PATCH // 2, w // 2 - PATCH // 2
    return np.ascontiguousarray(patches[:, top : top + PATCH, left : left + PATCH])


class TestReadPathBlocks:
    @pytest.mark.parametrize("kind,combination", MODELS)
    @pytest.mark.parametrize("n", BATCH_SIZES)
    def test_blocks_equal_per_patch_classify(self, kind, combination, n):
        model = trained(kind, combination)
        patches = random_patches(np.random.default_rng(n), n, PATCH)
        labels, scores = model.classify_patches(patches)
        assert labels.dtype == np.intp and scores.dtype == np.float64
        assert labels.shape == scores.shape == (n,)
        expected_labels, expected_scores = per_patch(model, patches)
        assert np.array_equal(labels, expected_labels)
        assert scores.tobytes() == expected_scores.tobytes()

    @pytest.mark.parametrize("kind,combination", MODELS)
    def test_blocks_equal_per_patch_posterior(self, kind, combination):
        model = trained(kind, combination)
        patches = random_patches(np.random.default_rng(7), PATCH_BLOCK + 1, PATCH)
        labels, scores = model.classify_patches(patches)
        centre = (PATCH // 2, PATCH // 2)
        for i in (0, PATCH_BLOCK - 1, PATCH_BLOCK):
            post = model.posterior(GrayImage(patches[i]), *centre)
            assert int(np.argmax(post)) == labels[i]
            if combination is Combination.AVERAGE:
                assert post[labels[i]] == scores[i]

    @pytest.mark.parametrize("kind,combination", MODELS)
    def test_oversized_even_patches_read_their_centred_window(self, kind, combination):
        model = trained(kind, combination)
        big = random_patches(np.random.default_rng(8), PATCH_BLOCK + 5, PATCH + 3)
        big = np.ascontiguousarray(big[:, :, : PATCH + 1])  # 12 x 10
        labels, scores = model.classify_patches(big)
        expected_labels, expected_scores = model.classify_patches(centred(big))
        assert np.array_equal(labels, expected_labels)
        assert scores.tobytes() == expected_scores.tobytes()
        assert np.array_equal(model.leaf_indices(big), model.leaf_indices(centred(big)))
        img = GrayImage(big[PATCH_BLOCK + 2])
        centre = (img.width // 2, img.height // 2)
        assert model.classify(img, *centre) == (
            labels[PATCH_BLOCK + 2], scores[PATCH_BLOCK + 2]
        )

    @pytest.mark.parametrize("kind,combination", MODELS)
    def test_strided_batches_equal_contiguous_copies(self, kind, combination):
        model = trained(kind, combination)
        base = random_patches(np.random.default_rng(9), 2 * PATCH_BLOCK + 6, PATCH + 4)
        for view in (base[::2], base[:, 1 : 1 + PATCH, 3 : 3 + PATCH], base[::-3, ::-1]):
            assert not view.flags.c_contiguous
            labels, scores = model.classify_patches(view)
            expected_labels, expected_scores = model.classify_patches(centred(view))
            assert np.array_equal(labels, expected_labels)
            assert scores.tobytes() == expected_scores.tobytes()

    @pytest.mark.parametrize("kind", ["fern", "tree"])
    def test_counters_see_every_patch_of_every_block(self, kind):
        model = trained(kind, Combination.NAIVE_BAYES)
        n = 3 * PATCH_BLOCK + 10
        model.pixel_comparisons = model.table_lookups = 0
        model.classify_patches(random_patches(np.random.default_rng(10), n, PATCH))
        units, depth = 4, (5 if kind == "fern" else 4)
        assert model.pixel_comparisons == n * units * depth
        assert model.table_lookups == n * units


# With 30 units, blocks of 7, 8 and 9 patches take steps of 36, 32 and 28
# units (all of them, or 28 then 2), blocks of 29 to 31 take steps of 8 (the
# last one of 6), and blocks of 255 or more take one unit per step.
ORACLE_SIZES = [1, 2, 3, 7, 8, 9, 29, 30, 31, 255, 256, 257]
ORACLE_UNITS = 30


def first_max(row: list[float]) -> int:
    return row.index(max(row))


class TestUnitSteps:
    """Scores equal one sequential float64 sum per class, unit by unit."""

    @pytest.mark.parametrize("kind,combination", MODELS)
    @pytest.mark.parametrize("n", ORACLE_SIZES)
    def test_scores_equal_sequential_sum_oracle(self, kind, combination, n):
        model = trained(kind, combination, units=ORACLE_UNITS)
        patches = random_patches(np.random.default_rng(100 + n), n, PATCH)
        model.pixel_comparisons = model.table_lookups = 0
        labels, scores = model.classify_patches(patches)
        depth = 5 if kind == "fern" else 4
        assert model.table_lookups == n * ORACLE_UNITS
        assert model.pixel_comparisons == n * ORACLE_UNITS * depth
        expected = scores_oracle(model, patches, combination)
        assert labels.tolist() == [first_max(row) for row in expected]
        best = np.array([row[first_max(row)] for row in expected])
        assert scores.tobytes() == best.tobytes()

    @pytest.mark.parametrize("kind,combination", MODELS)
    def test_posterior_equals_sequential_sum_oracle(self, kind, combination):
        model = trained(kind, combination, units=ORACLE_UNITS)
        patches = random_patches(np.random.default_rng(11), 3, PATCH)
        centre = (PATCH // 2, PATCH // 2)
        for patch, row in zip(patches, scores_oracle(model, patches, combination)):
            expected = np.array(row)
            if combination is Combination.NAIVE_BAYES:
                p = np.exp(expected - expected.max())
                expected = p / p.sum()
            post = model.posterior(GrayImage(patch), *centre)
            assert post.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", ["fern", "tree"])
    def test_one_class_sums_in_unit_order(self, kind):
        # a lone column would be summed pairwise by a reduction; the scores
        # must still be the sequential sums
        model = trained(kind, Combination.NAIVE_BAYES, h=1, units=ORACLE_UNITS)
        patches = random_patches(np.random.default_rng(12), 9, PATCH)
        expected = [row[0] for row in scores_oracle(model, patches, Combination.NAIVE_BAYES)]
        assert per_patch(model, patches)[1].tobytes() == np.array(expected).tobytes()
        assert model.classify_patches(patches)[1].tobytes() == np.array(expected).tobytes()


def rebuilt(model):
    """A fresh model over ``model``'s tests and a copy of its counts."""
    return with_counts(model, model.counts.copy())


class TestCachedPosteriors:
    """Averaging adds per-unit posteriors built once per model; the scores
    are the bytes of the scorer that put every step's rows through a softmax."""

    @pytest.mark.parametrize("kind", ["fern", "tree"])
    @pytest.mark.parametrize("h,n", [(5, 1), (5, 3), (5, PATCH_BLOCK), (5, 300), (1, 9)])
    def test_scores_equal_per_step_softmax_oracle(self, kind, h, n):
        model = trained(kind, Combination.AVERAGE, h=h)
        patches = random_patches(np.random.default_rng(n), n, PATCH)
        labels, scores = model.classify_patches(patches)
        expected_labels, expected_scores = stepwise_average_oracle(model, patches)
        assert np.array_equal(labels, expected_labels)
        assert scores.tobytes() == expected_scores.tobytes()
        assert per_patch(model, patches)[1].tobytes() == expected_scores.tobytes()

    @pytest.mark.parametrize("kind", ["fern", "tree"])
    def test_built_on_the_first_averaging_call_only(self, kind):
        model = trained(kind, Combination.NAIVE_BAYES)
        patches = random_patches(np.random.default_rng(6), 300, PATCH)
        model.classify_patches(patches)
        per_patch(model, patches[:3])
        model.posterior(GrayImage(patches[0]), PATCH // 2, PATCH // 2)
        loaded = type(model).load(model.save())
        loaded.classify_patches(patches)
        assert cached(model, "_unit_posteriors") is None
        assert cached(loaded, "_unit_posteriors") is None
        model.classify_patches(patches, Combination.AVERAGE)
        table = cached(model, "_unit_posteriors")
        assert table.shape == (model.log_table.size // model.num_classes, model.num_classes)
        model.classify_patches(patches[:3], Combination.AVERAGE)
        assert cached(model, "_unit_posteriors") is table

    @pytest.mark.parametrize("kind", ["fern", "tree"])
    def test_no_stale_table_after_train_or_truncated(self, kind):
        model = trained(kind, Combination.NAIVE_BAYES)
        rng = np.random.default_rng(9)
        patches = random_patches(rng, 300, PATCH)

        def averaged(m):
            labels, scores = m.classify_patches(patches, Combination.AVERAGE)
            return labels.tobytes(), scores.tobytes()

        before = averaged(model)  # builds the table from the first counts
        more = random_patches(rng, 200, PATCH)
        model.train(zip(more, rng.integers(0, model.num_classes, 200).tolist()))
        after = averaged(model)
        assert after != before and after == averaged(rebuilt(model))
        truncated = model.truncated(2)
        assert averaged(truncated) == averaged(rebuilt(truncated))


class TestBoundedMemory:
    def test_classify_patches_holds_no_batch_sized_scores(self):
        h, n = 200, 8 * PATCH_BLOCK
        model = FernModel.random(grid_classes(h, PATCH), 10, 6, np.random.default_rng(0))
        patches = random_patches(np.random.default_rng(1), n, PATCH)
        peak = peak_traced_bytes(lambda: model.classify_patches(patches))
        assert peak < n * h * 8

    @pytest.mark.parametrize("n", [1, 2 * PATCH_BLOCK])
    def test_gather_scratch_is_at_most_one_block(self, monkeypatch, n):
        # more units than a block has rows: a scratch sized units x patches
        # would hold 3 x PATCH_BLOCK rows for one patch
        h, units = 100, 3 * PATCH_BLOCK
        model = FernModel.random(grid_classes(h, PATCH), units, 1, np.random.default_rng(0))
        patches = random_patches(np.random.default_rng(1), n, PATCH)
        scratch = []
        score_block = model._score_block

        def spy(block, combination, scores, rows):
            scratch.append(rows.nbytes)
            score_block(block, combination, scores, rows)

        monkeypatch.setattr(model, "_score_block", spy)
        model.classify_patches(patches)
        assert scratch and max(scratch) <= PATCH_BLOCK * h * 8
        if n == 1:
            # a one-patch call holds its score row, the scratch and small
            # index arrays, nothing as large as units x classes
            img, centre = GrayImage(patches[0]), (PATCH // 2, PATCH // 2)
            peak = peak_traced_bytes(lambda: model.classify(img, *centre))
            assert peak < 1.25 * (PATCH_BLOCK + 1) * h * 8

    def test_one_patch_classify_skips_the_batch_loop(self, monkeypatch):
        model = trained("fern", Combination.NAIVE_BAYES)
        patch = random_patches(np.random.default_rng(4), 1, PATCH)[0]
        img, centre = GrayImage(patch), (PATCH // 2, PATCH // 2)
        labels, scores = model.classify_patches(patch)

        def batch(*args, **kwargs):
            raise AssertionError("classify ran classify_patches")

        monkeypatch.setattr(model, "classify_patches", batch)
        label, score = model.classify(img, *centre)
        assert (label, np.float64(score).tobytes()) == (labels[0], scores[:1].tobytes())

    def test_response_map_overwrites_its_temporaries(self):
        w, h = 640, 480
        img = GrayImage(np.random.default_rng(5).integers(0, 256, (h, w)).astype(np.uint8))
        # the contrast, its window sums and their maxima are narrow integer
        # frames, and only the kept keypoints get a float
        peak = peak_traced_bytes(lambda: detect_keypoints(img, 800, 31))
        assert peak < 2 * w * h * 8

    @pytest.mark.parametrize("masked", [False, True])
    def test_warp_image_holds_no_frame_sized_floats(self, masked):
        w, h = 640, 480
        src = GrayImage(np.random.default_rng(2).integers(0, 256, (h, w)).astype(np.uint8))
        d = AffineDeform(0.4, 1.1, 0.8, 1.3, tx=w / 2, ty=h / 2)
        mask = None
        if masked:
            mask = np.zeros((h, w), dtype=bool)
            mask[::2] = True  # half the frame
        peak = peak_traced_bytes(lambda: warp_image(src, d, w, h, mask=mask))
        assert peak < w * h * 8

    def test_a_stacked_stream_holds_one_copy(self):
        # a stream of fresh view-sized blocks, as a test set arrives: each is
        # copied into the stack as it comes, not kept until the stream ends
        views, k, p = 240, 128, 31

        def blocks():
            rng = np.random.default_rng(6)
            for _ in range(views):
                yield rng.integers(0, 256, (k, p, p), dtype=np.uint8), rng.integers(0, 50, k)

        stacked = []
        peak = peak_traced_bytes(lambda: stacked.extend(sample_batches(blocks())))
        [(patches, labels)] = stacked
        assert patches.shape == (views * k, p, p) and labels.size == views * k
        # tracemalloc counts the stack's first RESERVED_BYTES of room whole,
        # written or not, so the stream must be larger than 2/3 of it
        assert RESERVED_BYTES < 1.5 * patches.nbytes
        assert peak < 1.5 * patches.nbytes

    def test_add_noise_holds_no_frame_sized_floats(self):
        w, h = 640, 480
        img = GrayImage(np.full((h, w), 128, dtype=np.uint8))
        rng = np.random.default_rng(3)
        peak = peak_traced_bytes(lambda: add_noise(img, 10.0, rng))
        assert peak < w * h * 8


# frame shapes around and across the pixel block: 1x1, 1xN, Nx1, one pixel
# past a block, and the scene size
FRAMES = [(1, 1), (1, 37), (29, 1), (1, PIXEL_BLOCK + 1), (3, 2731), (480, 640)]


class TestSynthesisOracles:
    @pytest.mark.parametrize("h,w", FRAMES)
    @pytest.mark.parametrize("masked", [False, True])
    def test_blocked_warp_equals_whole_frame_render(self, h, w, masked):
        rng = np.random.default_rng(h * 1000 + w)
        src = GrayImage(rng.integers(0, 256, (max(h, 2), max(w, 2))).astype(np.uint8))
        d = AffineDeform(0.3, 0.9, 0.85, 1.2, tx=src.width / 2, ty=src.height / 2)
        mask = rng.random((h, w)) < 0.4 if masked else None
        got = warp_image(src, d, w, h, mask=mask).pixels
        assert got.tobytes() == warp_image_oracle(src, d, w, h, mask=mask).tobytes()

    @pytest.mark.parametrize("h,w", FRAMES)
    def test_blocked_noise_equals_one_whole_frame_draw(self, h, w):
        img = GrayImage(np.random.default_rng(w).integers(0, 256, (h, w)).astype(np.uint8))
        got = add_noise(img, 12.5, np.random.default_rng(h + w))
        expected = add_noise_oracle(img.pixels, 12.5, np.random.default_rng(h + w))
        assert got.pixels.tobytes() == expected.tobytes()


class TestLeanRender:
    """Only pixels that map onto the source are sampled, from a copy padded
    by one edge column and row; masked renders walk fixed runs of the frame."""

    @pytest.mark.parametrize("shift", [(0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (-0.5, -0.5)])
    @pytest.mark.parametrize("masked", [False, True])
    def test_coordinates_exactly_on_the_source_edges(self, shift, masked):
        # an identity warp samples x = 0 .. w - 1 and y = 0 .. h - 1 exactly;
        # a half-pixel shift keeps the other axis exact and moves one edge out
        rng = np.random.default_rng(7)
        h, w = 23, 31
        src = GrayImage(rng.integers(0, 256, (h, w)).astype(np.uint8))
        cx, cy = src.center
        d = AffineDeform(0, 0, 1, 1, tx=cx + shift[0], ty=cy + shift[1])
        mask = rng.random((h, w)) < 0.7 if masked else None
        got = warp_image(src, d, w, h, mask=mask).pixels
        assert got.tobytes() == warp_image_oracle(src, d, w, h, mask=mask).tobytes()
        if shift == (0.0, 0.0):
            selected = np.ones((h, w), dtype=bool) if mask is None else mask
            assert np.array_equal(got[selected], src.pixels[selected])

    @pytest.mark.parametrize("h,w", [(1, 1), (1, 9), (9, 1)])
    @pytest.mark.parametrize("masked", [False, True])
    def test_one_pixel_wide_or_tall_sources(self, h, w, masked):
        rng = np.random.default_rng(h * 10 + w)
        src = GrayImage(rng.integers(0, 256, (h, w)).astype(np.uint8))
        cx, cy = src.center
        deforms = [
            AffineDeform(0, 0, 1, 1, tx=cx, ty=cy),
            AffineDeform(0.3, 0.9, 0.85, 1.2, tx=cx, ty=cy),
            AffineDeform(0, 0, 0.5, 0.5, tx=cx, ty=cy),
        ]
        for d in deforms:
            for out_w, out_h in ((w, h), (w + 4, h + 4)):
                mask = rng.random((out_h, out_w)) < 0.6 if masked else None
                got = warp_image(src, d, out_w, out_h, mask=mask).pixels
                want = warp_image_oracle(src, d, out_w, out_h, mask=mask)
                assert got.tobytes() == want.tobytes()

    def test_masked_walk_is_fixed_runs(self):
        h, w = 160, 240
        rng = np.random.default_rng(11)
        mask = rng.random((h, w)) < rng.uniform(0.0, 1.0, (h, 1))  # uneven rows
        blocks = list(_pixel_blocks(mask, h, w))
        assert len(blocks) >= 2
        assert np.array_equal(np.concatenate(blocks), np.flatnonzero(mask))
        assert max(b.size for b in blocks) <= PIXEL_BLOCK
        # each block within one run of 4 * PIXEL_BLOCK frame pixels
        assert all(b[0] // (4 * PIXEL_BLOCK) == b[-1] // (4 * PIXEL_BLOCK) for b in blocks)
        src = GrayImage(rng.integers(0, 256, (h, w)).astype(np.uint8))
        d = AffineDeform(0.5, 1.3, 0.9, 1.1, tx=w / 2, ty=h / 2)
        got = warp_image(src, d, w, h, mask=mask).pixels
        assert got.tobytes() == warp_image_oracle(src, d, w, h, mask=mask).tobytes()

    def test_a_row_of_more_than_a_block_is_split(self):
        h, w = 3, 2 * PIXEL_BLOCK + 5
        rng = np.random.default_rng(12)
        mask = rng.random((h, w)) < 0.1
        mask[1] = True
        blocks = list(_pixel_blocks(mask, h, w))
        assert np.array_equal(np.concatenate(blocks), np.flatnonzero(mask))
        assert max(b.size for b in blocks) <= PIXEL_BLOCK
        # row 1's 2 * PIXEL_BLOCK + 5 pixels span at least three blocks
        assert sum(np.any(b // w == 1) for b in blocks) >= 3
        src = GrayImage(rng.integers(0, 256, (8, w // 2)).astype(np.uint8))
        d = AffineDeform(0.01, 0.0, 1.0, 1.0, tx=src.width / 2, ty=src.height / 2)
        got = warp_image(src, d, w, h, mask=mask).pixels
        assert got.tobytes() == warp_image_oracle(src, d, w, h, mask=mask).tobytes()
