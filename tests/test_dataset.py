import io
import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from fernkit import (
    AffineDeform,
    ClassSet,
    DatasetSpec,
    FernModel,
    GenStats,
    GrayImage,
    InvalidArgument,
    InvalidLabel,
    InvalidPatch,
    Keypoint,
    make_random_ferns,
)
from fernkit import dataset
from fernkit.dataset import (
    STREAM_MODEL,
    STREAM_TEST,
    STREAM_TRAIN,
    View,
    _blocks,
    _windows,
    derive_rng,
    extract_patches,
    generate_test_set,
    generate_training_set,
    manifest_row,
    protocol_view,
    read_manifest,
    sample_batches,
    stream_digest,
    training_views,
    write_manifest,
)
from fernkit.dataset import test_views as render_test_views
from fernkit.evaluate import materialize
from fernkit.image import BACKGROUND, add_noise, read_pgm, warp_image, warp_points

from support import extract_patches_oracle, grid_classes, random_patches, window_mask_oracle


def identity_for(img):
    cx, cy = img.center
    return AffineDeform(0, 0, 1, 1, tx=cx, ty=cy)


def rendered(img, spec, seed, stream, deforms, classes=None):
    """The views of ``stream`` with ``deforms`` in place of the drawn ones,
    rendered as its iterator renders them (only kept windows with ``classes``)."""
    return [
        dataset._render(img, *dataset._view_params(img, spec, seed, stream, i, d), classes)
        for i, d in enumerate(deforms)
    ]


class TestSpecCounts:
    def test_training_view_count(self, texture_small, small_classes):
        spec = DatasetSpec(views_per_degree=2, rotation_degrees=15, test_views=0)
        stats = GenStats()
        list(generate_training_set(texture_small, small_classes, spec, 3, stats=stats))
        assert stats.views == 30

    def test_test_view_count(self, texture_small, small_classes):
        spec = DatasetSpec(1, 1, test_views=25, noise_sigma=5.0)
        stats = GenStats()
        list(generate_test_set(texture_small, small_classes, spec, 3, stats=stats))
        assert stats.views == 25

    def test_negative_counts_rejected(self):
        with pytest.raises(InvalidArgument):
            DatasetSpec(views_per_degree=-1)

    @pytest.mark.parametrize("sigma", [-1.0, math.nan, math.inf])
    def test_negative_or_non_finite_noise_rejected(self, sigma):
        with pytest.raises(InvalidArgument):
            DatasetSpec(1, noise_sigma=sigma)


class TestDegenerateIdentity:
    def test_identity_views_equal_reference_crops(self, texture_small, small_classes):
        spec = DatasetSpec(1, 1, test_views=0)
        stats = GenStats()
        identity = [identity_for(texture_small)]
        views = rendered(texture_small, spec, 0, STREAM_TRAIN, identity, small_classes)
        samples = list(
            dataset._samples(dataset._view_blocks(texture_small, small_classes, views, stats))
        )
        assert stats.views == 1
        assert len(samples) == len(small_classes)  # every class survives
        m = small_classes.margin
        for s in samples:
            k = small_classes.keypoints[s.label]
            x, y = int(k.x), int(k.y)
            crop = texture_small.pixels[y - m : y + m + 1, x - m : x + m + 1]
            assert np.array_equal(s.patch.pixels, crop)


class TestBookkeeping:
    def test_label_histogram_equals_views_minus_skips(
        self, texture_small, small_classes
    ):
        spec = DatasetSpec(1, 40, test_views=0)
        stats = GenStats()
        samples = list(
            generate_training_set(texture_small, small_classes, spec, 5, stats=stats)
        )
        histogram = {label: 0 for label in range(len(small_classes))}
        for s in samples:
            histogram[s.label] += 1
        for label in range(len(small_classes)):
            assert histogram[label] == stats.views - stats.skips[label]
            assert histogram[label] <= stats.views

    def test_patch_shape_and_dtype(self, texture_small, small_classes):
        spec = DatasetSpec(1, 10, test_views=0)
        p = small_classes.patch_size
        for s in generate_training_set(texture_small, small_classes, spec, 5):
            assert s.patch.pixels.shape == (p, p)
            assert s.patch.pixels.dtype == np.uint8


class TestDeterminism:
    def test_reproducible_streams(self, texture_small, small_classes):
        spec = DatasetSpec(1, 20, test_views=15)
        a = stream_digest(generate_training_set(texture_small, small_classes, spec, 9))
        b = stream_digest(generate_training_set(texture_small, small_classes, spec, 9))
        assert a == b
        c = stream_digest(generate_test_set(texture_small, small_classes, spec, 9))
        d = stream_digest(generate_test_set(texture_small, small_classes, spec, 9))
        assert c == d

    def test_train_and_test_streams_disjoint_under_same_seed(
        self, texture_small, small_classes
    ):
        spec = DatasetSpec(1, 20, test_views=20, noise_sigma=0.0)
        a = stream_digest(generate_training_set(texture_small, small_classes, spec, 9))
        b = stream_digest(generate_test_set(texture_small, small_classes, spec, 9))
        assert a != b

    def test_threads_do_not_change_the_stream(self, texture_small, small_classes):
        spec = DatasetSpec(1, 20, test_views=10)
        serial = stream_digest(
            generate_training_set(texture_small, small_classes, spec, 9, threads=1)
        )
        threaded = stream_digest(
            generate_training_set(texture_small, small_classes, spec, 9, threads=4)
        )
        assert serial == threaded

    @pytest.mark.parametrize("threads", [0, -1])
    def test_fewer_than_one_thread_rejected(self, texture_small, small_classes, threads):
        spec = DatasetSpec(1, 2, test_views=2)
        args = (texture_small, spec, 9, threads)
        with pytest.raises(InvalidArgument, match="threads"):
            training_views(*args)
        with pytest.raises(InvalidArgument, match="threads"):
            render_test_views(*args)
        with pytest.raises(InvalidArgument, match="threads"):
            generate_training_set(texture_small, small_classes, spec, 9, threads=threads)
        with pytest.raises(InvalidArgument, match="threads"):
            generate_test_set(texture_small, small_classes, spec, 9, threads=threads)

    def test_threads_do_not_change_the_noisy_test_stream(
        self, texture_small, small_classes
    ):
        spec = DatasetSpec(1, 1, test_views=12, noise_sigma=10.0)
        serial = stream_digest(
            generate_test_set(texture_small, small_classes, spec, 9, threads=1)
        )
        threaded = stream_digest(
            generate_test_set(texture_small, small_classes, spec, 9, threads=3)
        )
        assert serial == threaded


class TestGoldenPins:
    """Exact streams of the small fixture; any change to synthesis shows here."""

    SPEC = DatasetSpec(1, 20, test_views=15)

    def test_training_stream(self, texture_small, small_classes):
        stats = GenStats()
        digest = stream_digest(
            generate_training_set(texture_small, small_classes, self.SPEC, 9, stats=stats)
        )
        assert digest == "4967b6b84be0378e2ee9b5a9d78b0d70412e612b83d58bdc4253b3ae4c33bd67"
        assert (stats.views, stats.samples) == (20, 224)
        assert dict(stats.skips) == {0: 1, 2: 3, 3: 2, 6: 4, 9: 6}

    def test_noisy_test_stream(self, texture_small, small_classes):
        stats = GenStats()
        digest = stream_digest(
            generate_test_set(texture_small, small_classes, self.SPEC, 9, stats=stats)
        )
        assert digest == "a111c54fc982504296bec4d076a6d2c372a00d124868ad47d596727eac904b65"
        assert (stats.views, stats.samples) == (15, 160)
        assert dict(stats.skips) == {0: 2, 2: 2, 3: 3, 5: 1, 6: 4, 8: 1, 9: 7}


class TestProtocolView:
    """View i of a stream is one function of (seed, stream, i): rendered
    alone, it equals view i of the stream's iterator."""

    SEED = 5

    @staticmethod
    def spec(sigma):
        return DatasetSpec(2, 5, test_views=7, noise_sigma=sigma)

    @pytest.mark.parametrize("sigma", [0.0, 6.0])
    @pytest.mark.parametrize("stream", [STREAM_TRAIN, STREAM_TEST])
    def test_equals_the_iterators_view(self, texture_small, stream, sigma):
        spec = self.spec(sigma)
        iterate = training_views if stream == STREAM_TRAIN else render_test_views
        streamed = list(iterate(texture_small, spec, self.SEED))
        count = len(streamed)
        assert count == (10 if stream == STREAM_TRAIN else 7)
        for i in (0, count // 2, count - 1):
            alone = protocol_view(texture_small, spec, self.SEED, stream, i)
            assert alone.view_id == streamed[i].view_id == i
            assert alone.deform == streamed[i].deform
            assert alone.image == streamed[i].image
            assert alone.noise_sigma == streamed[i].noise_sigma
            assert alone.noise_sigma == (sigma if stream == STREAM_TEST else 0.0)

    @pytest.mark.parametrize(
        "stream, view_id",
        [(STREAM_TRAIN, -1), (STREAM_TRAIN, 10), (STREAM_TEST, -1), (STREAM_TEST, 7),
         (STREAM_MODEL, 0)],
    )
    def test_invalid_view_raises_before_any_render(
        self, texture_small, warp_calls, stream, view_id
    ):
        message = f"view id {view_id} beyond the protocol's view count"
        with pytest.raises(InvalidArgument, match=message):
            protocol_view(texture_small, self.spec(6.0), self.SEED, stream, view_id)
        assert warp_calls == []

    @pytest.mark.parametrize("iterate", [training_views, render_test_views])
    def test_first_view_derives_one_rng(self, texture_small, monkeypatch, iterate):
        keys = []

        def spy(seed, *key):
            keys.append(key)
            return derive_rng(seed, *key)

        monkeypatch.setattr(dataset, "derive_rng", spy)
        spec = DatasetSpec(2, 50, test_views=50)
        views = iterate(texture_small, spec, self.SEED)
        assert keys == []
        next(views)
        stream = STREAM_TRAIN if iterate is training_views else STREAM_TEST
        assert keys == [(stream, 0)]


class TestViewBlocks:
    """Library callers stack one (patches, labels) block per view; the
    PatchSample streams are the per-patch flattening of the same blocks."""

    # seed 3 ends no view on patch 1000 or 1024 of either stream, so those
    # chunk boundaries split a view
    SPEC, SEED = DatasetSpec(2, 60, test_views=120), 3
    STREAMS = [
        (partial(_blocks, stream=STREAM_TRAIN), generate_training_set),
        (partial(_blocks, stream=STREAM_TEST), generate_test_set),
    ]

    @pytest.fixture(scope="class", params=STREAMS, ids=["training", "noisy-test"])
    def both(self, request, texture_small, small_classes):
        """(blocks, samples, block stats, sample stats) of one protocol."""
        blocks_of, samples_of = request.param
        args = (texture_small, small_classes, self.SPEC, self.SEED)
        block_stats, sample_stats = GenStats(), GenStats()
        blocks = list(blocks_of(*args, stats=block_stats))
        samples = list(samples_of(*args, stats=sample_stats))
        return blocks, samples, block_stats, sample_stats

    @pytest.mark.parametrize("size", [None, 1, 1000, 1024])
    def test_blocks_stack_to_the_per_patch_bytes(self, both, size):
        blocks, samples = both[:2]
        ends = np.cumsum([labels.size for _, labels in blocks]).tolist()
        if size and size > 1:
            assert size not in ends and size < ends[-1]
        got = list(sample_batches(iter(blocks), size))
        want = list(sample_batches(iter(samples), size))
        assert [len(l) for _, l in got] == [len(l) for _, l in want]
        for (gp, gl), (wp, wl) in zip(got, want):
            assert gp.shape == wp.shape and gp.tobytes() == wp.tobytes()
            assert gl.dtype == wl.dtype == np.int64 and np.array_equal(gl, wl)

    def test_stats_equal_on_both_paths(self, both):
        blocks, samples, block_stats, sample_stats = both
        assert block_stats == sample_stats
        assert block_stats.views == len(blocks) == 120  # views of either protocol
        assert block_stats.samples == len(samples) == sum(l.size for _, l in blocks)

    def test_blocks_interleave_with_pairs(self, both):
        blocks = both[0][:4]
        mixed = []
        for patches, labels in blocks:
            mixed += [(patches[0], int(labels[0])), (patches[1:], labels[1:])]
        for size in (None, 3):
            got = list(sample_batches(iter(mixed), size))
            want = list(sample_batches(iter(blocks), size))
            assert len(got) == len(want)
            for (gp, gl), (wp, wl) in zip(got, want):
                assert gp.tobytes() == wp.tobytes() and np.array_equal(gl, wl)

    def test_malformed_blocks_and_sizes_rejected(self):
        patches = np.zeros((3, 5, 5), dtype=np.uint8)
        for bad in [(patches, np.arange(2)), (patches[0], np.arange(5)),
                    (patches, np.zeros((3, 1), dtype=int))]:
            with pytest.raises(InvalidPatch):
                list(sample_batches([bad]))
        with pytest.raises(InvalidPatch, match="differ in shape"):
            list(sample_batches([(patches, np.arange(3)), (patches[:, :4], np.arange(3))]))
        with pytest.raises(InvalidArgument):
            list(sample_batches([(patches, np.arange(3))], 0))


class TestWholeLabels:
    """``sample_batches`` rejects a label that is not a whole number before
    any model counts its chunk; ints and whole floats are accepted."""

    PATCHES = random_patches(np.random.default_rng(120), 4, 5)
    BAD = [
        ([0.5, 1.7, 2.9, 1], "0.5"),
        ([0.2, 1.9, 2.5, 0.0], "0.2"),
        ([0, 1, 2.5, 1], "2.5"),
        ([0, float("nan"), 1, 2], "nan"),
        ([0, 1, float("-inf"), 2], "-inf"),
        ([0, Fraction(1, 2), 1, 2], "1/2"),
    ]

    @staticmethod
    def stream(form, labels):
        if form == "pairs":
            return zip(TestWholeLabels.PATCHES, labels)
        return [(TestWholeLabels.PATCHES, np.array(labels))]

    @staticmethod
    def model():
        return FernModel(grid_classes(3, 5), make_random_ferns(2, 3, 5, np.random.default_rng(0)))

    @pytest.mark.parametrize("form", ["pairs", "block"])
    @pytest.mark.parametrize("labels, bad", BAD)
    def test_train_rejects_before_counting(self, form, labels, bad):
        model = self.model()
        with pytest.raises(InvalidLabel, match=f"^label {bad} is not a whole"):
            model.train(self.stream(form, labels))
        assert not model.counts.any()

    @pytest.mark.parametrize("form", ["pairs", "block"])
    @pytest.mark.parametrize("labels, bad", BAD)
    def test_materialize_rejects(self, form, labels, bad):
        with pytest.raises(InvalidLabel, match=f"^label {bad} is not a whole"):
            materialize(self.stream(form, labels))

    @pytest.mark.parametrize("form", ["pairs", "block"])
    def test_whole_floats_are_their_ints(self, form):
        ints, floats = [0, 2, 1, 2], [0.0, 2.0, Fraction(1), np.float64(2)]
        if form == "block":
            floats = np.array(floats)
        patches, labels = materialize(self.stream(form, floats))
        assert labels.dtype == np.int64 and labels.tolist() == ints
        assert patches.tobytes() == self.PATCHES.tobytes()
        want = self.model().train(self.stream(form, ints))
        assert self.model().train(self.stream(form, floats)).save() == want.save()


class TestOneLayoutPerView:
    """A streamed view carries the window layout it was rendered for."""

    def test_streams_compute_one_layout_per_view(
        self, texture_small, small_classes, monkeypatch
    ):
        calls = []
        layout = dataset._window_layout

        def counted(*args):
            calls.append(args)
            return layout(*args)

        monkeypatch.setattr(dataset, "_window_layout", counted)
        spec = TestGoldenPins.SPEC
        train = stream_digest(generate_training_set(texture_small, small_classes, spec, 9))
        assert len(calls) == spec.training_views
        test = stream_digest(generate_test_set(texture_small, small_classes, spec, 9))
        assert len(calls) == spec.training_views + spec.test_views
        # the streams of TestGoldenPins
        assert train == "4967b6b84be0378e2ee9b5a9d78b0d70412e612b83d58bdc4253b3ae4c33bd67"
        assert test == "a111c54fc982504296bec4d076a6d2c372a00d124868ad47d596727eac904b65"

    def test_layout_is_reused_only_for_its_classes_and_source_size(
        self, texture_small, small_classes
    ):
        img = texture_small
        size = (img.width, img.height)
        cases = [
            (small_classes, size),
            (border_classes(img), size),
            (small_classes, (img.width - 30, img.height - 20)),
        ]
        skips = []
        spec = DatasetSpec(1, 4, test_views=0)
        for view in dataset._views(img, spec, 2, STREAM_TRAIN, 1, small_classes):
            assert view.layout is not None
            bare = View(view.view_id, view.deform, view.image)
            for classes, src_size in cases:
                patches, labels, skipped = extract_patches(view, classes, src_size)
                want = extract_patches(bare, classes, src_size)
                assert patches.tobytes() == want[0].tobytes()
                assert (labels.tolist(), skipped) == (want[1].tolist(), want[2])
                skips.append(skipped)
        # each case skips other classes than the layout the view carries
        assert any(skips[i] != skips[i + 2] for i in range(0, len(skips), 3))
        assert any(len(skips[i]) != len(skips[i + 1]) for i in range(0, len(skips), 3))


def edge_deforms(img):
    """Deforms that push windows off the frame and onto the source edge."""
    cx, cy = img.center
    return [
        AffineDeform(0, 0, 1, 1, tx=cx, ty=cy),
        AffineDeform(0.4, 1.0, 0.6, 0.6, tx=cx, ty=cy),
        AffineDeform(2.0, 0.5, 1.5, 1.4, tx=cx, ty=cy),
        AffineDeform(0.1, 0.0, 1.0, 1.0, tx=cx + 45, ty=cy - 30),
        AffineDeform(5.0, 2.5, 0.7, 1.5, tx=cx - 50, ty=cy + 20),
    ]


class TestPatchLocalRendering:
    """Patch streams render only kept windows; their crops equal full-frame ones."""

    @pytest.mark.parametrize(
        "stream", [STREAM_TRAIN, STREAM_TEST], ids=["training", "noisy-test"]
    )
    def test_stream_crops_equal_full_frame_crops(
        self, texture_small, small_classes, stream
    ):
        img, classes = texture_small, small_classes
        deforms = edge_deforms(img)
        spec = DatasetSpec(1, 1, test_views=len(deforms), noise_sigma=10.0)
        full, skip_kinds = {}, set()
        m = classes.margin
        for view in rendered(img, spec, 3, stream, deforms):
            patches, labels, skipped = extract_patches(view, classes, (img.width, img.height))
            want_kept, want_skipped = extract_patches_oracle(
                view, classes, (img.width, img.height)
            )
            assert (labels.tolist(), skipped) == ([l for l, _ in want_kept], want_skipped)
            assert [p.tobytes() for p in patches] == [p.pixels.tobytes() for _, p in want_kept]
            full.update(((view.view_id, l), p.tobytes()) for l, p in zip(labels.tolist(), patches))
            centers = np.rint(warp_points(view.deform, img.width, img.height, classes.coords))
            for x, y in centers[skipped]:
                in_frame = m <= x <= img.width - 1 - m and m <= y <= img.height - 1 - m
                skip_kinds.add("source edge" if in_frame else "frame border")
        assert skip_kinds == {"source edge", "frame border"}
        views = rendered(img, spec, 3, stream, deforms, classes)
        samples = dataset._samples(dataset._view_blocks(img, classes, views, None))
        assert {(s.view_id, s.label): s.patch.pixels.tobytes() for s in samples} == full

    def test_crop_and_skip_decisions_match_per_class_oracle(self, texture_small):
        # Classes on a grid out to the source edges, so corners land on both
        # sides of every skip threshold.
        w, h = texture_small.width, texture_small.height
        classes = ClassSet(
            tuple(Keypoint(x, y) for x in np.linspace(0, w - 1, 23)
                  for y in np.linspace(0, h - 1, 17)),
            patch_size=9,
        )
        rng = np.random.default_rng(31)
        cx, cy = texture_small.center
        deforms = [
            AffineDeform(*rng.uniform(0, 6.28, 2), *rng.uniform(0.6, 1.5, 2),
                         tx=cx + rng.uniform(-40, 40), ty=cy + rng.uniform(-30, 30))
            for _ in range(40)
        ]
        spec = DatasetSpec(1, 1, test_views=0)
        for view in rendered(texture_small, spec, 0, STREAM_TRAIN, deforms):
            patches, labels, skipped = extract_patches(view, classes, (w, h))
            want_kept, want_skipped = extract_patches_oracle(view, classes, (w, h))
            assert skipped == want_skipped
            assert patches.shape == (len(labels), 9, 9) and patches.dtype == np.uint8
            assert list(zip(labels.tolist(), (p.tobytes() for p in patches))) == [
                (l, p.pixels.tobytes()) for l, p in want_kept
            ]
            assert patches.flags.c_contiguous and not patches.flags.writeable
            assert not np.shares_memory(patches, view.image.pixels)

    def test_only_kept_windows_are_rendered(self, texture_small, small_classes):
        img, classes = texture_small, small_classes
        deforms = edge_deforms(img)[1:2]
        spec = DatasetSpec(1, 1, test_views=0)
        full = rendered(img, spec, 3, STREAM_TRAIN, deforms)[0].image.pixels
        local = rendered(img, spec, 3, STREAM_TRAIN, deforms, classes)[0]
        _, labels, skipped = extract_patches(local, classes, (img.width, img.height))
        assert labels.size and skipped
        centers = np.rint(warp_points(local.deform, img.width, img.height, classes.coords))
        m = classes.margin
        covered = np.zeros_like(full, dtype=bool)
        for x, y in centers[labels].astype(int):
            covered[y - m : y + m + 1, x - m : x + m + 1] = True
        assert np.array_equal(local.image.pixels[covered], full[covered])
        assert np.all(local.image.pixels[~covered] == BACKGROUND)


def border_classes(img, patch_size: int = 9) -> ClassSet:
    """A grid of keypoints whose outer windows touch every frame border."""
    m = patch_size // 2
    xs = np.linspace(m, img.width - 1 - m, 7).round()
    ys = np.linspace(m, img.height - 1 - m, 5).round()
    return ClassSet(tuple(Keypoint(x, y) for x in xs for y in ys), patch_size)


class TestWindowBlocks:
    """One strided-window helper cuts the render mask and the patch block."""

    @pytest.mark.parametrize("noise", [0.0, 10.0], ids=["training", "noisy-test"])
    @pytest.mark.parametrize("grid", [False, True], ids=["stable", "border-grid"])
    def test_render_mask_equals_slice_loop_oracle(
        self, texture_small, small_classes, monkeypatch, noise, grid
    ):
        img = texture_small
        classes = border_classes(img) if grid else small_classes
        masks = []

        def spy(*args, mask=None):
            masks.append(mask)
            return warp_image(*args, mask=mask)

        monkeypatch.setattr(dataset, "warp_image", spy)
        deforms = [identity_for(img)] + edge_deforms(img)
        spec = DatasetSpec(1, 1, test_views=len(deforms), noise_sigma=noise)
        stream = STREAM_TRAIN if noise == 0 else STREAM_TEST
        size, m = (img.width, img.height), classes.margin
        every = []
        for view, mask in zip(rendered(img, spec, 3, stream, deforms, classes), masks):
            kept, _ = extract_patches_oracle(view, classes, size)
            centers = np.rint(warp_points(view.deform, *size, classes.coords)).astype(int)
            centers = centers[[label for label, _ in kept]]
            assert np.array_equal(mask, window_mask_oracle(centers, mask.shape, m))
            every.append(centers)
        assert len(masks) == len(deforms)
        if grid:  # kept windows touch the left, top, right and bottom borders
            every = np.concatenate(every)
            assert every.min(axis=0).tolist() == [m, m]
            assert every.max(axis=0).tolist() == [img.width - 1 - m, img.height - 1 - m]

    def test_no_kept_window_on_a_frame_smaller_than_one(self, small_classes):
        frame = GrayImage(np.zeros((5, 7), dtype=np.uint8))
        cx, cy = frame.center
        view = View(0, AffineDeform(0, 0, 1, 1, tx=cx, ty=cy), frame)
        patches, labels, skipped = extract_patches(view, small_classes, (7, 5))
        p = small_classes.patch_size
        assert patches.shape == (0, p, p) and labels.size == 0
        assert skipped == list(range(len(small_classes)))

    def test_stream_rows_are_zero_copy_rows_of_one_block_per_view(
        self, texture_small, small_classes
    ):
        spec = DatasetSpec(1, 6, test_views=0)
        samples = list(generate_training_set(texture_small, small_classes, spec, 4))
        by_view = {}
        for s in samples:
            by_view.setdefault(s.view_id, []).append(s.patch.pixels)
        assert len(by_view) == 6
        blocks = []
        for rows in by_view.values():
            block = rows[0].base
            assert all(r.base is block for r in rows)
            assert block.shape[0] == len(rows) and not block.flags.writeable
            for r in rows:
                assert r.flags.c_contiguous and not r.flags.writeable
                assert np.shares_memory(r, block)
            blocks.append(block)
        for a, b in zip(blocks, blocks[1:]):
            assert not np.shares_memory(a, b)

    def test_block_is_not_a_view_of_the_frame(self, texture_small, small_classes):
        spec = DatasetSpec(1, 1, test_views=3)
        for view in dataset._views(texture_small, spec, 8, STREAM_TEST, 1, small_classes):
            patches, labels, _ = extract_patches(
                view, small_classes, (texture_small.width, texture_small.height)
            )
            assert labels.size and not np.shares_memory(patches, view.image.pixels)
            assert patches.flags.c_contiguous and not patches.flags.writeable
            with pytest.raises(ValueError):
                patches[0, 0, 0] = 0

    @pytest.mark.parametrize("shape, m", [((9, 9), 4), ((12, 17), 2), ((240, 320), 10)])
    @pytest.mark.parametrize("writeable", [False, True])
    def test_windows_equal_numpys_sliding_windows(self, shape, m, writeable):
        arr = np.random.default_rng(sum(shape)).integers(0, 256, shape).astype(np.uint8)
        centers = np.array([[m, m], [shape[1] - 1 - m, shape[0] - 1 - m]])
        view, index = _windows(arr, centers, m, writeable=writeable)
        want = sliding_window_view(arr, (2 * m + 1, 2 * m + 1))
        assert view.shape == want.shape and np.array_equal(view, want)
        assert view.flags.writeable == writeable and np.shares_memory(view, arr)
        assert np.array_equal(view[index], want[index])
        if writeable:
            view[index] = 0
            assert not arr[: 2 * m + 1, : 2 * m + 1].any() and not arr[-1, -1]

    def test_skips_default_to_a_fresh_counter(self):
        a, b = GenStats(), GenStats()
        a.skips.update([1, 1, 2])
        assert a.skips == {1: 2, 2: 1} and b.skips == {}


class TestThetaCoverage:
    def test_each_degree_bucket_filled_exactly(self, texture_small):
        spec = DatasetSpec(views_per_degree=3, rotation_degrees=30, test_views=0)
        buckets = np.zeros(30, dtype=int)
        width = 2 * np.pi / 30
        for view in training_views(texture_small, spec, 4):
            buckets[int(view.deform.theta // width)] += 1
        assert np.all(buckets == 3)


class TestNoiseWiring:
    def test_zero_sigma_equals_unnoised_run(self, texture_small, small_classes):
        base = DatasetSpec(1, 1, test_views=8, noise_sigma=0.0)
        noisy = DatasetSpec(1, 1, test_views=8, noise_sigma=10.0)
        a = stream_digest(generate_test_set(texture_small, small_classes, base, 9))
        b = stream_digest(generate_test_set(texture_small, small_classes, noisy, 9))
        assert a != b
        c = stream_digest(generate_test_set(texture_small, small_classes, base, 9))
        assert a == c

    def test_test_views_carry_noise(self, texture_small):
        spec = DatasetSpec(1, 1, test_views=1, noise_sigma=10.0)
        noisy = next(iter(render_test_views(texture_small, spec, 2)))
        clean = warp_image(
            texture_small, noisy.deform, texture_small.width, texture_small.height
        )
        assert not np.array_equal(noisy.image.pixels, clean.pixels)


class TestDump:
    def test_one_pgm_per_view_plus_manifest(self, texture_small, tmp_path):
        from fernkit.dataset import dump_views

        spec = DatasetSpec(1, 4, test_views=0)
        n = dump_views(training_views(texture_small, spec, 6), tmp_path / "dump")
        assert n == 4
        pgms = sorted((tmp_path / "dump").glob("view_*.pgm"))
        assert [p.name for p in pgms] == [f"view_{i:05d}.pgm" for i in range(4)]
        with open(tmp_path / "dump" / "manifest.csv") as f:
            rows = read_manifest(f)
        for row, path in zip(rows, pgms):
            assert row["noise_sigma"] == 0.0
            replayed = warp_image(
                texture_small, row["deform"], texture_small.width,
                texture_small.height,
            )
            assert read_pgm(path.read_bytes()) == replayed

    def test_noisy_test_views_replay_from_their_manifest(self, texture_small, tmp_path):
        from fernkit.dataset import dump_views

        spec = DatasetSpec(0, 0, test_views=3, noise_sigma=6.0)
        assert dump_views(render_test_views(texture_small, spec, 12), tmp_path) == 3
        with open(tmp_path / "manifest.csv") as f:
            rows = read_manifest(f)
        assert [r["view_id"] for r in rows] == [0, 1, 2]
        for row in rows:
            assert row["noise_sigma"] == 6.0
            assert replay(texture_small, row, 12) == read_pgm(
                (tmp_path / f"view_{row['view_id']:05d}.pgm").read_bytes()
            )


def replay(img, row, seed):
    """A test view from its manifest row: the recorded deform, then the noise
    of the derived per-view rng."""
    clean = warp_image(img, row["deform"], img.width, img.height)
    rng = derive_rng(seed, STREAM_TEST, row["view_id"])
    for _ in range(4):
        rng.uniform()  # skip the theta, phi, lambda1, lambda2 draws
    return add_noise(clean, row["noise_sigma"], rng)


class TestManifest:
    def test_round_trip_and_replay(self, texture_small):
        spec = DatasetSpec(1, 1, test_views=3, noise_sigma=6.0)
        views = list(render_test_views(texture_small, spec, 12))
        buf = io.StringIO()
        write_manifest([manifest_row(v) for v in views], buf)
        buf.seek(0)
        rows = read_manifest(buf)
        assert [r["view_id"] for r in rows] == [0, 1, 2]
        for row, view in zip(rows, views):
            assert row["deform"] == view.deform
            # replaying the recorded deform plus the derived per-view rng
            # reproduces the emitted image byte for byte
            assert replay(texture_small, row, 12) == view.image

    def test_rows_record_each_views_own_sigma(self, texture_small):
        spec = DatasetSpec(1, 2, test_views=2, noise_sigma=4.5)
        views = [
            *training_views(texture_small, spec, 3),
            *render_test_views(texture_small, spec, 3),
            protocol_view(texture_small, spec, 3, STREAM_TEST, 0, identity_for(texture_small)),
        ]
        sigmas = [manifest_row(v)["noise_sigma"] for v in views]
        assert sigmas == ["0.0", "0.0", "4.5", "4.5", "4.5"]
