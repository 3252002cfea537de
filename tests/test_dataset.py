import io
import math
import re
from collections import Counter
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from fernkit import (
    AffineDeform,
    ClassSet,
    DatasetSpec,
    FernModel,
    GrayImage,
    InvalidArgument,
    InvalidLabel,
    InvalidPatch,
)
from fernkit import dataset
from fernkit.dataset import (
    MANIFEST_HEADER,
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
    sample_batches,
    write_manifest,
)
from fernkit.dataset import test_views as render_test_views
from fernkit.evaluate import compare_methods, materialize
from fernkit.image import BACKGROUND, add_noise, warp_image, warp_points

from support import (
    extract_patches_oracle,
    grid_classes,
    random_patches,
    read_manifest,
    stream_digest,
    window_mask_oracle,
)


def identity_for(img):
    cx, cy = img.center
    return AffineDeform(0, 0, 1, 1, tx=cx, ty=cy)


def pair_bytes(pairs):
    """(label, pixel bytes) of every (patch, label) pair of a stream, in order."""
    return [(label, patch.tobytes()) for patch, label in pairs]


def skipped(labels, classes) -> list[int]:
    """The labels a view's block lacks: the classes it skipped, ascending."""
    return np.setdiff1d(np.arange(len(classes)), labels).tolist()


def bookkeeping(blocks, classes) -> tuple[int, int, Counter]:
    """(views, samples, skips per class) of a protocol's blocks."""
    views, samples, skips = 0, 0, Counter()
    for _, labels in blocks:
        views, samples = views + 1, samples + labels.size
        skips.update(skipped(labels, classes))
    return views, samples, skips


def crop_bytes(views, classes):
    """(label, pixel bytes) of every patch ``extract_patches`` crops from
    ``views``, in order."""
    crops = []
    for view in views:
        patches, labels = extract_patches(view, classes)
        crops += zip(labels.tolist(), (p.tobytes() for p in patches))
    return crops


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
        assert len(list(_blocks(texture_small, small_classes, spec, 3, STREAM_TRAIN))) == 30

    def test_test_view_count(self, texture_small, small_classes):
        spec = DatasetSpec(1, 1, test_views=25, noise_sigma=5.0)
        assert len(list(_blocks(texture_small, small_classes, spec, 3, STREAM_TEST))) == 25

    def test_negative_counts_rejected(self):
        with pytest.raises(InvalidArgument):
            DatasetSpec(views_per_degree=-1)

    @pytest.mark.parametrize(
        "args, name",
        [((1.5, 4, 2), "views_per_degree"), ((True, 4, 2), "views_per_degree"),
         ((1, 4.0, 2), "rotation_degrees"), ((1, -1, 2), "rotation_degrees"),
         ((1, 4, 2.0), "test_views"), ((1, 4, np.int64(-2)), "test_views"),
         ((1, 4, "2"), "test_views"), ((1, 4, 2, "a"), "noise_sigma"),
         ((1, 4, 2, None), "noise_sigma"), ((1, 4, 2, 1j), "noise_sigma"),
         ((1, 4, 2, True), "noise_sigma")],
    )
    def test_counts_that_are_not_integers_and_sigmas_that_are_not_reals_rejected(
        self, args, name
    ):
        with pytest.raises(InvalidArgument, match=f"^{name} must be"):
            DatasetSpec(*args)

    def test_numpy_integer_counts_and_real_sigmas_accepted(self):
        spec = DatasetSpec(np.int64(2), np.uint16(3), np.int32(4), np.float32(1.5))
        assert spec.training_views == 6
        assert DatasetSpec(1, 4, 2, Fraction(1, 2)).noise_sigma == 0.5
        assert DatasetSpec(1, 4, 2, 3).noise_sigma == 3

    @pytest.mark.parametrize("sigma", [-1.0, math.nan, math.inf])
    def test_negative_or_non_finite_noise_rejected(self, sigma):
        with pytest.raises(InvalidArgument):
            DatasetSpec(1, noise_sigma=sigma)

    @pytest.mark.parametrize(
        "sigma", [10**400, -(10**400), Fraction(10**401, 3)], ids=["1e400", "-1e400", "fraction"]
    )
    def test_noise_beyond_float64_rejected_by_spec_and_add_noise(self, sigma):
        # math.isfinite raises OverflowError converting these to float
        with pytest.raises(InvalidArgument, match="^noise_sigma must be a finite real"):
            DatasetSpec(1, 4, 2, sigma)
        img = GrayImage(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(InvalidArgument, match="^sigma must be a finite real"):
            add_noise(img, sigma, np.random.default_rng(0))


class TestDegenerateIdentity:
    def test_identity_views_equal_reference_crops(self, texture_small, small_classes):
        spec = DatasetSpec(1, 1, test_views=0)
        identity = [identity_for(texture_small)]
        [view] = rendered(texture_small, spec, 0, STREAM_TRAIN, identity, small_classes)
        patches, labels = extract_patches(view, small_classes)
        assert labels.tolist() == list(range(len(small_classes)))
        m = small_classes.margin
        for patch, label in zip(patches, labels.tolist()):
            x, y = small_classes.coords[label].astype(int)
            crop = texture_small.pixels[y - m : y + m + 1, x - m : x + m + 1]
            assert np.array_equal(patch, crop)


class TestBookkeeping:
    def test_label_histogram_equals_views_minus_skips(
        self, texture_small, small_classes
    ):
        spec = DatasetSpec(1, 40, test_views=0)
        blocks = list(_blocks(texture_small, small_classes, spec, 5, STREAM_TRAIN))
        views, _, skips = bookkeeping(blocks, small_classes)
        pairs = generate_training_set(texture_small, small_classes, spec, 5)
        histogram = Counter(label for _, label in pairs)
        assert views == 40 and sum(skips.values()) > 0
        for label in range(len(small_classes)):
            assert histogram[label] == views - skips[label]

    def test_patch_shape_and_dtype(self, texture_small, small_classes):
        spec = DatasetSpec(1, 10, test_views=0)
        p = small_classes.patch_size
        for patch, label in generate_training_set(texture_small, small_classes, spec, 5):
            assert patch.shape == (p, p) and patch.dtype == np.uint8
            assert type(label) is int


class TestDeterminism:
    def test_reproducible_streams(self, texture_small, small_classes):
        spec = DatasetSpec(1, 20, test_views=15)
        a = pair_bytes(generate_training_set(texture_small, small_classes, spec, 9))
        b = pair_bytes(generate_training_set(texture_small, small_classes, spec, 9))
        assert a == b and a
        c = pair_bytes(generate_test_set(texture_small, small_classes, spec, 9))
        d = pair_bytes(generate_test_set(texture_small, small_classes, spec, 9))
        assert c == d and c

    def test_train_and_test_streams_disjoint_under_same_seed(
        self, texture_small, small_classes
    ):
        spec = DatasetSpec(1, 20, test_views=20, noise_sigma=0.0)
        a = pair_bytes(generate_training_set(texture_small, small_classes, spec, 9))
        b = pair_bytes(generate_test_set(texture_small, small_classes, spec, 9))
        assert a != b

    @pytest.mark.parametrize("threads", [0, -1, 2])
    def test_threads_other_than_one_rejected(self, texture_small, small_classes, threads):
        spec = DatasetSpec(1, 2, test_views=2)
        protocol = (texture_small, small_classes, spec, 9)
        calls = [
            partial(render_test_views, texture_small, spec, 9, threads),
            partial(generate_training_set, *protocol, threads=threads),
            partial(generate_test_set, *protocol, threads=threads),
            partial(compare_methods, *protocol[:3], 1, 9, fern_size=2, threads=threads),
        ]
        for call in calls:
            with pytest.raises(InvalidArgument, match="threads"):
                call()


class TestGoldenPins:
    """Exact streams of the small fixture; any change to synthesis shows here."""

    SPEC = DatasetSpec(1, 20, test_views=15)
    TRAIN = "4967b6b84be0378e2ee9b5a9d78b0d70412e612b83d58bdc4253b3ae4c33bd67"
    TEST = "a111c54fc982504296bec4d076a6d2c372a00d124868ad47d596727eac904b65"
    STREAMS = [
        (STREAM_TRAIN, generate_training_set, TRAIN),
        (STREAM_TEST, generate_test_set, TEST),
    ]

    @classmethod
    def pinned_bookkeeping(cls, img, classes, stream, generate, digest) -> tuple:
        """(views, samples, skips) of the stream's blocks, once its pairs are
        checked to be the crops of the stream's views, those views' digest the
        pinned one, and the blocks the pairs unflattened."""
        pairs = pair_bytes(generate(img, classes, cls.SPEC, 9))
        views = list(dataset._views(img, cls.SPEC, 9, stream, classes))
        assert stream_digest(views, classes) == digest
        assert pairs == crop_bytes(views, classes)
        blocks = list(_blocks(img, classes, cls.SPEC, 9, stream))
        assert pairs == [(l, p.tobytes()) for ps, ls in blocks for p, l in zip(ps, ls.tolist())]
        return bookkeeping(blocks, classes)

    def test_training_stream(self, texture_small, small_classes):
        views, samples, skips = self.pinned_bookkeeping(
            texture_small, small_classes, *self.STREAMS[0]
        )
        assert (views, samples) == (20, 224)
        assert dict(skips) == {0: 1, 2: 3, 3: 2, 6: 4, 9: 6}

    def test_noisy_test_stream(self, texture_small, small_classes):
        views, samples, skips = self.pinned_bookkeeping(
            texture_small, small_classes, *self.STREAMS[1]
        )
        assert (views, samples) == (15, 160)
        assert dict(skips) == {0: 2, 2: 2, 3: 3, 5: 1, 6: 4, 8: 1, 9: 7}


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
        streamed = list(dataset._views(texture_small, spec, self.SEED, stream, None))
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

    @pytest.mark.parametrize(
        "stream", [STREAM_TRAIN, STREAM_TEST], ids=["training_views", "test_views"]
    )
    def test_first_view_derives_one_rng(self, texture_small, monkeypatch, stream):
        keys = []

        def spy(seed, *key):
            keys.append(key)
            return derive_rng(seed, *key)

        monkeypatch.setattr(dataset, "derive_rng", spy)
        spec = DatasetSpec(2, 50, test_views=50)
        views = dataset._views(texture_small, spec, self.SEED, stream, None)
        assert keys == []
        next(views)
        assert keys == [(stream, 0)]


class TestViewBlocks:
    """Library callers stack one (patches, labels) block per view; the
    public (patch, label) pair streams are the per-patch flattening of the
    same blocks."""

    # seed 3 ends no view on patch 1000 or 1024 of either stream, so those
    # chunk boundaries split a view
    SPEC, SEED = DatasetSpec(2, 60, test_views=120), 3
    STREAMS = [
        (partial(_blocks, stream=STREAM_TRAIN), generate_training_set),
        (partial(_blocks, stream=STREAM_TEST), generate_test_set),
    ]

    @pytest.fixture(scope="class", params=STREAMS, ids=["training", "noisy-test"])
    def both(self, request, texture_small, small_classes):
        """(blocks, pairs) of one protocol."""
        blocks_of, pairs_of = request.param
        args = (texture_small, small_classes, self.SPEC, self.SEED)
        return list(blocks_of(*args)), list(pairs_of(*args))

    @pytest.mark.parametrize("size", [None, 1, 1000, 1024])
    def test_blocks_stack_to_the_per_patch_bytes(self, both, size):
        blocks, pairs = both
        ends = np.cumsum([labels.size for _, labels in blocks]).tolist()
        if size and size > 1:
            assert size not in ends and size < ends[-1]
        got = list(sample_batches(iter(blocks), size))
        want = list(sample_batches(iter(pairs), size))
        assert [len(l) for _, l in got] == [len(l) for _, l in want]
        for (gp, gl), (wp, wl) in zip(got, want):
            assert gp.shape == wp.shape and gp.tobytes() == wp.tobytes()
            assert gl.dtype == wl.dtype == np.int64 and np.array_equal(gl, wl)

    def test_stats_equal_on_both_paths(self, both):
        blocks, pairs = both
        assert len(blocks) == 120  # views of either protocol
        assert len(pairs) == sum(l.size for _, l in blocks)
        assert Counter(l for _, l in pairs) == Counter(np.concatenate([l for _, l in blocks]).tolist())

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

    @pytest.mark.parametrize("room", [dataset.RESERVED_BYTES, 4096], ids=["reserved", "grown"])
    @pytest.mark.parametrize("size", [None, 1, 3, 1024])
    def test_chunks_stay_as_yielded(self, both, size, room, monkeypatch):
        # a stack that grows in place (from 4096 bytes, ~9 patches, it grows
        # many times) must not move or overwrite a chunk it has handed out
        monkeypatch.setattr(dataset, "RESERVED_BYTES", room)
        blocks, pairs = both
        mixed = []
        for patches, labels in blocks:
            mixed += [(patches[0], int(labels[0])), (patches[1:], labels[1:])]
        chunks, copies = [], []
        for patches, labels in sample_batches(iter(mixed), size):
            chunks.append((patches, labels))
            copies.append((patches.copy(), labels.copy()))
        assert [len(l) for _, l in chunks] == [len(l) for _, l in copies]
        for (patches, labels), (want, want_labels) in zip(chunks, copies):
            assert patches.tobytes() == want.tobytes()
            assert np.array_equal(labels, want_labels)
        stacked = np.concatenate([p for p, _ in chunks])
        assert stacked.tobytes() == np.stack([p for p, _ in pairs]).tobytes()

    def test_malformed_blocks_and_sizes_rejected(self):
        patches = np.zeros((3, 5, 5), dtype=np.uint8)
        for bad in [(patches, np.arange(2)), (patches[0], np.arange(5)),
                    (patches, np.zeros((3, 1), dtype=int))]:
            with pytest.raises(InvalidPatch):
                list(sample_batches([bad]))
        for bad in [5, (patches[0], 1, 2), patches[0], (patches[0, 0], 1), (patches, 1)]:
            with pytest.raises(InvalidPatch, match="pair"):
                list(sample_batches([(patches[0], 0), bad]))
        with pytest.raises(InvalidPatch, match="differ in shape"):
            list(sample_batches([(patches, np.arange(3)), (patches[:, :4], np.arange(3))]))
        with pytest.raises(InvalidArgument):
            list(sample_batches([(patches, np.arange(3))], 0))


class TestStackedTypes:
    """A chunk stacks uint8 patches of one shape; each item is checked whole
    as it arrives."""

    PATCHES = random_patches(np.random.default_rng(121), 5, 5)

    # any other patch dtype raises as its item arrives, after the chunk
    # before it is yielded
    @pytest.mark.parametrize("dtype", ["int64", "uint16", "int8", "float64", "bool"])
    @pytest.mark.parametrize("form", ["pair", "block"])
    def test_other_dtypes_raise_as_they_arrive(self, dtype, form):
        p = self.PATCHES
        other = p[1:3].astype(dtype)
        item = (other[0], 1) if form == "pair" else (other, np.array([1, 2]))
        got = []
        with pytest.raises(InvalidPatch, match=f"^patches must be uint8, got {dtype}$"):
            for chunk in sample_batches(iter([(p[0], 0), item, (p[3], 3)]), 1):
                got.append(chunk)
        assert len(got) == 1

    def test_an_empty_first_block_fixes_the_patch_shape(self):
        p = self.PATCHES
        with pytest.raises(InvalidPatch, match="differ in shape"):
            list(sample_batches(iter([(p[:0], np.arange(0)), (p[0, :4], 0)])))

    # the block's first row would fill the first chunk
    def test_a_bad_label_in_a_split_block_raises_before_any_chunk(self):
        p = self.PATCHES
        got = []
        with pytest.raises(InvalidLabel, match="^label 2.5 is not a whole"):
            for chunk in sample_batches(iter([(p[0], 0), (p[1:5], [1, 2, 2.5, 3])]), 2):
                got.append(chunk)
        assert got == []

    @given(
        st.lists(st.tuples(st.sampled_from(["pair", "image", "block"]), st.integers(0, 6)),
                 max_size=12),
        st.sampled_from([None, 1, 3, 7, 1024]),
        st.integers(0, 2**16),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_chunks_are_the_concatenated_items(self, forms, size, seed):
        # uint8 pairs, GrayImage pairs, and blocks of 0 to 6 patches
        rng = np.random.default_rng(seed)
        stream, blocks = [], []
        for form, k in forms:
            patches = random_patches(rng, 1 if form != "block" else k, 3)
            labels = rng.integers(0, 50, len(patches))
            blocks.append((patches, labels))
            if form == "block":
                stream.append((patches, labels))
            else:
                patch = patches[0] if form == "pair" else GrayImage(patches[0])
                stream.append((patch, int(labels[0])))
        chunks = list(sample_batches(iter(stream), size))
        rows = [len(labels) for _, labels in chunks]
        assert all(n == size for n in rows[:-1]) and 0 not in rows
        if chunks:
            assert all(p.dtype == np.uint8 and l.dtype == np.int64 for p, l in chunks)
            got = [np.concatenate(parts) for parts in zip(*chunks)]
        else:
            got = [np.zeros((0, 3, 3), np.uint8), np.zeros(0, np.int64)]
        want = [np.concatenate(parts) for parts in zip(*blocks)] if blocks else got
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tolist() == want[1].tolist()

    # a patch shape that changes mid-stream raises before the chunk it would
    # join is yielded, whichever item the chunk starts with
    @pytest.mark.parametrize("size, yielded", [(None, 0), (2, 1), (3, 0)])
    def test_a_shape_change_raises_before_its_chunk(self, size, yielded):
        p = self.PATCHES
        stream = [(p[0], 0), (p[1], 1), (p[2, :4], 2), (p[3], 3)]
        got = []
        with pytest.raises(InvalidPatch, match="differ in shape"):
            for chunk in sample_batches(iter(stream), size):
                got.append(chunk)
        assert len(got) == yielded


class TestWholeLabels:
    """``sample_batches`` rejects a label that is not a whole number before
    any model counts its chunk; ints and whole floats are accepted, and a
    str, bool, complex or None label is rejected, not cast."""

    PATCHES = random_patches(np.random.default_rng(120), 4, 5)
    BAD = [
        ([0.5, 1.7, 2.9, 1], "0.5"),
        ([0.2, 1.9, 2.5, 0.0], "0.2"),
        ([0, 1, 2.5, 1], "2.5"),
        ([0, float("nan"), 1, 2], "nan"),
        ([0, 1, float("-inf"), 2], "-inf"),
        ([0, Fraction(1, 2), 1, 2], "1/2"),
        (["3", "0", "1", "2"], "'3'"),
        ([True, False, True, False], "True"),
        ([2 + 0j, 0, 1, 2], "(2+0j)"),
        ([0, None, 1, 2], "None"),
    ]

    @staticmethod
    def stream(form, labels):
        if form == "pairs":
            return zip(TestWholeLabels.PATCHES, labels)
        return [(TestWholeLabels.PATCHES, np.array(labels))]

    @staticmethod
    def model():
        return FernModel.random(grid_classes(3, 5), 2, 3, np.random.default_rng(0))

    @pytest.mark.parametrize("form", ["pairs", "block"])
    @pytest.mark.parametrize("labels, bad", BAD)
    def test_train_rejects_before_counting(self, form, labels, bad):
        model = self.model()
        with pytest.raises(InvalidLabel, match=f"^label {re.escape(bad)} is not a whole"):
            model.train(self.stream(form, labels))
        assert not model.counts.any()

    @pytest.mark.parametrize("form", ["pairs", "block"])
    @pytest.mark.parametrize("labels, bad", BAD)
    def test_materialize_rejects(self, form, labels, bad):
        with pytest.raises(InvalidLabel, match=f"^label {re.escape(bad)} is not a whole"):
            materialize(self.stream(form, labels))

    # a bool among int labels stacked as the int 0 or 1
    @pytest.mark.parametrize("stream", [
        pytest.param(lambda p: [(p[0], 0), (p[1], True)], id="pairs"),
        pytest.param(lambda p: [(p[:2], np.array([0, True], dtype=object))], id="object-block"),
        pytest.param(lambda p: [(p[0], 0), (p[1:3], np.array([True, False]))], id="bool-block"),
    ])
    def test_a_bool_among_int_labels_rejected(self, stream):
        with pytest.raises(InvalidLabel, match="^label True is not a whole"):
            next(sample_batches(stream(self.PATCHES)))
        model = self.model()
        with pytest.raises(InvalidLabel, match="^label True is not a whole"):
            model.train(stream(self.PATCHES))
        assert not model.counts.any()

    # a cast would wrap them into negative classes
    @pytest.mark.parametrize("stream, bad", [
        pytest.param(lambda p: [(p[0], 2**63)], 2**63, id="int-pair"),
        pytest.param(lambda p: [(p[0], np.uint64(2**63))], 2**63, id="uint64-pair"),
        pytest.param(lambda p: [(p[:2], np.array([1, 2**63], np.uint64))], 2**63,
                     id="uint64-block"),
        pytest.param(lambda p: [(p[:2], np.array([1, 2**63], dtype=object))], 2**63,
                     id="object-block"),
        pytest.param(lambda p: [(p[0], 0), (p[1], 2**64)], 2**64, id="int-pair-2**64"),
        pytest.param(lambda p: [(p[0], -(2**63) - 1)], -(2**63) - 1, id="negative-pair"),
    ])
    def test_labels_beyond_int64_rejected_as_given(self, stream, bad):
        with pytest.raises(InvalidLabel, match=f"^label {bad} is not a whole int64 number$"):
            next(sample_batches(stream(self.PATCHES)))
        model = self.model()
        with pytest.raises(InvalidLabel, match=f"^label {bad} is not a whole"):
            model.train(stream(self.PATCHES))
        assert not model.counts.any()

    def test_the_int64_extremes_are_accepted(self):
        p, top = self.PATCHES, 2**63 - 1
        stream = [(p[0], top), (p[1], np.uint64(top)), (p[2], -(2**63)),
                  (p[2:4], np.array([top, 0], np.uint64)), (p[:2], np.array([top, 1], object))]
        _, labels = next(sample_batches(stream))
        assert labels.tolist() == [top, top, -(2**63), top, 0, top, 1]

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
        for stream, generate, digest in TestGoldenPins.STREAMS:
            calls.clear()
            pairs = pair_bytes(generate(texture_small, small_classes, spec, 9))
            views = dataset._view_count(spec, stream)
            assert len(calls) == views == (20 if stream == STREAM_TRAIN else 15)
            # the streams of TestGoldenPins, cropped with the layout each view carries
            streamed = list(dataset._views(texture_small, spec, 9, stream, small_classes))
            assert stream_digest(streamed, small_classes) == digest
            assert pairs == crop_bytes(streamed, small_classes)
            assert len(calls) == 2 * views

    def test_layout_is_reused_only_for_its_classes(
        self, texture_small, small_classes, monkeypatch
    ):
        img = texture_small
        # equal to small_classes, but not the object the views were rendered for
        twin = ClassSet(small_classes.coords, small_classes.patch_size)
        cases = [small_classes, twin, border_classes(img)]
        spec = DatasetSpec(1, 4, test_views=0)
        views = list(dataset._views(img, spec, 2, STREAM_TRAIN, small_classes))
        calls = []
        layout = dataset._window_layout
        monkeypatch.setattr(
            dataset, "_window_layout", lambda *args: calls.append(args[1]) or layout(*args)
        )
        skips = []
        for view in views:
            assert view.layout[0] is small_classes
            bare = View(view.view_id, view.deform, view.image)
            for classes in cases:
                patches, labels = extract_patches(view, classes)
                want = extract_patches(bare, classes)
                assert patches.tobytes() == want[0].tobytes()
                assert labels.tolist() == want[1].tolist()
                skips.append(skipped(labels, classes))
        # a streamed view reuses its layout only for the object it was rendered for
        assert len(calls) == 5 * len(views)
        assert sum(c is small_classes for c in calls) == len(views)
        assert any(len(skips[i]) != len(skips[i + 2]) for i in range(0, len(skips), 3))


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
            patches, labels = extract_patches(view, classes)
            want_kept, want_skipped = extract_patches_oracle(view, classes)
            assert labels.tolist() == [l for l, _ in want_kept]
            assert skipped(labels, classes) == want_skipped
            assert [p.tobytes() for p in patches] == [p.pixels.tobytes() for _, p in want_kept]
            full.update(((view.view_id, l), p.tobytes()) for l, p in zip(labels.tolist(), patches))
            centers = np.rint(warp_points(view.deform, img.width, img.height, classes.coords))
            for x, y in centers[want_skipped]:
                in_frame = m <= x <= img.width - 1 - m and m <= y <= img.height - 1 - m
                skip_kinds.add("source edge" if in_frame else "frame border")
        assert skip_kinds == {"source edge", "frame border"}
        local = {}
        for view in rendered(img, spec, 3, stream, deforms, classes):
            patches, labels = extract_patches(view, classes)
            local.update(((view.view_id, l), p.tobytes()) for l, p in zip(labels, patches))
        assert local == full

    def test_crop_and_skip_decisions_match_per_class_oracle(self, texture_small):
        # Classes on a grid out to the source edges, so corners land on both
        # sides of every skip threshold.
        w, h = texture_small.width, texture_small.height
        classes = ClassSet(
            [(x, y) for x in np.linspace(0, w - 1, 23) for y in np.linspace(0, h - 1, 17)],
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
            patches, labels = extract_patches(view, classes)
            want_kept, want_skipped = extract_patches_oracle(view, classes)
            assert skipped(labels, classes) == want_skipped
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
        _, labels = extract_patches(local, classes)
        assert labels.size and skipped(labels, classes)
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
    return ClassSet([(x, y) for x in xs for y in ys], patch_size)


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
            kept, _ = extract_patches_oracle(view, classes)
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
        patches, labels = extract_patches(view, small_classes)
        p = small_classes.patch_size
        assert patches.shape == (0, p, p) and labels.size == 0

    def test_stream_rows_are_zero_copy_rows_of_one_block_per_view(
        self, texture_small, small_classes
    ):
        spec = DatasetSpec(1, 6, test_views=0)
        blocks, rows = [], []  # the distinct blocks in stream order, and each one's rows
        for patch, label in generate_training_set(texture_small, small_classes, spec, 4):
            assert type(label) is int
            assert patch.flags.c_contiguous and not patch.flags.writeable
            if not blocks or patch.base is not blocks[-1]:
                blocks.append(patch.base)
                rows.append(0)
            assert np.shares_memory(patch, blocks[-1])
            rows[-1] += 1
        assert len(blocks) == 6
        for block, count in zip(blocks, rows):
            assert block.shape[0] == count and not block.flags.writeable
        for a, b in zip(blocks, blocks[1:]):
            assert not np.shares_memory(a, b)

    def test_block_is_not_a_view_of_the_frame(self, texture_small, small_classes):
        spec = DatasetSpec(1, 1, test_views=3)
        for view in dataset._views(texture_small, spec, 8, STREAM_TEST, small_classes):
            patches, labels = extract_patches(view, small_classes)
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


class TestThetaCoverage:
    def test_each_degree_bucket_filled_exactly(self, texture_small):
        spec = DatasetSpec(views_per_degree=3, rotation_degrees=30, test_views=0)
        buckets = np.zeros(30, dtype=int)
        width = 2 * np.pi / 30
        for view in dataset._views(texture_small, spec, 4, STREAM_TRAIN, None):
            buckets[int(view.deform.theta // width)] += 1
        assert np.all(buckets == 3)


class TestNoiseWiring:
    def test_zero_sigma_equals_unnoised_run(self, texture_small, small_classes):
        base = DatasetSpec(1, 1, test_views=8, noise_sigma=0.0)
        noisy = DatasetSpec(1, 1, test_views=8, noise_sigma=10.0)
        a = pair_bytes(generate_test_set(texture_small, small_classes, base, 9))
        b = pair_bytes(generate_test_set(texture_small, small_classes, noisy, 9))
        assert a != b
        c = pair_bytes(generate_test_set(texture_small, small_classes, base, 9))
        assert a == c

    def test_test_views_carry_noise(self, texture_small):
        spec = DatasetSpec(1, 1, test_views=1, noise_sigma=10.0)
        noisy = next(iter(render_test_views(texture_small, spec, 2)))
        clean = warp_image(
            texture_small, noisy.deform, texture_small.width, texture_small.height
        )
        assert not np.array_equal(noisy.image.pixels, clean.pixels)


def replay(img, row, seed):
    """A test view from its manifest row: the recorded deform, then the noise
    of the derived per-view rng."""
    clean = warp_image(img, row["deform"], img.width, img.height)
    rng = derive_rng(seed, STREAM_TEST, row["view_id"])
    for _ in range(4):
        rng.uniform()  # skip the theta, phi, lambda1, lambda2 draws
    return add_noise(clean, row["noise_sigma"], rng)


class TestManifest:
    def test_header_columns(self):
        assert MANIFEST_HEADER == [
            "view_id", "theta", "phi", "lambda1", "lambda2", "tx", "ty", "noise_sigma",
        ]

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
            *dataset._views(texture_small, spec, 3, STREAM_TRAIN, None),
            *render_test_views(texture_small, spec, 3),
            protocol_view(texture_small, spec, 3, STREAM_TEST, 0, identity_for(texture_small)),
        ]
        sigmas = [manifest_row(v)["noise_sigma"] for v in views]
        assert sigmas == ["0.0", "0.0", "4.5", "4.5", "4.5"]
