"""One rule per kind of input, from ``fernkit.errors``: a count, a unit depth
and a patch size are integers in their range. Every entry point below
rejects a float, a bool, a numeric string and an integer out of its range
with InvalidArgument before any work: no view rendered, no test drawn, no
stream item read and the caller's rng untouched. Each takes a numpy integer
as the int it holds. A view id, a real number, a counts array, a ragged
array, a model's classes, file contents and a random source of the wrong
kind raise InvalidArgument before any work too, and a file with flipped,
cut or added bytes reads back equal or raises a FernkitError. A model built
from generated counts scores one location with the bytes of a batch, or its
constructor raises a FernkitError."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fernkit import (
    AffineDeform,
    ClassSet,
    Combination,
    DatasetSpec,
    FernModel,
    FernkitError,
    GrayImage,
    InvalidArgument,
    Method,
    TreeForest,
    add_noise,
    box_smooth,
    compare_methods,
    derive_rng,
    detect_keypoints,
    read_pgm,
    select_stable_classes,
    sample_deformation,
    sweep_units,
    warp_image,
    write_pgm,
)
from fernkit import dataset, ferns, keypoints
from fernkit.dataset import STREAM_TEST, sample_batches
from fernkit.ferns import MAX_DEPTH, random_tests
from fernkit.image import box_mean, unwarp_points, warp_points

from support import cached, fern_tests, grid_classes, make_texture, random_patches, tree_tests

IMAGE = make_texture(48, 40, seed=3)
# two classes near the centre, so every view of the protocol keeps them
CLASSES = ClassSet([(20, 20), (27, 20)], 5)
SPEC = DatasetSpec(1, 4, 2, 0.0)
DEFORM = AffineDeform(0.0, 0.0, 1.0, 1.0)
MODEL = FernModel.random(CLASSES, 2, 2, np.random.default_rng(0))


def pairs(work):
    """A stream of two (patch, label) pairs that notes its first read."""
    work.append("read")
    yield from [(np.zeros((5, 5), np.uint8), 0), (np.zeros((5, 5), np.uint8), 1)]


# id, the name the error gives the value, a call with the value, a value in
# range, and one out of it; a call takes (value, rng, work)
ENTRIES = [
    ("random-units", "units",
     lambda v, rng, work: FernModel.random(CLASSES, v, 2, rng), 2, 0),
    ("random-depth", "depth",
     lambda v, rng, work: TreeForest.random(CLASSES, 2, v, rng), 2, MAX_DEPTH + 1),
    ("truncated", "k", lambda v, rng, work: MODEL.truncated(v), 1, 3),
    ("select-h", "h",
     lambda v, rng, work: select_stable_classes(IMAGE, v, 2, rng, patch_size=5), 1, 0),
    ("select-views", "num_views",
     lambda v, rng, work: select_stable_classes(IMAGE, 1, v, rng, patch_size=5), 1, 0),
    ("select-patch", "patch_size",
     lambda v, rng, work: select_stable_classes(IMAGE, 1, 2, rng, patch_size=v), 5, 4),
    ("detect-count", "max_count", lambda v, rng, work: detect_keypoints(IMAGE, v, 5), 5, -1),
    ("detect-patch", "patch_size", lambda v, rng, work: detect_keypoints(IMAGE, 5, v), 5, 4),
    ("warp-width", "out_w", lambda v, rng, work: warp_image(IMAGE, DEFORM, v, 8), 8, 0),
    ("warp-height", "out_h", lambda v, rng, work: warp_image(IMAGE, DEFORM, 8, v), 8, 0),
    ("box-mean", "radius", lambda v, rng, work: box_mean(IMAGE.pixels, v), 1, -1),
    ("box-smooth", "radius", lambda v, rng, work: box_smooth(IMAGE, v), 1, -1),
    ("batch-size", "size", lambda v, rng, work: next(sample_batches(pairs(work), v)), 1, 0),
    ("seed", "seed", lambda v, rng, work: derive_rng(v), 1, -1),
    ("key", "key", lambda v, rng, work: derive_rng(1, v), 2, -1),
    ("sweep-units", "unit count",
     lambda v, rng, work: sweep_units(IMAGE, CLASSES, SPEC, Method.FERN_NB, [v], 0, 2), 1, 0),
    ("compare-seed", "seed",
     lambda v, rng, work: compare_methods(IMAGE, CLASSES, SPEC, 1, v, fern_size=2), 1, -1),
]

# views render on one thread: the calls that still take ``threads`` take
# only 1, and reject 0 and 2 alike
THREADS = [
    ("test-views", partial(dataset.test_views, IMAGE, SPEC, 0)),
    ("training-set", lambda v: dataset.generate_training_set(IMAGE, CLASSES, SPEC, 0, v)),
    ("test-set", lambda v: dataset.generate_test_set(IMAGE, CLASSES, SPEC, 0, v)),
    ("compare", lambda v: compare_methods(IMAGE, CLASSES, SPEC, 1, 0, 2, threads=v)),
]
ENTRIES += [
    (f"threads-{name}-{out}", "threads", lambda v, rng, work, call=call: call(v), 1, out)
    for name, call in THREADS for out in (0, 2)
]

BAD = {"float": 2.5, "bool": True, "str": "3"}


@pytest.fixture
def work(monkeypatch):
    """What the library has begun: renders, test draws and stream reads."""
    done = []

    def spy(step, real):
        def call(*args, **kwargs):
            done.append(step)
            return real(*args, **kwargs)

        return call

    for module in (keypoints, dataset):
        monkeypatch.setattr(module, "warp_image", spy("render", module.warp_image))
    monkeypatch.setattr(ferns, "random_tests", spy("draw", ferns.random_tests))
    return done


@pytest.mark.parametrize("kind", [*BAD, "out-of-range"])
@pytest.mark.parametrize("name, call, good, out", [
    pytest.param(*entry[1:], id=entry[0]) for entry in ENTRIES
])
def test_rejected_before_any_work(work, kind, name, call, good, out):
    value = BAD.get(kind, out)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(InvalidArgument, match=f"^{name} must be"):
        call(value, rng, work)
    assert work == []
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("name, call, good, out", [
    pytest.param(*entry[1:], id=entry[0]) for entry in ENTRIES
])
def test_numpy_integer_accepted(work, name, call, good, out):
    for value in (good, np.int64(good), np.uint8(good)):
        call(value, np.random.default_rng(0), work)


# inputs of the wrong kind for entry points that take no count: each raises
# InvalidArgument before any work
WRONG_KIND = [
    ("view-id-float", lambda: dataset.protocol_view(IMAGE, SPEC, 1, STREAM_TEST, 1.5)),
    ("view-id-bool", lambda: dataset.protocol_view(IMAGE, SPEC, 1, STREAM_TEST, True)),
    ("view-id-str", lambda: dataset.protocol_view(IMAGE, SPEC, 1, STREAM_TEST, "1")),
    ("deform-none", lambda: AffineDeform(None, 0, 1, 1)),
    ("deform-str", lambda: AffineDeform("1", 0, 1, 1)),
    ("deform-beyond-float64", lambda: AffineDeform(10**400, 0, 1, 1)),
    ("classify-none", lambda: MODEL.classify(IMAGE, None, 10)),
    ("posterior-list", lambda: MODEL.posterior(IMAGE, [10], 10)),
    ("counts-str", lambda: FernModel(CLASSES, MODEL.tests, None, "x")),
    ("counts-object", lambda: FernModel(CLASSES, MODEL.tests, None, object())),
    ("tests-ragged", lambda: FernModel(CLASSES, [[[1, 0, 0, 1]], [[1, 2]]])),
    ("counts-ragged", lambda: FernModel(CLASSES, MODEL.tests, None, [[1], [2, 3]])),
    ("classes-none", lambda: FernModel(None, MODEL.tests)),
    ("classes-coords", lambda: TreeForest(CLASSES.coords, MODEL.tests)),
    ("random-classes-str", lambda: FernModel.random("x", 2, 3, np.random.default_rng(0))),
    ("random-average-fern",
     lambda: FernModel.random(CLASSES, 2, 2, np.random.default_rng(0), Combination.AVERAGE)),
    ("random-patch-past-int16",
     lambda: FernModel.random(ClassSet([(4e4, 4e4)], 65537), 1, 1, np.random.default_rng(0))),
    ("patches-ragged", lambda: MODEL.classify_patches([[[1, 2], [3]]])),
    ("image-ragged", lambda: GrayImage.from_array([[1, 2], [3]])),
    ("batch-ragged", lambda: next(sample_batches([([[1, 2], [3]], 0)]))),
    ("batch-labels-ragged",
     lambda: next(sample_batches([(np.zeros((2, 5, 5), np.uint8), [[1], [2, 3]])]))),
    ("warp-points-ragged", lambda: warp_points(DEFORM, 10, 10, [[1, 2], [3]])),
    ("unwarp-points-ragged", lambda: unwarp_points(DEFORM, 10, 10, [[1, 2], [3]])),
    ("box-mean-ragged", lambda: box_mean([[1, 2], [3]], 1)),
    ("warp-points-three-columns", lambda: warp_points(DEFORM, 10, 10, [[1, 2, 3]])),
    ("unwarp-points-str", lambda: unwarp_points(DEFORM, 10, 10, [["a", "b"]])),
    ("box-mean-1d", lambda: box_mean(np.arange(5), 1)),
    ("warp-mask-ragged", lambda: warp_image(IMAGE, DEFORM, 2, 2, mask=[[True, False], [True]])),
    # file readers take bytes, a bytearray or a memoryview
    ("pgm-none", lambda: read_pgm(None)),
    ("pgm-str", lambda: read_pgm("P5 1 1 255 a")),
    ("load-none", lambda: FernModel.load(None)),
    ("load-str", lambda: TreeForest.load(MODEL.save().decode("latin-1"))),
]

# every entry point that takes an image takes a GrayImage, not its pixels
PIXELS = IMAGE.pixels
WRONG_KIND += [
    ("classify-pixels", lambda: MODEL.classify(PIXELS, 10, 10)),
    ("posterior-pixels", lambda: MODEL.posterior(PIXELS, 10, 10)),
    ("classify-image-none", lambda: MODEL.classify(None, 10, 10)),
    ("detect-pixels", lambda: detect_keypoints(PIXELS, 5, patch_size=9)),
    ("warp-pixels", lambda: warp_image(PIXELS, DEFORM, 48, 40)),
    ("noise-pixels", lambda: add_noise(PIXELS, 1.0, np.random.default_rng(0))),
    ("noise-zero-pixels", lambda: add_noise(PIXELS, 0.0, np.random.default_rng(0))),
    ("write-pgm-pixels", lambda: write_pgm(PIXELS)),
    ("box-smooth-pixels", lambda: box_smooth(PIXELS, 1)),
    ("box-smooth-zero-pixels", lambda: box_smooth(PIXELS, 0)),
    ("select-pixels",
     lambda: select_stable_classes(PIXELS, 1, 2, np.random.default_rng(0), patch_size=5)),
    ("test-views-pixels", lambda: dataset.test_views(PIXELS, SPEC, 0)),
    ("training-set-pixels", lambda: dataset.generate_training_set(PIXELS, CLASSES, SPEC, 0)),
    ("test-set-pixels", lambda: dataset.generate_test_set(PIXELS, CLASSES, SPEC, 0)),
    ("protocol-view-pixels", lambda: dataset.protocol_view(PIXELS, SPEC, 1, STREAM_TEST, 0)),
    ("sweep-pixels",
     lambda: sweep_units(PIXELS, CLASSES, SPEC, Method.FERN_NB, [1], 0, 2)),
    ("compare-pixels", lambda: compare_methods(PIXELS, CLASSES, SPEC, 1, 0, fern_size=2)),
]

# every entry point that draws takes a numpy Generator and nothing else
DRAWS = [
    ("random-tests", partial(random_tests, 4, 5)),
    ("random-model", lambda rng: FernModel.random(CLASSES, 2, 2, rng)),
    ("deformation", sample_deformation),
    ("select", lambda rng: select_stable_classes(IMAGE, 1, 2, rng, patch_size=5)),
    ("noise", lambda rng: add_noise(IMAGE, 1.0, rng)),
]
NOT_GENERATORS = {"none": None, "int": 0, "random-state": np.random.RandomState(0)}
WRONG_KIND += [
    (f"{name}-rng-{kind}", partial(draw, rng))
    for name, draw in DRAWS for kind, rng in NOT_GENERATORS.items()
]


@pytest.mark.parametrize("call", [pytest.param(c, id=i) for i, c in WRONG_KIND])
def test_wrong_kind_rejected_before_any_work(work, call):
    comparisons = MODEL.pixel_comparisons
    with pytest.raises(InvalidArgument):
        call()
    assert work == []
    assert MODEL.pixel_comparisons == comparisons


# a random model's combination passes the constructor's rule before the
# first draw, so a rejected call leaves the caller's rng as it was
def test_random_rejects_a_combination_before_moving_the_rng():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(InvalidArgument, match="^FernModel takes Combination.NAIVE_BAYES, got"):
        FernModel.random(CLASSES, 2, 2, rng, Combination.AVERAGE)
    assert rng.bit_generator.state == state


def test_view_id_takes_numpy_integers():
    view = dataset.protocol_view(IMAGE, SPEC, 1, STREAM_TEST, np.int64(1))
    assert view.image == dataset.protocol_view(IMAGE, SPEC, 1, STREAM_TEST, 1).image


def test_bool_is_a_real_number():
    assert AffineDeform(0, 0, True, 1).lambda1 is True


def test_readers_take_any_bytes_like_file():
    pgm, model = write_pgm(IMAGE), MODEL.save()
    for kind in (bytearray, memoryview):
        assert read_pgm(kind(pgm)) == IMAGE
        assert FernModel.load(kind(model)).save() == model


def trained(kind):
    model = kind.random(CLASSES, 2, 2, np.random.default_rng(1))
    return model.train(dataset._blocks(IMAGE, CLASSES, SPEC, 1, dataset.STREAM_TRAIN))


def pgm_round_trip(img):
    assert read_pgm(write_pgm(img)) == img


def model_round_trip(model):
    again = type(model).load(model.save())
    assert again.save() == model.save()
    assert again.classes == model.classes and again.combination == model.combination
    assert np.array_equal(again.tests, model.tests)
    assert np.array_equal(again.counts, model.counts)


# a valid file of each kind the library reads, its reader, and the round
# trip what it reads must pass
FILES = [
    (write_pgm(make_texture(6, 5, seed=1)), read_pgm, pgm_round_trip),
    (b"P5 # a comment\n3 2\n7\n" + bytes([0, 1, 2, 5, 6, 7]), read_pgm, pgm_round_trip),
    (trained(FernModel).save(), FernModel.load, model_round_trip),
    (trained(TreeForest).save(), TreeForest.load, model_round_trip),
]


@st.composite
def mutated(draw):
    """One of FILES with bytes flipped, then cut short or extended."""
    data, read, round_trip = draw(st.sampled_from(FILES))
    data = bytearray(data)
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(data) - 1))
        data[i] ^= draw(st.integers(1, 255))
    end = draw(st.sampled_from(["keep", "truncate", "append"]))
    if end == "truncate":
        del data[draw(st.integers(0, len(data))):]
    elif end == "append":
        data += draw(st.binary(min_size=1, max_size=8))
    return bytes(data), read, round_trip


@given(mutated())
@settings(max_examples=1000, deadline=None, derandomize=True)
def test_mutated_files_round_trip_or_raise_fernkit_errors(case):
    """A file with flipped, cut or added bytes either reads and round-trips
    or raises a FernkitError; a bare numpy or Python error fails."""
    data, read, round_trip = case
    try:
        found = read(data)
    except FernkitError:
        return
    round_trip(found)


@st.composite
def counted_models(draw):
    """A fern or tree model's parts around generated counts: a count width,
    a largest count from 1 to the width's limit, and unit 0's leaf rows held
    by every unit in another leaf order, so unit totals agree unless one
    count is then flipped. Small counts put the count lookup within the
    table's size, large ones past it."""
    kind = draw(st.sampled_from([FernModel, TreeForest]))
    h, units, depth = draw(st.integers(1, 4)), draw(st.integers(1, 40)), draw(st.integers(1, 3))
    width = draw(st.sampled_from(ferns.COUNT_WIDTHS))
    largest = draw(st.sampled_from([1, 3, 40, 2 ** (8 * width) - 1]))
    leaves = 1 << depth
    cells = draw(st.lists(st.integers(0, largest), min_size=leaves * h, max_size=leaves * h))
    rows = np.array(cells, dtype=f"u{width}").reshape(leaves, h)
    shifts = draw(st.lists(st.integers(0, leaves - 1), min_size=units, max_size=units))
    counts = np.stack([np.roll(rows, shift, axis=0) for shift in shifts])
    if draw(st.booleans()):
        counts[-1, 0, 0] ^= 1
    draw_tests = fern_tests if kind is FernModel else tree_tests
    tests = draw_tests(units, depth, 5, np.random.default_rng(draw(st.integers(0, 2**16))))
    return kind, tests, draw(st.sampled_from(kind.combinations)), counts


@given(counted_models(), st.integers(0, 2**16))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_generated_counts_score_one_location_as_a_batch_or_raise(case, seed):
    """One-location scores (through the count lookup or the table) equal a
    two-patch batch's bytes; the constructor may raise a FernkitError."""
    kind, tests, combination, counts = case
    try:
        model = kind(grid_classes(counts.shape[2], 5), tests, combination, counts)
    except FernkitError:
        return
    patches = random_patches(np.random.default_rng(seed), 2, 5)
    label, score = model.classify(GrayImage(patches[0]), 2, 2)
    # a lookup is built only when it holds no more values than the table
    lookup = cached(model, "_count_lookup")
    assert lookup is None or lookup[0].size <= model._counts.size
    # a two-patch batch reads the table or the per-unit posteriors
    labels, scores = model.classify_patches(patches)
    assert (label, np.float64(score).tobytes()) == (labels[0], scores[:1].tobytes())
