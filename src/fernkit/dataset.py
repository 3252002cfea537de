"""Synthesis of training and test patch sets from one reference image.

Training views cover every rotation bucket with a fixed number of random
deformations each; test views draw all parameters from the full ranges and
get additive noise. View ``i`` of a stream is one function of (seed, stream,
view_id), ``_view_params``, which every iterator and ``protocol_view`` use:
any view renders alone with the same bytes, and training and test streams
stay disjoint under equal seeds.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import astuple, dataclass, field, fields, replace
from typing import Iterable, Iterator

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import (
    InvalidArgument, InvalidLabel, InvalidPatch, checked_array, checked_count, checked_sigma,
)
from .image import (
    AffineDeform,
    GrayImage,
    SCALE_HIGH,
    SCALE_LOW,
    TWO_PI,
    add_noise,
    sample_deformation,
    warp_image,
    warp_points,
    unwarp_points,
)
from .keypoints import ClassSet, window_fits

STREAM_TRAIN = 0
STREAM_TEST = 1
STREAM_MODEL = 2
STREAM_CLASSES = 3

# Room a stack starts with. glibc's malloc serves a request this large from
# a mapping of its own (its mmap threshold never exceeds 32 MiB), so growing
# the stack remaps it instead of copying it, whatever else the heap holds;
# pages never written take no memory.
RESERVED_BYTES = 2**25

MANIFEST_HEADER = ["view_id", *(f.name for f in fields(AffineDeform)), "noise_sigma"]


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (seed >= 0, stream label, view id, ...);
    each key is an integer >= 0, as the seed is."""
    keys = [checked_count(k, "key") for k in key]
    return np.random.default_rng([checked_count(seed, "seed"), *keys])


@dataclass(frozen=True)
class DatasetSpec:
    """Protocol constants for view synthesis."""

    views_per_degree: int
    rotation_degrees: int = 360
    test_views: int = 1000
    noise_sigma: float = 10.0

    def __post_init__(self):
        for name in ("views_per_degree", "rotation_degrees", "test_views"):
            checked_count(getattr(self, name), name)
        checked_sigma(self.noise_sigma, "noise_sigma")

    @property
    def training_views(self) -> int:
        return self.views_per_degree * self.rotation_degrees


@dataclass(frozen=True)
class View:
    view_id: int
    deform: AffineDeform
    image: GrayImage
    noise_sigma: float = 0.0
    # (classes, centers, keep) of the window layout a patch stream rendered
    # this view for, so extract_patches need not compute it again
    layout: tuple | None = field(default=None, repr=False, compare=False)


def _view_count(spec: DatasetSpec, stream: int) -> int:
    counts = {STREAM_TRAIN: spec.training_views, STREAM_TEST: spec.test_views}
    return counts.get(stream, 0)


def _view_params(img: GrayImage, spec: DatasetSpec, seed: int, stream: int,
                 view_id: int, deform: AffineDeform | None = None) -> tuple:
    """(view_id, deform, noise sigma, noise rng) of one training or test view,
    with ``deform`` in place of the drawn one if given. Training views fix the
    rotation bucket by the view id and get no noise; test views draw every
    parameter from the full ranges, then their noise from the same rng."""
    if stream == STREAM_TRAIN and deform is not None:
        return view_id, deform, 0.0, None
    rng = derive_rng(seed, stream, view_id)
    cx, cy = img.center
    if stream == STREAM_TEST:
        if deform is None:
            deform = replace(sample_deformation(rng), tx=cx, ty=cy)
        return view_id, deform, spec.noise_sigma, rng
    bucket_width = TWO_PI / spec.rotation_degrees
    theta = (view_id // spec.views_per_degree + rng.uniform()) * bucket_width
    phi = rng.uniform(0.0, TWO_PI)
    lambda1 = rng.uniform(SCALE_LOW, SCALE_HIGH)
    lambda2 = rng.uniform(SCALE_LOW, SCALE_HIGH)
    return view_id, AffineDeform(theta, phi, lambda1, lambda2, tx=cx, ty=cy), 0.0, None


def _window_layout(
    deform: AffineDeform, classes: ClassSet, w: int, h: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rounded window centres of every class in one w x h view of a w x h
    source, and which to keep.

    A window is dropped when it would cross the view border or cover pixels
    the warped source never painted (background fill). One ``warp_points``
    and one ``unwarp_points`` call cover all classes and their 4 corners.
    """
    m = classes.margin
    centers = np.rint(warp_points(deform, w, h, classes.coords)).astype(np.int64)
    in_frame = window_fits(centers[:, 0], centers[:, 1], w, h, m)
    corners = centers[:, None, :] + np.array([(-m, -m), (m, -m), (-m, m), (m, m)])
    back = unwarp_points(deform, w, h, corners.reshape(-1, 2)).reshape(-1, 4, 2)
    low, high = back.min(axis=1), back.max(axis=1)
    in_src = (
        (low[:, 0] >= 0) & (high[:, 0] <= w - 1)
        & (low[:, 1] >= 0) & (high[:, 1] <= h - 1)
    )
    return centers, in_frame & in_src


def _windows(arr: np.ndarray, centers: np.ndarray, m: int, writeable: bool = False):
    """A strided view of all p x p windows of ``arr`` (p = 2m + 1) and the
    index of those centred on the (x, y) rows of ``centers``, which lie in
    ``arr``: ``view[index]`` reads them as one (k, p, p) block, and with
    ``writeable``, ``view[index] = value`` writes through to ``arr``."""
    p = 2 * m + 1
    if not len(centers):  # ``arr`` may then be smaller than one window
        arr = np.zeros((p, p), dtype=arr.dtype)
    (h, w), (sy, sx) = arr.shape, arr.strides
    # as_strided skips the checks that make sliding_window_view ~3x slower
    view = as_strided(arr, (h - p + 1, w - p + 1, p, p), (sy, sx, sy, sx), writeable=writeable)
    return view, (centers[:, 1] - m, centers[:, 0] - m)


def _render(img: GrayImage, view_id: int, deform: AffineDeform,
            sigma: float, rng: np.random.Generator | None,
            classes: ClassSet | None = None) -> View:
    mask = layout = None
    if classes is not None:
        centers, keep = _window_layout(deform, classes, img.width, img.height)
        layout = (classes, centers, keep)
        mask = np.zeros((img.height, img.width), dtype=bool)
        windows, kept = _windows(mask, centers[keep], classes.margin, writeable=True)
        windows[kept] = True
    rendered = warp_image(img, deform, img.width, img.height, mask=mask)
    if sigma > 0:
        rendered = add_noise(rendered, sigma, rng)
    return View(view_id, deform, rendered, sigma, layout)


def _views(
    img: GrayImage, spec: DatasetSpec, seed: int, stream: int, classes: ClassSet | None,
) -> Iterator[View]:
    """The views of one stream, their parameters drawn as they are rendered.

    Views are full frames unless ``classes`` is given: then only the pixels
    under the windows ``extract_patches`` keeps are rendered, and the rest
    read BACKGROUND. Crops from either render are identical, and a noisy
    view draws the same full-frame noise field either way.
    """
    for i in range(_view_count(spec, stream)):
        yield _render(img, *_view_params(img, spec, seed, stream, i), classes)


def test_views(
    img: GrayImage, spec: DatasetSpec, seed: int, threads: int = 1
) -> Iterator[View]:
    """Render test views as full frames: full-range deforms plus additive
    noise. Views render on one thread, so ``threads`` must be 1."""
    checked_count(threads, "threads", low=1, high=1)
    return _views(img, spec, seed, STREAM_TEST, None)


def protocol_view(
    img: GrayImage, spec: DatasetSpec, seed: int, stream: int, view_id: int,
    deform: AffineDeform | None = None,
) -> View:
    """View ``view_id`` of the training or test stream, rendered alone as a
    full frame with the bytes the stream's iterator gives it; with
    ``deform``, that view rendered with ``deform`` in place of the drawn one
    (a test view keeps its noise)."""
    if not isinstance(view_id, numbers.Integral) or isinstance(view_id, bool):
        raise InvalidArgument(f"view id must be an integer, got {view_id!r}")
    if not 0 <= view_id < _view_count(spec, stream):
        raise InvalidArgument(f"view id {view_id} beyond the protocol's view count")
    return _render(img, *_view_params(img, spec, seed, stream, view_id, deform))


def extract_patches(view: View, classes: ClassSet) -> tuple[np.ndarray, np.ndarray]:
    """Crop one patch per class from a view rendered at its source's size.

    Returns the view's block: the kept patches as one read-only (k, p, p)
    copy and their labels. A class is skipped, its label absent, when its
    patch would cross the view border or cover pixels the warped source
    never painted (background fill). The view may be a full frame or a
    patch stream's render of the kept windows only; both give the same
    crops. A stream's
    view carries the layout it was rendered for, which is reused when it was
    made for the same ``classes``.
    """
    layout = view.layout
    if layout is not None and layout[0] is classes:
        centers, keep = layout[1:]
    else:
        centers, keep = _window_layout(view.deform, classes, view.image.width, view.image.height)
    windows, kept = _windows(view.image.pixels, centers[keep], classes.margin)
    patches = windows[kept]
    patches.flags.writeable = False
    return patches, np.flatnonzero(keep)


def _blocks(
    img: GrayImage, classes: ClassSet, spec: DatasetSpec, seed: int, stream: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The training or test protocol as one read-only (k, p, p) patch block
    and its k labels per view, cropped by ``extract_patches``, which
    ``sample_batches`` stacks without a per-patch object."""
    return (extract_patches(view, classes) for view in _views(img, spec, seed, stream, classes))


def _pairs(blocks: Iterator[tuple[np.ndarray, np.ndarray]]) -> Iterator[tuple[np.ndarray, int]]:
    """The per-patch flattening of blocks: each zero-copy row and its int label."""
    for patches, labels in blocks:
        yield from zip(patches, labels.tolist())


def generate_training_set(
    img: GrayImage, classes: ClassSet, spec: DatasetSpec, seed: int, threads: int = 1,
) -> Iterator[tuple[np.ndarray, int]]:
    """(patch, label) pairs of the rotation-bucketed training protocol, each
    patch a read-only (p, p) row of its view's block."""
    checked_count(threads, "threads", low=1, high=1)
    return _pairs(_blocks(img, classes, spec, seed, STREAM_TRAIN))


def generate_test_set(
    img: GrayImage, classes: ClassSet, spec: DatasetSpec, seed: int, threads: int = 1,
) -> Iterator[tuple[np.ndarray, int]]:
    """(patch, label) pairs of noisy views with independent full-range
    deformations, each patch a read-only (p, p) row of its view's block."""
    checked_count(threads, "threads", low=1, high=1)
    return _pairs(_blocks(img, classes, spec, seed, STREAM_TEST))


def sample_batches(
    samples: Iterable, size: int | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Stack a stream of (patch, label) pairs, the patch an (h, w) uint8
    array or a GrayImage, and (patches, labels) blocks of k (h, w) uint8
    patches and k labels into (n, h, w) uint8 patches and int64 labels,
    ``size`` at a time (the whole stream if None); a chunk boundary may
    split a block.

    Each item is checked whole as it arrives, then its pixels and labels
    are copied into its chunk's arrays, which grow in place, so a stream is
    held once, not also as its items. A chunk is yielded as soon as it is
    full, as arrays of its own that are never written again. Any other item
    or patch dtype raises InvalidPatch (a ragged patch or label list
    InvalidArgument), and a label that is not a whole number int64 holds
    InvalidLabel."""
    if size is not None:
        size = checked_count(size, "size", low=1)
    stack, n = None, 0
    for item in samples:
        rows, values = _rows(item)
        if stack is not None and rows.shape[1:] != stack.shape[1:]:
            raise InvalidPatch("patches of one chunk differ in shape")
        while True:  # the rows fill the chunk up to size; the rest start the next
            if stack is None:
                stack, labels = _reserved(rows.shape[1:], size)
            put = len(rows) if size is None else min(len(rows), size - n)
            if n + put > len(stack):
                # resize moves or remaps the buffers, of which no view is out
                grown = max(n + put, len(stack) * 5 // 4)
                grown = min(grown, size or grown)
                stack.resize((grown, *stack.shape[1:]), refcheck=False)
                labels.resize(grown, refcheck=False)
            stack[n : n + put] = rows[:put]
            labels[n : n + put] = values[:put]
            n, rows, values = n + put, rows[put:], values[put:]
            if n == size:
                yield stack, labels
                stack, n = None, 0
            if not len(rows):
                break
    if n:
        stack.resize((n, *stack.shape[1:]), refcheck=False)
        labels.resize(n, refcheck=False)
        yield stack, labels


def _reserved(shape: tuple, size: int | None) -> tuple[np.ndarray, np.ndarray]:
    """An empty uint8 stack of ``shape`` rows and its int64 labels, with room
    for ``size`` rows, or for RESERVED_BYTES of them if fewer or ``size`` is
    None."""
    rows = RESERVED_BYTES // max(1, math.prod(shape)) + 1
    if size is not None:
        rows = min(size, rows)
    return np.empty((rows, *shape), np.uint8), np.empty(rows, np.int64)


def _rows(item) -> tuple[np.ndarray, np.ndarray | list]:
    """A stream item's patches as (k, h, w) uint8 rows, and its k labels as
    int64 values."""
    try:
        patch, label = item
    except (TypeError, ValueError):  # 5, a 3-tuple, a bare (3, 3) array
        raise InvalidPatch(
            "a stream item is a (patch, label) pair or a (patches, labels) block"
        ) from None
    patch = patch.pixels if isinstance(patch, GrayImage) else checked_array(patch, "patch")
    block = None if isinstance(label, numbers.Number) else checked_array(label, "labels")
    if block is not None and block.ndim:  # k patches and their k labels
        if block.ndim != 1 or patch.ndim != 3 or len(patch) != block.size:
            raise InvalidPatch("a block needs one (h, w) patch per label")
    elif patch.ndim != 2:
        raise InvalidPatch(f"a pair needs one (h, w) patch, got shape {patch.shape}")
    else:
        patch, block = patch[None], [label]
    if patch.dtype != np.uint8:
        raise InvalidPatch(f"patches must be uint8, got {patch.dtype}")
    if type(label) is int and -(2**63) <= label < 2**63:  # most pairs' label
        return patch, block
    return patch, _whole_labels(block)


def _whole_labels(labels) -> np.ndarray:
    """1-d ``labels`` as int64, if each is a whole number int64 holds and
    not a bool, which would pass as class 0 or 1."""
    values = np.asarray(labels)
    if values.dtype.kind not in "iu" or values.max(initial=0) >= 2**63:
        for label in values.tolist():
            if isinstance(label, (bool, np.bool_)) or not isinstance(label, numbers.Real):
                raise InvalidLabel(f"label {label!r} is not a whole int64 number")
            # a cast would truncate a fractional label and wrap a large one
            if not (-(2**63) <= label < 2**63 and label == math.floor(label)):
                raise InvalidLabel(f"label {label} is not a whole int64 number")
    return values.astype(np.int64)


def manifest_row(view: View) -> dict:
    values = (view.view_id, *map(repr, astuple(view.deform)), repr(float(view.noise_sigma)))
    return dict(zip(MANIFEST_HEADER, values))


def write_manifest(rows: Iterable[dict], fileobj) -> None:
    writer = csv.DictWriter(fileobj, fieldnames=MANIFEST_HEADER, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)

