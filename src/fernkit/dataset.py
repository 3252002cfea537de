"""Synthesis of training and test patch sets from one reference image.

Training views cover every rotation bucket with a fixed number of random
deformations each; test views draw all parameters from the full ranges and
get additive noise. View ``i`` of a stream is one function of (seed, stream,
view_id), ``_view_params``, which every iterator and ``protocol_view`` use:
parallel and serial generation emit identical streams, any view renders
alone with the same bytes, and training and test streams stay disjoint
under equal seeds.
"""

from __future__ import annotations

import csv
import hashlib
import math
import struct
from concurrent.futures import ThreadPoolExecutor
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import InvalidArgument, InvalidLabel, InvalidPatch
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

MANIFEST_HEADER = [
    "view_id",
    "theta",
    "phi",
    "lambda1",
    "lambda2",
    "tx",
    "ty",
    "noise_sigma",
]


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (seed, stream label, view id, ...)."""
    return np.random.default_rng([int(seed), *map(int, key)])


@dataclass(frozen=True)
class DatasetSpec:
    """Protocol constants for view synthesis."""

    views_per_degree: int
    rotation_degrees: int = 360
    test_views: int = 1000
    noise_sigma: float = 10.0

    def __post_init__(self):
        if min(self.views_per_degree, self.rotation_degrees, self.test_views) < 0:
            raise InvalidArgument("all counts must be >= 0")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise InvalidArgument(
                f"noise_sigma must be finite and >= 0, got {self.noise_sigma}"
            )

    @property
    def training_views(self) -> int:
        return self.views_per_degree * self.rotation_degrees


@dataclass(frozen=True)
class PatchSample:
    """One labeled training or test patch with its generating deformation."""

    patch: GrayImage
    label: int
    deform: AffineDeform
    view_id: int


@dataclass(frozen=True)
class View:
    view_id: int
    deform: AffineDeform
    image: GrayImage
    noise_sigma: float = 0.0
    # (classes, src_size, centers, keep) of the window layout a patch stream
    # rendered this view for, so extract_patches need not compute it again
    layout: tuple | None = field(default=None, repr=False, compare=False)


@dataclass
class GenStats:
    """Bookkeeping filled in while a generator runs."""

    views: int = 0
    samples: int = 0
    skips: Counter = field(default_factory=Counter)


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
    deform: AffineDeform, classes: ClassSet, size: tuple[int, int],
    src_size: tuple[int, int],
) -> tuple[np.ndarray, np.ndarray]:
    """Rounded window centres of every class in one view, and which to keep.

    A window is dropped when it would cross the view border or cover pixels
    the warped source never painted (background fill). One ``warp_points``
    and one ``unwarp_points`` call cover all classes and their 4 corners.
    """
    w, h = size
    src_w, src_h = src_size
    m = classes.margin
    centers = np.rint(warp_points(deform, w, h, classes.coords)).astype(np.int64)
    in_frame = window_fits(centers[:, 0], centers[:, 1], w, h, m)
    corners = centers[:, None, :] + np.array([(-m, -m), (m, -m), (-m, m), (m, m)])
    back = unwarp_points(deform, w, h, corners.reshape(-1, 2)).reshape(-1, 4, 2)
    low, high = back.min(axis=1), back.max(axis=1)
    in_src = (
        (low[:, 0] >= 0) & (high[:, 0] <= src_w - 1)
        & (low[:, 1] >= 0) & (high[:, 1] <= src_h - 1)
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
        size = (img.width, img.height)
        centers, keep = _window_layout(deform, classes, size, size)
        layout = (classes, size, centers, keep)
        mask = np.zeros((img.height, img.width), dtype=bool)
        windows, kept = _windows(mask, centers[keep], classes.margin, writeable=True)
        windows[kept] = True
    rendered = warp_image(img, deform, img.width, img.height, mask=mask)
    if sigma > 0:
        rendered = add_noise(rendered, sigma, rng)
    return View(view_id, deform, rendered, sigma, layout)


def _iter_views(img, params, threads: int, classes: ClassSet | None) -> Iterator[View]:
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            yield from pool.map(lambda p: _render(img, *p, classes), params)
    else:
        for p in params:
            yield _render(img, *p, classes)


def _views(
    img: GrayImage, spec: DatasetSpec, seed: int, stream: int, threads: int,
    classes: ClassSet | None,
) -> Iterator[View]:
    """The views of one stream, their parameters drawn as they are rendered.

    Views are full frames unless ``classes`` is given: then only the pixels
    under the windows ``extract_patches`` keeps are rendered, and the rest
    read BACKGROUND. Crops from either render are identical, and a noisy
    view draws the same full-frame noise field either way.
    """
    # checked before any view is rendered, not when the iterator first runs
    if threads < 1:
        raise InvalidArgument(f"threads must be >= 1, got {threads}")
    params = (
        _view_params(img, spec, seed, stream, i) for i in range(_view_count(spec, stream))
    )
    return _iter_views(img, params, threads, classes)


def training_views(
    img: GrayImage, spec: DatasetSpec, seed: int, threads: int = 1
) -> Iterator[View]:
    """Render the training protocol's views_per_degree x degrees warped
    views as full frames."""
    return _views(img, spec, seed, STREAM_TRAIN, threads, None)


def test_views(
    img: GrayImage, spec: DatasetSpec, seed: int, threads: int = 1
) -> Iterator[View]:
    """Render test views as full frames: full-range deforms plus additive noise."""
    return _views(img, spec, seed, STREAM_TEST, threads, None)


def protocol_view(
    img: GrayImage, spec: DatasetSpec, seed: int, stream: int, view_id: int,
    deform: AffineDeform | None = None,
) -> View:
    """View ``view_id`` of the training or test stream, rendered alone as a
    full frame with the bytes the stream's iterator gives it; with
    ``deform``, that view rendered with ``deform`` in place of the drawn one
    (a test view keeps its noise)."""
    if not 0 <= view_id < _view_count(spec, stream):
        raise InvalidArgument(f"view id {view_id} beyond the protocol's view count")
    return _render(img, *_view_params(img, spec, seed, stream, view_id, deform))


def extract_patches(
    view: View, classes: ClassSet, src_size: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Crop one patch per class from a rendered view.

    Returns the kept patches as one read-only (k, p, p) copy, their labels
    and the skipped labels. A class is skipped when its patch would cross
    the view border or cover pixels the warped source never painted
    (background fill). The view may be a full frame or a patch stream's
    render of the kept windows only; both give the same crops. A stream's
    view carries the layout it was rendered for, which is reused when it was
    made for the same ``classes`` and ``src_size``.
    """
    layout = view.layout
    if layout is not None and layout[0] is classes and layout[1] == tuple(src_size):
        centers, keep = layout[2:]
    else:
        size = (view.image.width, view.image.height)
        centers, keep = _window_layout(view.deform, classes, size, src_size)
    windows, kept = _windows(view.image.pixels, centers[keep], classes.margin)
    patches = windows[kept]
    patches.flags.writeable = False
    return patches, np.flatnonzero(keep), np.flatnonzero(~keep).tolist()


def _view_blocks(
    img: GrayImage, classes: ClassSet, views: Iterator[View], stats: GenStats | None
) -> Iterator[tuple[View, np.ndarray, np.ndarray]]:
    """Each view with its read-only (k, p, p) patch block and k labels."""
    for view in views:
        patches, labels, skipped = extract_patches(view, classes, (img.width, img.height))
        if stats is not None:
            stats.views += 1
            stats.skips.update(skipped)
            stats.samples += len(labels)
        yield view, patches, labels


def _blocks(
    img: GrayImage, classes: ClassSet, spec: DatasetSpec, seed: int, stream: int,
    stats: GenStats | None = None, threads: int = 1,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The training or test protocol as one (patches, labels) block per view,
    which ``sample_batches`` stacks without a per-patch object."""
    views = _views(img, spec, seed, stream, threads, classes)
    return ((p, l) for _, p, l in _view_blocks(img, classes, views, stats))


def _samples(blocks: Iterator[tuple[View, np.ndarray, np.ndarray]]) -> Iterator[PatchSample]:
    """The per-patch flattening of view blocks: zero-copy rows of each block."""
    for view, patches, labels in blocks:
        for patch, label in zip(patches, labels.tolist()):
            yield PatchSample(GrayImage(patch), label, view.deform, view.view_id)


def generate_training_set(
    img: GrayImage,
    classes: ClassSet,
    spec: DatasetSpec,
    seed: int,
    stats: GenStats | None = None,
    threads: int = 1,
) -> Iterator[PatchSample]:
    """Labeled patches from the rotation-bucketed training protocol."""
    views = _views(img, spec, seed, STREAM_TRAIN, threads, classes)
    return _samples(_view_blocks(img, classes, views, stats))


def generate_test_set(
    img: GrayImage,
    classes: ClassSet,
    spec: DatasetSpec,
    seed: int,
    stats: GenStats | None = None,
    threads: int = 1,
) -> Iterator[PatchSample]:
    """Labeled noisy patches from independent full-range deformations."""
    views = _views(img, spec, seed, STREAM_TEST, threads, classes)
    return _samples(_view_blocks(img, classes, views, stats))


def sample_batches(
    samples: Iterable, size: int | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Stack PatchSamples, other ``patch``/``label`` objects, (patch, label)
    pairs or a view's (patches, labels) block into (n, h, w) patches and
    int64 labels, ``size`` at a time (the whole stream if None); a chunk
    boundary may split a block. Items are not held, only pixels and labels.
    A label that is not a whole number raises InvalidLabel before its chunk
    is yielded."""
    if size is not None and size < 1:
        raise InvalidArgument(f"chunk size must be >= 1, got {size}")
    parts, labels = [], []
    for item in samples:
        patch, label = (item.patch, item.label) if hasattr(item, "patch") else item
        patch = patch.pixels if isinstance(patch, GrayImage) else np.asarray(patch)
        if np.ndim(label):  # a block: k patches and their k labels
            label = np.asarray(label)
            if label.ndim != 1 or patch.ndim != 3 or len(patch) != label.size:
                raise InvalidPatch("a block needs one (h, w) patch per label")
            parts.append(patch)
            labels.extend(label.tolist())
        else:
            parts.append(patch[None])
            labels.append(label)
        if size is not None and len(labels) >= size:
            patches, stacked = _stacked(parts, labels)
            whole = len(labels) - len(labels) % size
            for start in range(0, whole, size):
                yield patches[start : start + size], stacked[start : start + size]
            parts = [patches[whole:]] if whole < len(labels) else []
            labels = labels[whole:]
    if labels:
        yield _stacked(parts, labels)


def _stacked(parts: list, labels: list) -> tuple[np.ndarray, np.ndarray]:
    if len({p.shape[1:] for p in parts}) > 1:
        raise InvalidPatch("patches of one chunk differ in shape")
    values = np.asarray(labels)
    if values.dtype.kind in "fO":
        # a cast would truncate a fractional label (a float, a Fraction) into a class
        whole = (values == np.floor(values)) & (np.abs(values) < 2.0**63)
        if not whole.all():
            raise InvalidLabel(f"label {values[~whole][0]} is not a whole int64 number")
    return np.concatenate(parts), values.astype(np.int64)


def stream_digest(samples: Iterable[PatchSample]) -> str:
    """SHA-256 over (view_id, label, pixels) of every sample, in order."""
    digest = hashlib.sha256()
    for s in samples:
        digest.update(struct.pack("<iq", s.label, s.view_id))
        digest.update(s.patch.pixels.tobytes())
    return digest.hexdigest()


def dump_views(views: Iterable[View], directory) -> int:
    """Write one PGM per view plus a manifest CSV; returns the view count."""
    from pathlib import Path

    from .image import write_pgm

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rows = []
    for view in views:
        with open(directory / f"view_{view.view_id:05d}.pgm", "wb") as f:
            f.write(write_pgm(view.image))
        rows.append(manifest_row(view))
    with open(directory / "manifest.csv", "w") as f:
        write_manifest(rows, f)
    return len(rows)


def manifest_row(view: View) -> dict:
    d = view.deform
    return {
        "view_id": view.view_id,
        "theta": repr(d.theta),
        "phi": repr(d.phi),
        "lambda1": repr(d.lambda1),
        "lambda2": repr(d.lambda2),
        "tx": repr(d.tx),
        "ty": repr(d.ty),
        "noise_sigma": repr(float(view.noise_sigma)),
    }


def write_manifest(rows: Iterable[dict], fileobj) -> None:
    writer = csv.DictWriter(fileobj, fieldnames=MANIFEST_HEADER, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)


def read_manifest(fileobj) -> list[dict]:
    reader = csv.DictReader(fileobj)
    if reader.fieldnames != MANIFEST_HEADER:
        raise InvalidArgument(f"unexpected manifest header {reader.fieldnames}")
    return [
        {
            "view_id": int(r["view_id"]),
            "deform": AffineDeform(
                float(r["theta"]),
                float(r["phi"]),
                float(r["lambda1"]),
                float(r["lambda2"]),
                float(r["tx"]),
                float(r["ty"]),
            ),
            "noise_sigma": float(r["noise_sigma"]),
        }
        for r in reader
    ]
