"""Interest-point detection and selection of stable class keypoints.

The detector scores each pixel by its contrast against the surrounding
8-neighbor ring, smooths the response map to break single-pixel plateaus,
and keeps local maxima. Class selection re-detects under random warps and
votes detections back into the reference frame.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    InsufficientKeypoints, InvalidArgument, checked_array, checked_count, checked_patch_size,
)
from .image import (
    GrayImage,
    checked_image,
    sample_deformation,
    unwarp_points,
    warp_image,
    window_sums,
)

DEFAULT_PATCH_SIZE = 31

# keypoints per step of the ClassSet separation check
SEPARATION_BLOCK = 64


@dataclass(frozen=True, eq=False)
class ClassSet:
    """The classifier's classes: an (H, 2) read-only float64 array of (x, y)
    reference-image positions, ``coords``, and the patch size around them.

    The row index is the class label; ordering is stable across runs with
    the same seed. Coordinates are rounded to float32, the precision a model
    file stores them at, so a saved class set loads back equal.
    """

    coords: np.ndarray
    patch_size: int

    def __post_init__(self):
        object.__setattr__(self, "patch_size", checked_patch_size(self.patch_size))
        coords = checked_array(self.coords, "coords")
        if coords.dtype.kind not in "iuf":
            raise InvalidArgument(f"keypoint coordinates must be numbers, got {coords.dtype}")
        if coords.ndim != 2 or coords.shape[1] != 2 or len(coords) == 0:
            raise InvalidArgument(f"coords must be a non-empty (H, 2) array, got {coords.shape}")
        with np.errstate(over="ignore"):  # beyond float32 becomes inf, rejected next
            coords = coords.astype(np.float32).astype(np.float64)
        if not np.isfinite(coords).all():
            raise InvalidArgument("keypoint coordinates must be finite in float32")
        if _any_pair_closer(coords, self.patch_size):
            raise InvalidArgument(
                f"keypoints closer than min separation {self.patch_size / 2.0}"
            )
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)

    def __eq__(self, other):
        if not isinstance(other, ClassSet):
            return NotImplemented
        return self.patch_size == other.patch_size and np.array_equal(self.coords, other.coords)

    def __hash__(self) -> int:
        # adding 0.0 turns -0.0 into 0.0, which it equals
        return hash((self.patch_size, (self.coords + 0.0).tobytes()))

    def __len__(self) -> int:
        return len(self.coords)

    @property
    def margin(self) -> int:
        return self.patch_size // 2


def window_fits(x, y, width: int, height: int, margin: int):
    """Whether the window reaching ``margin`` pixels around centre (x, y)
    lies inside a width x height frame; x and y may be scalars or arrays."""
    return ((margin <= x) & (x <= width - 1 - margin)
            & (margin <= y) & (y <= height - 1 - margin))


def _too_close(d2, patch_size: int):
    """Whether squared distance ``d2`` is below (p / 2)^2, less a 1e-9 slack."""
    return d2 < (patch_size / 2.0) ** 2 - 1e-9


def _any_pair_closer(coords: np.ndarray, patch_size: int) -> bool:
    """Whether two of the (H, 2) points are ``_too_close``.

    Compares ``SEPARATION_BLOCK`` points at a time with all the others, so
    no temporary grows as H x H. A pair's squared distance is the same
    float64 from either end, so each pair may be seen twice.
    """
    x, y = coords[:, 0], coords[:, 1]
    for start in range(0, len(coords), SEPARATION_BLOCK):
        block = slice(start, start + SEPARATION_BLOCK)
        d2 = (x - x[block, None]) ** 2 + (y - y[block, None]) ** 2
        # a point is not its own neighbour
        own = np.arange(d2.shape[0])
        d2[own, own + start] = np.inf
        if _too_close(d2.min(), patch_size):
            return True
    return False


def _response_sums(img: GrayImage) -> np.ndarray:
    """Each pixel's box-smoothed ring contrast times 288, as exact int32.

    A pixel's contrast |centre - ring mean| is |9 * centre - window sum| / 8
    over its 3x3 window, and 0 on the border, which lacks a full ring (it is
    outside any patch margin anyway). Smoothing takes the mean of 8 times
    the contrast over each clipped 3x3 window of 9, 6 or 4 cells; 36 / cells
    is whole, so 36 times that mean is an integer. Two different means
    differ by at least 1/81, far above float64 spacing, so these integers
    order and tie as the float means do, and ``_response`` gives a kept
    pixel its float. A frame under 3 pixels across has no ring: all 0.
    """
    raw = window_sums(img.pixels, 1)
    raw -= np.multiply(img.pixels, 9, dtype=raw.dtype)
    np.abs(raw, out=raw)
    raw[0, :] = raw[-1, :] = 0
    raw[:, 0] = raw[:, -1] = 0
    sums = window_sums(raw, 1)
    # 36 / 9 inside; an edge row or column holds 2 of 3 lines, so it takes
    # 3 / 2 of that, and a corner cell both
    sums *= 4
    for edge in (sums[0], sums[-1], sums[:, 0], sums[:, -1]):
        edge //= 2
        edge *= 3
    return sums


def _response(sums: np.ndarray) -> np.ndarray:
    """The float64 responses of ``_response_sums`` values, the bytes of the
    float map: dividing by 288 rounds the real number that dividing a window
    sum by its cell count rounds, times 1/8, which commutes with rounding."""
    return sums / 288.0


def _local_maxima(resp: np.ndarray) -> np.ndarray:
    """Mask of pixels equal to the max of their 3x3 neighborhood."""
    # the 3x3 max is separable: a 3-wide max along each row, then along each
    # column; border pixels compare only with the neighbors they have
    rows = np.empty_like(resp)
    rows[:, 0] = resp[:, 0]
    np.maximum(resp[:, 1:], resp[:, :-1], out=rows[:, 1:])
    np.maximum(rows[:, :-1], resp[:, 1:], out=rows[:, :-1])
    best = np.empty_like(resp)
    best[0] = rows[0]
    np.maximum(rows[1:], rows[:-1], out=best[1:])
    np.maximum(best[:-1], rows[1:], out=best[:-1])
    return resp >= best


def detect_keypoints(
    img: GrayImage, max_count: int, patch_size: int = DEFAULT_PATCH_SIZE
) -> np.ndarray:
    """Detect up to ``max_count`` ring-contrast maxima away from the border,
    as an (n, 3) float64 array of ``(x, y, response)`` rows.

    Rows are sorted by response descending, ties in scanline (y, x) order.
    A count of 0 or an image smaller than the patch yields no rows. Maxima
    are ranked on the exact integer responses of ``_response_sums``; only
    the returned rows get a float response, with the float map's bytes.
    """
    checked_image(img)
    max_count = checked_count(max_count, "max_count")
    margin = checked_patch_size(patch_size) // 2
    if max_count == 0 or img.width < patch_size or img.height < patch_size:
        return np.empty((0, 3))
    sums = _response_sums(img)
    keep = _local_maxima(sums) & (sums > 0)
    # flat indices in scanline order, so (y, x) come out as np.nonzero's
    ys, xs = np.divmod(np.flatnonzero(keep), img.width)
    inside = window_fits(xs, ys, img.width, img.height, margin)
    ys, xs = ys[inside], xs[inside]
    neg = -sums[ys, xs]
    if neg.size > max_count:
        # only maxima at or above the max_count-th response can be ranked in,
        # so ties with it stay and the full ranking of those is unchanged
        cut = np.partition(neg, max_count - 1)[max_count - 1]
        near = np.flatnonzero(neg <= cut)
        ys, xs, neg = ys[near], xs[near], neg[near]
    order = np.lexsort((xs, ys, neg))[:max_count]
    xs, ys = xs[order], ys[order]
    return np.column_stack((xs, ys, _response(sums[ys, xs])))


def select_stable_classes(
    img: GrayImage,
    h: int,
    num_views: int,
    rng: np.random.Generator,
    patch_size: int = DEFAULT_PATCH_SIZE,
) -> ClassSet:
    """Pick the ``h`` keypoints most consistently re-detected under warping.

    Detects in ``num_views`` randomly deformed copies, maps each detection
    back to the reference frame, and votes into 1-pixel bins. The highest
    voted bins win, subject to a minimum separation of half the patch size.
    """
    checked_image(img)
    h = checked_count(h, "h", low=1)
    num_views = checked_count(num_views, "num_views", low=1)
    margin = checked_patch_size(patch_size) // 2
    cx, cy = img.center
    deforms = [replace(sample_deformation(rng), tx=cx, ty=cy) for _ in range(num_views)]
    votes = np.zeros((img.height, img.width), dtype=np.int64)
    strength = np.zeros((img.height, img.width), dtype=np.float64)
    for d in deforms:
        view = warp_image(img, d, img.width, img.height)
        found = detect_keypoints(view, max_count=4 * h, patch_size=patch_size)
        pts = unwarp_points(d, img.width, img.height, found[:, :2])
        bins = np.rint(pts).astype(np.int64)
        ok = window_fits(bins[:, 0], bins[:, 1], img.width, img.height, margin)
        np.add.at(votes, (bins[ok, 1], bins[ok, 0]), 1)
        np.add.at(strength, (bins[ok, 1], bins[ok, 0]), found[ok, 2])

    ys, xs = np.nonzero(votes)
    # Equal-vote bins rank by accumulated detector response, then scanline;
    # a single identity view then reproduces detect_keypoints' own ordering.
    order = np.lexsort((xs, ys, -strength[ys, xs], -votes[ys, xs]))
    chosen: list[tuple[float, float]] = []
    for i in order:
        x, y = float(xs[i]), float(ys[i])
        if any(_too_close((x - px) ** 2 + (y - py) ** 2, patch_size) for px, py in chosen):
            continue
        chosen.append((x, y))
        if len(chosen) == h:
            break
    if len(chosen) < h:
        raise InsufficientKeypoints(found=len(chosen), requested=h)
    return ClassSet(chosen, patch_size)
