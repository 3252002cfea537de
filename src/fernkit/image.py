"""Grayscale image substrate: PGM I/O, affine warps, smoothing, and noise.

Every other module samples pixels through :class:`GrayImage`; all warping
follows the inverse-mapping convention (output pixels pull from the source)
so warped images never contain holes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InvalidArgument, ParseError, UnsupportedFormat, checked_array, checked_bytes, checked_count,
    checked_kind, checked_rng, checked_sigma, is_finite,
)

# Fill value for samples that fall outside the source image. Mid-gray, so
# background neither always wins nor always loses a binary comparison.
BACKGROUND = 127

# Scale range the deformation sampler draws from.
SCALE_LOW = 0.6
SCALE_HIGH = 1.5

TWO_PI = 2.0 * math.pi

# Pixels rendered or noised per step: warp_image and add_noise hold a few
# arrays of at most this many values, whatever the frame size.
PIXEL_BLOCK = 8192

_WHITESPACE = b" \t\r\n\v\f"


@dataclass(frozen=True, eq=False)
class GrayImage:
    """An immutable height x width grid of 8-bit intensities."""

    pixels: np.ndarray

    def __post_init__(self):
        px = self.pixels
        if not isinstance(px, np.ndarray) or px.ndim != 2:
            raise InvalidArgument("pixels must be a 2-D numpy array")
        if px.dtype != np.uint8:
            raise InvalidArgument(f"pixels must be uint8, got {px.dtype}")
        if px.shape[0] < 1 or px.shape[1] < 1:
            raise InvalidArgument("image must be at least 1x1")
        # a read-only C-ordered array is kept as it is; any other is copied
        # once into one, so the caller cannot change the image through it
        if px.flags.writeable or not px.flags.c_contiguous:
            px = np.array(px, order="C")
            px.flags.writeable = False
        object.__setattr__(self, "pixels", px)

    @classmethod
    def from_array(cls, values) -> "GrayImage":
        """Build from any integer array with values in [0, 255]."""
        arr = checked_array(values, "values")
        if arr.dtype.kind not in "iu" and arr.dtype != np.uint8:
            raise InvalidArgument(f"expected integer values, got {arr.dtype}")
        if arr.size and (arr.min() < 0 or arr.max() > 255):
            raise InvalidArgument("intensities must lie in [0, 255]")
        return cls(arr.astype(np.uint8))

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def center(self) -> tuple[float, float]:
        """Geometric center (cx, cy) with pixel centers on integer coords."""
        return (self.width - 1) / 2.0, (self.height - 1) / 2.0

    @cached_property
    def _edge_padded(self) -> np.ndarray:
        """``_padded(pixels)``, made on the first warp of this image; the
        pixels are read-only, so it cannot go stale."""
        padded = _padded(self.pixels)
        padded.flags.writeable = False
        return padded

    def __eq__(self, other):
        if not isinstance(other, GrayImage):
            return NotImplemented
        return np.array_equal(self.pixels, other.pixels)


def checked_image(img, name: str = "img") -> GrayImage:
    """``img`` if it is a GrayImage."""
    return checked_kind(img, GrayImage, name)


@dataclass(frozen=True)
class AffineDeform:
    """Affine warp parameters.

    The induced 2x2 matrix is R(theta) . R(-phi) . diag(lambda1, lambda2)
    . R(phi): anisotropic scaling along an axis pair rotated by phi,
    followed by a rotation of theta. (tx, ty) is the source point that
    lands on the output center when the warp is rendered.
    """

    theta: float
    phi: float
    lambda1: float
    lambda2: float
    tx: float = 0.0
    ty: float = 0.0

    def __post_init__(self):
        for name in ("theta", "phi", "lambda1", "lambda2", "tx", "ty"):
            if not is_finite(getattr(self, name), name):
                raise InvalidArgument(f"{name} must be finite")
        if self.lambda1 <= 0.0 or self.lambda2 <= 0.0:
            raise InvalidArgument("scales must be positive")
        object.__setattr__(self, "theta", self.theta % TWO_PI)
        object.__setattr__(self, "phi", self.phi % TWO_PI)

    @cached_property
    def _matrix(self) -> np.ndarray:
        """The induced matrix, built once; read-only, as the deform is frozen."""
        scale = np.diag([self.lambda1, self.lambda2])
        matrix = _rotation(self.theta) @ _rotation(-self.phi) @ scale @ _rotation(self.phi)
        matrix.flags.writeable = False
        return matrix

    @cached_property
    def _inverse(self) -> np.ndarray:
        """The inverse of ``_matrix``, built once; read-only."""
        inverse = np.linalg.inv(self._matrix)
        inverse.flags.writeable = False
        return inverse


def _rotation(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def read_pgm(data: bytes) -> GrayImage:
    """Decode a binary "P5" PGM with maxval <= 255.

    Header comments (``#`` to end of line) and arbitrary whitespace between
    tokens are accepted; the raster must hold one byte per pixel, none of
    them above maxval. ``data`` is bytes, a bytearray or a memoryview.
    """
    data = checked_bytes(data)
    if len(data) < 2:
        raise ParseError("file too short for a PGM magic")
    magic = data[:2]
    if magic != b"P5":
        if magic[:1] == b"P" and magic[1:2] in b"1234567":
            raise UnsupportedFormat(f"unsupported PNM magic {magic!r}")
        raise ParseError(f"not a PGM file (magic {magic!r})")

    pos = 2
    fields = []
    for _ in range(3):
        token, pos = _next_header_token(data, pos)
        if not token.isdigit():  # int() would take "+3", "1_0" and "-1"
            raise ParseError(f"expected integer header field, got {token!r}")
        fields.append(int(token))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ParseError(f"bad dimensions {width}x{height}")
    if maxval > 255:
        raise UnsupportedFormat(f"maxval {maxval} needs two bytes per pixel")
    if maxval < 1:
        raise ParseError(f"bad maxval {maxval}")
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise ParseError("missing whitespace between header and raster")
    pos += 1

    raster = data[pos : pos + width * height]
    if len(raster) != width * height:
        raise ParseError(
            f"truncated raster: expected {width * height} bytes, got {len(raster)}"
        )
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    # a maxval-255 file cannot break the rule, so it needs no pass
    if maxval < 255 and pixels.max() > maxval:
        y, x = np.argwhere(pixels > maxval)[0]
        raise ParseError(f"sample {pixels[y, x]} at ({x}, {y}) exceeds maxval {maxval}")
    return GrayImage(pixels.copy())


def _next_header_token(data: bytes, pos: int) -> tuple[bytes, int]:
    n = len(data)
    while pos < n:
        c = data[pos]
        if c in _WHITESPACE:
            pos += 1
        elif c == ord("#"):
            while pos < n and data[pos] not in b"\r\n":
                pos += 1
        else:
            break
    if pos >= n:
        raise ParseError("unexpected end of header")
    start = pos
    while pos < n and data[pos] not in _WHITESPACE:
        pos += 1
    return data[start:pos], pos


def write_pgm(img: GrayImage) -> bytes:
    """Encode as binary P5 with maxval 255; read_pgm round-trips bit-exactly."""
    checked_image(img)
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.pixels.tobytes()


def _to_u8(values: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(values), 0, 255).astype(np.uint8)


def _inside(pixels: np.ndarray, sx: np.ndarray, sy: np.ndarray) -> np.ndarray:
    """Which coordinates lie on the source grid, edges included."""
    h, w = pixels.shape
    return (sx >= 0.0) & (sx <= w - 1.0) & (sy >= 0.0) & (sy <= h - 1.0)


def _padded(pixels: np.ndarray) -> np.ndarray:
    """The source with one edge-replicated column and row appended.

    A coordinate on the last column or row has weight 0 on its +1
    neighbour, which then reads the edge itself, so no index needs a clip.
    """
    return np.pad(pixels, ((0, 1), (0, 1)), mode="edge")


def _scratch(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Work arrays for ``_sample_inside`` over up to n pixels."""
    return np.empty((4, n)), np.empty(n, dtype=np.intp), np.empty(n, dtype=np.uint8)


def _sample_inside(padded: np.ndarray, sx: np.ndarray, sy: np.ndarray, scratch) -> np.ndarray:
    """Bilinear values at coordinates that all lie on the source grid.

    ``padded`` is the source as ``_padded`` returns it. The float64
    products and sums are formed in the order the comments below give, so
    a value does not depend on the block it is computed in. ``sx`` and
    ``sy`` are overwritten with the fractions, and the result is a view of
    ``scratch``.
    """
    n = sx.size
    (top, bot, weight, term), index, corner = scratch[0][:, :n], scratch[1][:n], scratch[2][:n]
    stride = padded.shape[1]
    raster = padded.ravel()
    np.floor(sx, out=top)
    np.floor(sy, out=bot)
    fx = np.subtract(sx, top, out=sx)
    fy = np.subtract(sy, bot, out=sy)
    bot *= stride
    bot += top
    index[...] = bot  # whole numbers far below 2**53: the cast is exact
    np.subtract(1.0, fx, out=weight)
    # top = v00 * (1 - fx) + v01 * fx, bot = v10 * (1 - fx) + v11 * fx
    raster.take(index, out=corner)
    np.multiply(corner, weight, out=top)
    index += 1
    raster.take(index, out=corner)
    top += np.multiply(corner, fx, out=term)
    index += stride - 1
    raster.take(index, out=corner)
    np.multiply(corner, weight, out=bot)
    index += 1
    raster.take(index, out=corner)
    bot += np.multiply(corner, fx, out=term)
    # top * (1 - fy) + bot * fy
    top *= np.subtract(1.0, fy, out=weight)
    bot *= fy
    top += bot
    return top


def warp_image(
    src: GrayImage, d: AffineDeform, out_w: int, out_h: int, mask=None
) -> GrayImage:
    """Render the deformed view of ``src`` at ``out_w`` x ``out_h``.

    Each output pixel is mapped through the inverse of ``d._matrix``
    about the output center, then translated by (tx, ty) into source
    coordinates and sampled bilinearly. Samples outside the source read the
    mid-gray background.

    ``mask``, a boolean ``(out_h, out_w)`` array, restricts the work to its
    True pixels, which get the same bytes as in the full render; every other
    pixel reads BACKGROUND. Patch streams pass the union of the windows they
    will crop, so only those pixels are sampled.

    Both renders work on at most ``PIXEL_BLOCK`` pixels at a time with the
    same per-pixel arithmetic, so no temporary grows with the frame: they
    walk the frame in runs of four times that many pixels, whose selected
    pixels (all of them without a mask) they render that many at a time.
    Only the pixels of a block that map onto the source are sampled; the
    rest keep the BACKGROUND the frame starts as.
    """
    checked_image(src, "src")
    out_w, out_h = checked_count(out_w, "out_w", low=1), checked_count(out_h, "out_h", low=1)
    if mask is not None:
        mask = checked_array(mask, "mask")
        if mask.dtype != np.bool_ or mask.shape != (out_h, out_w):
            raise InvalidArgument(f"mask must be a boolean {out_h}x{out_w} array")
    inv = d._inverse
    cx, cy = (out_w - 1) / 2.0, (out_h - 1) / 2.0
    try:
        out = np.full(out_h * out_w, BACKGROUND, dtype=np.uint8)
    except (MemoryError, ValueError):  # ValueError: past numpy's size limit
        raise InvalidArgument(f"cannot allocate a {out_w}x{out_h} view") from None
    padded = src._edge_padded
    size = min(PIXEL_BLOCK, out.size)
    scratch = _scratch(size)
    coords = np.empty((5, size))
    rounded = np.empty(size, dtype=np.uint8)
    for flat in _pixel_blocks(mask, out_h, out_w):
        u, v, sx, sy, term = coords[:, : flat.size]
        # rows and columns are whole floats far below 2**53, so exact
        np.floor_divide(flat, out_w, out=v)
        np.subtract(flat, np.multiply(v, out_w, out=u), out=u)
        u -= cx
        v -= cy
        # sx = inv[0, 0] * u + inv[0, 1] * v + tx, and sy alike
        np.multiply(u, inv[0, 0], out=sx)
        sx += np.multiply(v, inv[0, 1], out=term)
        sx += d.tx
        np.multiply(u, inv[1, 0], out=sy)
        sy += np.multiply(v, inv[1, 1], out=term)
        sy += d.ty
        inside = _inside(src.pixels, sx, sy)
        if not inside.all():
            flat, sx, sy = flat[inside], sx[inside], sy[inside]
        values = _sample_inside(padded, sx, sy, scratch)
        # a convex combination of bytes needs no clip before the cast
        np.copyto(rounded[: flat.size], np.rint(values, out=values), casting="unsafe")
        out[flat] = rounded[: flat.size]
    return _frozen_image(out.reshape(out_h, out_w))


def _pixel_blocks(mask, out_h: int, out_w: int):
    """Flat indices of the frame pixels to render, at most PIXEL_BLOCK at once:
    the selected pixels of each run of ``4 * PIXEL_BLOCK`` frame pixels (every
    pixel without a mask), PIXEL_BLOCK of them at a time."""
    size = out_h * out_w
    flat_mask = None if mask is None else mask.ravel()
    for start in range(0, size, 4 * PIXEL_BLOCK):
        stop = min(start + 4 * PIXEL_BLOCK, size)
        if flat_mask is None:
            selected = np.arange(start, stop)
        else:
            selected = np.flatnonzero(flat_mask[start:stop])
            selected += start
        for first in range(0, selected.size, PIXEL_BLOCK):
            yield selected[first : first + PIXEL_BLOCK]


def _frozen_image(pixels: np.ndarray) -> GrayImage:
    """Wrap a freshly built array without the defensive copy GrayImage makes."""
    pixels.flags.writeable = False
    return GrayImage(pixels)


def _checked_points(points) -> np.ndarray:
    """An (n, 2) real array of points, or one (2,) point, as (n, 2) float64."""
    pts = np.atleast_2d(checked_array(points, "points"))
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.dtype.kind not in "iuf":
        raise InvalidArgument(f"points must be an (n, 2) real array, got {pts.dtype} {pts.shape}")
    return pts.astype(np.float64, copy=False)


def warp_points(d: AffineDeform, out_w: int, out_h: int, points) -> np.ndarray:
    """Map source-frame points to the output frame of ``warp_image``."""
    pts = _checked_points(points)
    a = d._matrix
    center = np.array([(out_w - 1) / 2.0, (out_h - 1) / 2.0])
    return (pts - np.array([d.tx, d.ty])) @ a.T + center


def unwarp_points(d: AffineDeform, out_w: int, out_h: int, points) -> np.ndarray:
    """Map output-frame points back to the source frame of ``warp_image``."""
    pts = _checked_points(points)
    inv = d._inverse
    center = np.array([(out_w - 1) / 2.0, (out_h - 1) / 2.0])
    return (pts - center) @ inv.T + np.array([d.tx, d.ty])


def sample_deformation(rng: np.random.Generator) -> AffineDeform:
    """Draw theta, phi uniform on [0, 2pi) and both scales uniform on [0.6, 1.5].

    Translation is left at zero; callers anchor it where the crop should land.
    """
    rng = checked_rng(rng)
    theta = rng.uniform(0.0, TWO_PI)
    phi = rng.uniform(0.0, TWO_PI)
    lambda1 = rng.uniform(SCALE_LOW, SCALE_HIGH)
    lambda2 = rng.uniform(SCALE_LOW, SCALE_HIGH)
    return AffineDeform(theta, phi, lambda1, lambda2)


def add_noise(img: GrayImage, sigma: float, rng: np.random.Generator) -> GrayImage:
    """Add i.i.d. Gaussian noise of the given std, rounded and clamped."""
    checked_image(img)
    if checked_sigma(sigma) == 0:
        return img
    rng = checked_rng(rng)
    # block by block, the draws concatenate to one draw over the whole frame;
    # rng.normal(0.0, sigma) is 0.0 + sigma * z for the same standard draws z
    pixels = img.pixels.ravel()
    out = np.empty_like(pixels)
    scratch = np.empty(min(PIXEL_BLOCK, pixels.size))
    for start in range(0, pixels.size, PIXEL_BLOCK):
        block = pixels[start : start + PIXEL_BLOCK]
        noisy = scratch[: block.size]
        rng.standard_normal(block.size, out=noisy)
        noisy *= sigma
        noisy += block
        np.clip(np.rint(noisy, out=noisy), 0, 255, out=noisy)
        np.copyto(out[start : start + block.size], noisy, casting="unsafe")
    return _frozen_image(out.reshape(img.pixels.shape))


def box_mean(values: np.ndarray, radius: int) -> np.ndarray:
    """Mean over the (2r+1)^2 window around each cell, clipped at borders.

    Takes integer values only and returns float64: each exact window sum
    over its clipped cell count, in one division.
    """
    radius = checked_count(radius, "radius")
    arr = checked_array(values, "values")
    if arr.ndim != 2 or arr.dtype.kind not in "iu":
        raise InvalidArgument(f"box_mean takes a 2-D integer array, got {arr.dtype} {arr.shape}")
    h, w = arr.shape
    ry, rx = min(radius, h - 1), min(radius, w - 1)
    ys, xs = np.arange(h), np.arange(w)
    rows = np.minimum(ys + ry + 1, h) - np.maximum(ys - ry, 0)
    cols = np.minimum(xs + rx + 1, w) - np.maximum(xs - rx, 0)
    return window_sums(arr, radius) / (rows[:, None] * cols)


def window_sums(arr: np.ndarray, radius: int) -> np.ndarray:
    """Sum over the (2r+1)^2 window around each cell of an integer array,
    clipped at borders.

    Summed separably, rows then columns, by shifted slice adds at the
    narrowest signed width that holds a window's sum; integer sums are
    exact in any order. Where the dtype's worst case needs more than int64,
    the sums are bounded by the values the array holds instead, and an
    array whose sums int64 cannot hold is rejected rather than wrapped.
    """
    h, w = arr.shape
    # a radius past an edge clips every window the same as radius h - 1
    ry, rx = min(radius, h - 1), min(radius, w - 1)
    cells = (2 * ry + 1) * (2 * rx + 1)
    info = np.iinfo(arr.dtype)
    largest = cells * max(info.max, -info.min)
    if largest >= 2**63 and arr.size:
        low, high = int(arr.min()), int(arr.max())
        if cells * low < -(2**63) or cells * high >= 2**63:
            raise InvalidArgument(
                f"window sums of {cells} values in [{low}, {high}] exceed int64"
            )
    acc = np.int16 if largest < 2**15 else np.int32 if largest < 2**31 else np.int64
    # down the columns through the transpose, then along the rows
    return _line_sums(_line_sums(arr.astype(acc).T, ry).T, rx)


def _line_sums(arr: np.ndarray, r: int) -> np.ndarray:
    """Sums over ``i - r .. i + r`` along the last axis of ``arr``, clipped
    at its ends (``r`` below its length): 2r slice adds into one copy in
    ``arr``'s memory order, so a transposed view costs no more."""
    sums = arr.copy(order="K")
    for d in range(1, r + 1):
        sums[..., d:] += arr[..., :-d]
        sums[..., :-d] += arr[..., d:]
    return sums


def box_smooth(img: GrayImage, radius: int) -> GrayImage:
    """Box-filter the image; radius 0 is the identity."""
    checked_image(img)
    if checked_count(radius, "radius") == 0:
        return img
    return GrayImage(_to_u8(box_mean(img.pixels, radius)))
