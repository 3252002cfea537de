"""Exception types shared across the package, and the input rules that
raise them: one rule each for counts, patch sizes, real numbers, noise
deviations, arrays, file contents and random sources, which the library
and the command line both check."""

import math
import numbers

import numpy as np


class FernkitError(Exception):
    """Base class for all fernkit errors."""


class ParseError(FernkitError):
    """Malformed PGM header or truncated raster."""


class UnsupportedFormat(FernkitError):
    """Recognizable image file, but not binary 8-bit P5."""


class InvalidArgument(FernkitError, ValueError):
    """Argument outside its documented domain."""


class OutOfBounds(FernkitError, IndexError):
    """Pixel access outside the image; a programming error, not a data error."""


class InvalidLabel(FernkitError, ValueError):
    """Training label not a whole number in [0, H)."""


class InvalidPatch(FernkitError, ValueError):
    """Training patch smaller than the model's patch size."""


class FormatError(FernkitError):
    """Bad magic, version, or length while decoding a model file."""


class CorruptModel(FernkitError):
    """Model file decoded but violates a model invariant."""


class InsufficientKeypoints(FernkitError):
    """Fewer stable keypoints available than classes requested."""

    def __init__(self, found: int, requested: int):
        self.found = found
        self.requested = requested
        super().__init__(
            f"only {found} stable keypoints available, {requested} requested"
        )


class EmptyTestSet(FernkitError):
    """Recognition rate asked for on an empty sample stream."""


def checked_count(n, name: str, low: int = 0, high: int | None = None) -> int:
    """``n`` as an int, if it is an integer in [low, high] (no upper bound
    when ``high`` is None) and not a bool; numpy integers are integers."""
    whole = isinstance(n, numbers.Integral) and not isinstance(n, bool)
    if not (whole and low <= n and (high is None or n <= high)):
        rule = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise InvalidArgument(f"{name} must be an integer {rule}, got {n!r}")
    return int(n)


def checked_array(values, name: str) -> np.ndarray:
    """``values`` as an array, if it is not a ragged sequence."""
    try:
        return np.asarray(values)
    except ValueError:  # numpy's "inhomogeneous shape"
        raise InvalidArgument(f"{name} must be a rectangular array, not ragged") from None


def checked_bytes(data) -> bytes | bytearray:
    """A file's contents given as bytes or a bytearray, or a memoryview's bytes."""
    if isinstance(data, memoryview):
        return data.tobytes()
    if not isinstance(data, (bytes, bytearray)):
        kind = type(data).__name__
        raise InvalidArgument(f"data must be bytes, a bytearray or a memoryview, got {kind}")
    return data


def checked_patch_size(p, name: str = "patch_size") -> int:
    """``p`` as an int, if it is an odd integer >= 3 and not a bool."""
    if not isinstance(p, numbers.Integral) or isinstance(p, bool) or p < 3 or p % 2 == 0:
        raise InvalidArgument(f"{name} must be an odd integer >= 3, got {p!r}")
    return int(p)


def is_finite(x, name: str) -> bool:
    """Whether the real number ``x`` (a bool is 0 or 1) is finite in
    float64; a value that is not a real number raises InvalidArgument."""
    # the common case, a float, skips the slower ABC test
    if type(x) is not float and not isinstance(x, numbers.Real):
        raise InvalidArgument(f"{name} must be a real number, got {x!r}")
    try:
        return math.isfinite(x)
    except OverflowError:  # a real beyond float64, such as 10**400
        return False


def checked_sigma(sigma, name: str = "sigma"):
    """``sigma`` if it is a real noise deviation >= 0, finite in float64,
    and not a bool."""
    real = isinstance(sigma, numbers.Real) and not isinstance(sigma, bool)
    if real and is_finite(sigma, name) and sigma >= 0:
        return sigma
    raise InvalidArgument(f"{name} must be a finite real >= 0, got {sigma!r}")


def checked_rng(rng) -> np.random.Generator:
    """``rng`` if it is a ``numpy.random.Generator``."""
    if not isinstance(rng, np.random.Generator):
        raise InvalidArgument(f"rng must be a numpy.random.Generator, got {rng!r}")
    return rng
