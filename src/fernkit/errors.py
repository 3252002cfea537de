"""Exception types shared across the package."""


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
