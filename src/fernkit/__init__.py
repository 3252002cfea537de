"""Keypoint patch recognition with random ferns.

Binary pixel-pair features grouped into ferns index per-class probability
tables; classification multiplies the tables in log space. A randomized-
trees baseline and an evaluation harness cover the ferns-versus-trees
and multiplied-versus-averaged comparisons.
"""

from .dataset import DatasetSpec, derive_rng
from .errors import (
    CorruptModel,
    EmptyTestSet,
    FernkitError,
    FormatError,
    InsufficientKeypoints,
    InvalidArgument,
    InvalidLabel,
    InvalidPatch,
    OutOfBounds,
    ParseError,
    UnsupportedFormat,
)
from .evaluate import (
    EvalRecord,
    Method,
    compare_methods,
    recognition_rate,
    sweep_units,
)
from .ferns import Combination, FernModel
from .image import (
    AffineDeform,
    GrayImage,
    add_noise,
    box_smooth,
    read_pgm,
    sample_deformation,
    warp_image,
    write_pgm,
)
from .keypoints import ClassSet, detect_keypoints, select_stable_classes
from .trees import TreeForest

__version__ = "0.1.0"

__all__ = [
    "AffineDeform",
    "ClassSet",
    "Combination",
    "CorruptModel",
    "DatasetSpec",
    "EmptyTestSet",
    "EvalRecord",
    "FernModel",
    "FernkitError",
    "FormatError",
    "GrayImage",
    "InsufficientKeypoints",
    "InvalidArgument",
    "InvalidLabel",
    "InvalidPatch",
    "Method",
    "OutOfBounds",
    "ParseError",
    "TreeForest",
    "UnsupportedFormat",
    "add_noise",
    "box_smooth",
    "compare_methods",
    "derive_rng",
    "detect_keypoints",
    "read_pgm",
    "recognition_rate",
    "sample_deformation",
    "select_stable_classes",
    "sweep_units",
    "warp_image",
    "write_pgm",
]
