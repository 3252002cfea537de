"""Keypoint patch recognition with random ferns.

Binary pixel-pair features grouped into ferns index per-class probability
tables; classification multiplies the tables in log space. A randomized-
trees baseline and an evaluation harness cover the flat-versus-hierarchical
and multiplied-versus-averaged comparisons.
"""

from .dataset import DatasetSpec, GenStats, PatchSample, derive_rng
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
    BenchResult,
    EvalRecord,
    Method,
    bench_classify,
    compare_methods,
    recognition_rate,
    sweep_units,
)
from .ferns import (
    Combination,
    FeatureTest,
    Fern,
    FernModel,
    make_random_ferns,
)
from .image import (
    AffineDeform,
    GrayImage,
    add_noise,
    box_smooth,
    deform_matrix,
    inverse_deform,
    read_pgm,
    sample_deformation,
    warp_image,
    write_pgm,
)
from .keypoints import ClassSet, Keypoint, detect_keypoints, select_stable_classes
from .trees import RandomTree, TreeForest, make_random_trees

__version__ = "0.1.0"

__all__ = [
    "AffineDeform",
    "BenchResult",
    "ClassSet",
    "Combination",
    "CorruptModel",
    "DatasetSpec",
    "EmptyTestSet",
    "EvalRecord",
    "FeatureTest",
    "Fern",
    "FernModel",
    "FernkitError",
    "FormatError",
    "GenStats",
    "GrayImage",
    "InsufficientKeypoints",
    "InvalidArgument",
    "InvalidLabel",
    "InvalidPatch",
    "Keypoint",
    "Method",
    "OutOfBounds",
    "ParseError",
    "PatchSample",
    "RandomTree",
    "TreeForest",
    "UnsupportedFormat",
    "add_noise",
    "bench_classify",
    "box_smooth",
    "compare_methods",
    "deform_matrix",
    "derive_rng",
    "detect_keypoints",
    "inverse_deform",
    "make_random_ferns",
    "make_random_trees",
    "read_pgm",
    "recognition_rate",
    "sample_deformation",
    "select_stable_classes",
    "sweep_units",
    "warp_image",
    "write_pgm",
]
