"""Recognition-rate measurement, method comparison sweeps, and benchmarking."""

from __future__ import annotations

import csv
import enum
import statistics
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .dataset import (
    STREAM_MODEL,
    DatasetSpec,
    derive_rng,
    generate_test_set,
    generate_training_set,
)
from .errors import EmptyTestSet, InvalidArgument
from .ferns import Combination, FernModel, _batched
from .image import GrayImage
from .keypoints import ClassSet
from .trees import TreeForest

CSV_HEADER = ["method", "units", "recognition_rate", "patches", "ns_per_patch", "seed"]


class Method(enum.Enum):
    FERN_NB = "FernNB"
    FERN_AVG = "FernAvg"
    TREE_NB = "TreeNB"
    TREE_AVG = "TreeAvg"

    @property
    def combination(self) -> Combination:
        if self in (Method.FERN_NB, Method.TREE_NB):
            return Combination.NAIVE_BAYES
        return Combination.AVERAGE

    @property
    def hierarchical(self) -> bool:
        return self in (Method.TREE_NB, Method.TREE_AVG)


@dataclass(frozen=True)
class EvalRecord:
    """One measured configuration; a row of the output CSV."""

    method: str
    units: int
    recognition_rate: float
    patches_evaluated: int
    classify_ns_per_patch: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.recognition_rate <= 1.0:
            raise InvalidArgument("recognition_rate must lie in [0, 1]")
        if self.patches_evaluated <= 0:
            raise InvalidArgument("a valid record needs patches_evaluated > 0")

    def csv_row(self) -> list[str]:
        return [
            self.method,
            str(self.units),
            repr(self.recognition_rate),
            str(self.patches_evaluated),
            repr(self.classify_ns_per_patch),
            str(self.seed),
        ]


@dataclass(frozen=True)
class BenchResult:
    ns_per_patch: float
    comparisons_per_patch: int


def materialize(samples: Iterable) -> tuple[np.ndarray, np.ndarray]:
    """Stack a sample stream into (N, p, p) patches and (N,) labels."""
    patches = []
    labels = []
    for s in samples:
        patches.append(s.patch.pixels)
        labels.append(s.label)
    if not labels:
        raise EmptyTestSet("no test samples")
    return np.stack(patches), np.array(labels, dtype=np.int64)


def recognition_rate(model, test: Iterable) -> float:
    """Fraction of test patches assigned their true class."""
    patches, labels = materialize(test)
    predicted, _ = model.classify_patches(patches)
    return float(np.count_nonzero(predicted == labels)) / labels.size


def _timed_rate(model, patches, labels, combination) -> tuple[float, float]:
    start = time.perf_counter_ns()
    predicted, _ = model.classify_patches(patches, combination)
    elapsed = time.perf_counter_ns() - start
    rate = float(np.count_nonzero(predicted == labels)) / labels.size
    return rate, elapsed / labels.size


def _record(method, units, model, patches, labels, seed) -> EvalRecord:
    rate, ns = _timed_rate(model, patches, labels, method.combination)
    return EvalRecord(method.value, units, rate, int(labels.size), ns, seed)


def sweep_units(
    img: GrayImage,
    classes: ClassSet,
    spec: DatasetSpec,
    method: Method,
    unit_counts: Sequence[int],
    seed: int,
    fern_size: int = 10,
    threads: int = 1,
) -> list[EvalRecord]:
    """Rate versus unit count, trained once at the maximum and truncated.

    Evaluating prefixes of one trained model keeps every point of the curve
    on identical randomness; prefix k of the big model equals a model built
    with k units from the same seed.
    """
    if not unit_counts or min(unit_counts) < 1:
        raise InvalidArgument("unit_counts must be non-empty positive")
    top = max(unit_counts)
    rng = derive_rng(seed, STREAM_MODEL)
    if method.hierarchical:
        model = TreeForest.random(classes, top, fern_size, rng)
    else:
        model = FernModel.random(classes, top, fern_size, rng)
    model.train(generate_training_set(img, classes, spec, seed, threads=threads))
    patches, labels = materialize(
        generate_test_set(img, classes, spec, seed, threads=threads)
    )
    records = []
    for k in unit_counts:
        sub = model if k == top else model.truncated(k)
        records.append(_record(method, k, sub, patches, labels, seed))
    return records


def compare_methods(
    img: GrayImage,
    classes: ClassSet,
    spec: DatasetSpec,
    units: int,
    seed: int,
    fern_size: int = 10,
    threads: int = 1,
) -> list[EvalRecord]:
    """The four-way comparison: {ferns, trees} x {Naive-Bayes, averaging}.

    Both structures train in a single pass over one training stream and are
    scored on one materialized test set, so all four records share their
    randomness byte for byte.
    """
    rng = derive_rng(seed, STREAM_MODEL)
    ferns = FernModel.random(classes, units, fern_size, rng)
    forest = TreeForest.random(classes, units, fern_size, rng)
    stream = generate_training_set(img, classes, spec, seed, threads=threads)
    for patches, labels in _batched(stream, classes.patch_size, len(classes), 1024):
        ferns._accumulate(patches, labels)
        forest._accumulate(patches, labels)
    ferns._rebuild_tables()
    forest._rebuild_tables()
    patches, labels = materialize(
        generate_test_set(img, classes, spec, seed, threads=threads)
    )
    return [
        _record(Method.FERN_NB, units, ferns, patches, labels, seed),
        _record(Method.FERN_AVG, units, ferns, patches, labels, seed),
        _record(Method.TREE_NB, units, forest, patches, labels, seed),
        _record(Method.TREE_AVG, units, forest, patches, labels, seed),
    ]


def bench_classify(model, patches: np.ndarray, repetitions: int) -> BenchResult:
    """Median wall-clock ns per classified patch plus the per-patch read count."""
    if repetitions < 1:
        raise InvalidArgument("repetitions must be >= 1")
    arr = np.asarray(patches)
    if arr.ndim != 3 or arr.shape[0] == 0:
        raise InvalidArgument("patches must be a non-empty (N, h, w) array")
    n = arr.shape[0]
    before = model.pixel_comparisons
    timings = []
    for _ in range(repetitions):
        start = time.perf_counter_ns()
        model.classify_patches(arr)
        timings.append(time.perf_counter_ns() - start)
    comparisons = (model.pixel_comparisons - before) // (repetitions * n)
    return BenchResult(statistics.median(timings) / n, int(comparisons))


def write_records_csv(records: Iterable[EvalRecord], fileobj) -> None:
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for record in records:
        writer.writerow(record.csv_row())
