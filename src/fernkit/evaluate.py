"""Recognition-rate measurement and method comparison sweeps."""

from __future__ import annotations

import csv
import enum
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .dataset import (
    STREAM_MODEL,
    STREAM_TEST,
    STREAM_TRAIN,
    DatasetSpec,
    _blocks,
    derive_rng,
    sample_batches,
)
from .errors import EmptyTestSet, InvalidArgument, checked_count
from .ferns import DEFAULT_FERN_SIZE, Combination, FernModel, train_models
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
    def kind(self) -> type:
        return TreeForest if self in (Method.TREE_NB, Method.TREE_AVG) else FernModel

    @classmethod
    def of(cls, model) -> "Method":
        """The method a trained model classifies with by default."""
        return next(m for m in cls
                    if isinstance(model, m.kind) and m.combination is model.combination)


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


def materialize(samples: Iterable) -> tuple[np.ndarray, np.ndarray]:
    """Stack a stream of (patch, label) pairs or blocks into (N, p, p) patches and (N,) labels."""
    for chunk in sample_batches(samples):
        return chunk
    raise EmptyTestSet("no test samples")


def recognition_rate(model, test: Iterable) -> float:
    """Fraction of test patches assigned their true class."""
    rate, _ = _timed_rate(model, *materialize(test), None)
    return rate


def _timed_rate(model, patches, labels, combination) -> tuple[float, float]:
    start = time.perf_counter_ns()
    predicted, _ = model.classify_patches(patches, combination)
    elapsed = time.perf_counter_ns() - start
    rate = float(np.count_nonzero(predicted == labels)) / labels.size
    return rate, elapsed / labels.size


def record(method: Method, model, patches, labels, seed: int) -> EvalRecord:
    """Rate and classify time of ``model`` under ``method`` on a test set."""
    rate, ns = _timed_rate(model, patches, labels, method.combination)
    units = model.num_units
    return EvalRecord(method.value, units, rate, int(labels.size), ns, seed)


def _fit_and_test(models, img, classes, spec, seed):
    """Train ``models`` in one pass over the protocol's training blocks and
    return its test set, materialized once for every record to share."""
    protocol = (img, classes, spec, seed)
    train_models(models, _blocks(*protocol, STREAM_TRAIN))
    return materialize(_blocks(*protocol, STREAM_TEST))


def sweep_units(
    img: GrayImage,
    classes: ClassSet,
    spec: DatasetSpec,
    method: Method,
    unit_counts: Sequence[int],
    seed: int,
    fern_size: int = DEFAULT_FERN_SIZE,
) -> list[EvalRecord]:
    """Rate versus unit count, trained once at the maximum and truncated.

    Evaluating prefixes of one trained model keeps every point of the curve
    on identical randomness; prefix k of the big model equals a model built
    with k units from the same seed.
    """
    unit_counts = [checked_count(k, "unit count", low=1) for k in unit_counts]
    if not unit_counts:
        raise InvalidArgument("unit_counts must hold one or more counts")
    top = max(unit_counts)
    rng = derive_rng(seed, STREAM_MODEL)
    model = method.kind.random(classes, top, fern_size, rng)
    patches, labels = _fit_and_test((model,), img, classes, spec, seed)
    records = []
    for k in unit_counts:
        sub = model if k == top else model.truncated(k)
        records.append(record(method, sub, patches, labels, seed))
    return records


def compare_methods(
    img: GrayImage,
    classes: ClassSet,
    spec: DatasetSpec,
    units: int,
    seed: int,
    fern_size: int = DEFAULT_FERN_SIZE,
    threads: int = 1,
) -> list[EvalRecord]:
    """The four-way comparison: {ferns, trees} x {Naive-Bayes, averaging}.

    Both structures train in a single pass over one training stream and are
    scored on one materialized test set, so all four records share their
    randomness byte for byte. Views render on one thread, so ``threads``
    must be 1.
    """
    checked_count(threads, "threads", low=1, high=1)
    rng = derive_rng(seed, STREAM_MODEL)
    ferns = FernModel.random(classes, units, fern_size, rng)
    forest = TreeForest.random(classes, units, fern_size, rng)
    patches, labels = _fit_and_test((ferns, forest), img, classes, spec, seed)
    return [
        record(Method.FERN_NB, ferns, patches, labels, seed),
        record(Method.FERN_AVG, ferns, patches, labels, seed),
        record(Method.TREE_NB, forest, patches, labels, seed),
        record(Method.TREE_AVG, forest, patches, labels, seed),
    ]


def write_records_csv(records: Iterable[EvalRecord], fileobj) -> None:
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for record in records:
        writer.writerow(record.csv_row())
