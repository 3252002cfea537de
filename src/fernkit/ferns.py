"""Semi-naive Bayesian fern classifier and the leaf-table model it shares.

A fern is an ordered group of M binary pixel-pair comparisons; its M bits
form a leaf index into a per-class probability table. Ferns are combined
multiplicatively in log space (Naive-Bayes); an averaging combination is
kept alongside for the structure-versus-combination comparison. Ferns and
the randomized trees of ``fernkit.trees`` differ only in how a patch reaches
a leaf, so both are :class:`LeafModel` subclasses.
"""

from __future__ import annotations

import enum
import math
import struct
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    CorruptModel,
    FernkitError,
    FormatError,
    InvalidArgument,
    InvalidLabel,
    InvalidPatch,
    OutOfBounds,
)
from .image import GrayImage
from .keypoints import ClassSet, Keypoint

MODEL_MAGIC = b"FERNMDL1"
MODEL_VERSION = 2

DEFAULT_FERN_COUNT = 30
DEFAULT_FERN_SIZE = 10  # 30 x 10 = 300 binary features


class Combination(enum.Enum):
    """How per-unit class probabilities are fused into one decision."""

    AVERAGE = 0
    NAIVE_BAYES = 1


@dataclass(frozen=True)
class FeatureTest:
    """One binary comparison between two pixel offsets from the patch center."""

    dx1: int
    dy1: int
    dx2: int
    dy2: int

    def __post_init__(self):
        if (self.dx1, self.dy1) == (self.dx2, self.dy2):
            raise InvalidArgument("feature offsets must differ")


@dataclass(frozen=True)
class Fern:
    """An ordered group of M feature tests; test 0 is the leaf's MSB."""

    tests: tuple[FeatureTest, ...]

    def __post_init__(self):
        object.__setattr__(self, "tests", tuple(self.tests))
        if not self.tests:
            raise InvalidArgument("a fern needs at least one test")

    @property
    def size(self) -> int:
        return len(self.tests)


def random_tests(
    count: int, patch_size: int, rng: np.random.Generator
) -> list[FeatureTest]:
    """Draw ``count`` tests with offsets uniform over the patch square.

    Coincident offset pairs are redrawn. Draws are sequential, so the first
    k tests of a longer draw equal a fresh draw of k tests under one seed.
    """
    if patch_size < 3 or patch_size % 2 == 0:
        raise InvalidArgument("patch_size must be odd and >= 3")
    reach = patch_size // 2
    tests = []
    for _ in range(count):
        while True:
            dx1, dy1, dx2, dy2 = (int(v) for v in rng.integers(-reach, reach + 1, 4))
            if (dx1, dy1) != (dx2, dy2):
                break
        tests.append(FeatureTest(dx1, dy1, dx2, dy2))
    return tests


def make_random_ferns(
    s: int, m: int, patch_size: int, rng: np.random.Generator
) -> list[Fern]:
    """Build S ferns of M random tests each, deterministic under the seed."""
    if s < 1 or m < 1:
        raise InvalidArgument("need at least one fern with one test")
    return [Fern(tuple(random_tests(m, patch_size, rng))) for _ in range(s)]


def _check_patch_batch(patches: np.ndarray, patch_size: int) -> np.ndarray:
    arr = np.asarray(patches)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    if arr.ndim != 3 or arr.dtype != np.uint8:
        raise InvalidArgument("patches must be a (N, h, w) uint8 array")
    if arr.shape[1] < patch_size or arr.shape[2] < patch_size:
        raise InvalidPatch(
            f"patch {arr.shape[2]}x{arr.shape[1]} smaller than {patch_size}"
        )
    return arr


class LeafModel:
    """Per-unit leaf counts over classes, and the log tables built from them.

    A unit (fern or tree) maps a patch to one of 2^D leaves; subclasses say
    how (``leaf_indices``), and everything after that is shared. Counts are
    the only state: they make training resumable, order-independent and
    mergeable across shards, and the Laplace-regularized log tables are
    rebuilt from them whenever they change. Model files store the counts,
    so a loaded model's tables agree with its counts by construction.
    """

    magic = b""

    def __init__(
        self,
        classes: ClassSet,
        tests: Sequence[Sequence[FeatureTest]],
        depth: int,
        combination: Combination,
        counts: np.ndarray | None,
    ):
        offsets = np.array(
            [[[t.dx1, t.dy1, t.dx2, t.dy2] for t in ts] for ts in tests], dtype=np.intp
        )
        if np.abs(offsets).max() > classes.patch_size // 2:
            raise InvalidArgument("test offset outside the patch square")
        self.classes = classes
        self.combination = combination
        self.patch_size = classes.patch_size
        self.num_classes = len(classes)
        self.num_leaves = 1 << depth
        self._tests = tuple(tuple(ts) for ts in tests)
        self._offsets = offsets  # (U, tests per unit, 4)
        self._d1x, self._d1y, self._d2x, self._d2y = offsets.transpose(2, 0, 1).copy()
        shape = (len(self._tests), self.num_leaves, self.num_classes)
        self.counts = (
            np.zeros(shape, dtype=np.uint64)
            if counts is None
            else np.array(counts, dtype=np.uint64)
        )
        if self.counts.shape != shape:
            raise InvalidArgument(f"counts must have shape {shape}")
        # training streams are balanced by construction, so the prior is
        # exactly uniform (and stays finite for classes never seen)
        self.log_prior = np.full(self.num_classes, -np.log(self.num_classes))
        self._rebuild_tables()
        self.pixel_comparisons = 0
        self.table_lookups = 0

    # -- training ---------------------------------------------------------

    def train(self, samples: Iterable, chunk_size: int = 1024):
        """Accumulate leaf counts from (patch, label) pairs and rebuild tables.

        Accepts an iterable of (GrayImage, label) tuples or of objects with
        ``patch`` and ``label`` attributes (dataset PatchSamples).
        """
        for patches, labels in _batched(samples, self.patch_size, self.num_classes, chunk_size):
            self._accumulate(patches, labels)
        self._rebuild_tables()
        return self

    def _accumulate(self, patches: np.ndarray, labels: np.ndarray) -> None:
        leaves = self.leaf_indices(patches)
        for u in range(len(self._tests)):
            np.add.at(self.counts[u], (leaves[:, u], labels), 1)

    def _rebuild_tables(self) -> None:
        totals = self.counts.sum(axis=1, dtype=np.float64)  # (U, H)
        table = self.counts.astype(np.float64)
        table += 1.0
        table /= totals[:, None, :] + float(self.num_leaves)
        self.log_table = np.log(table, out=table)

    def merged(self, other):
        """Combine two shards trained on disjoint streams (count addition)."""
        if (
            type(other) is not type(self)
            or other._tests != self._tests
            or other.classes != self.classes
        ):
            raise InvalidArgument("shards must share units and classes")
        return self._like(self._tests, self.counts + other.counts)

    def truncated(self, k: int):
        """A model over the first k units, sharing this model's counts."""
        if not 1 <= k <= len(self._tests):
            raise InvalidArgument(f"k must be in [1, {len(self._tests)}]")
        return self._like(self._tests[:k], self.counts[:k])

    def _like(self, tests, counts):
        depth = self.num_leaves.bit_length() - 1
        return self._build(self.classes, depth, tests, self.combination, counts)

    # -- evaluation -------------------------------------------------------

    def classify_patches(
        self, patches: np.ndarray, combination: Combination | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Labels and scores for a patch batch; ties go low.

        ``combination`` defaults to the model's own. Naive-Bayes scores are
        unnormalized log posteriors; averaging scores are the winning class's
        mean per-unit posterior.
        """
        if combination is None:
            combination = self.combination
        scores = self._fuse(self.leaf_indices(patches), combination)
        labels = np.argmax(scores, axis=1)
        return labels, scores[np.arange(labels.size), labels]

    def classify(self, img: GrayImage, center: Keypoint) -> tuple[int, float]:
        """Most probable class at one location and its score; ties go low."""
        labels, scores = self.classify_patches(self._window(img, center))
        return int(labels[0]), float(scores[0])

    def posterior(self, img: GrayImage, center: Keypoint) -> np.ndarray:
        """Normalized class posterior; sums to 1, argmax agrees with classify."""
        leaves = self.leaf_indices(self._window(img, center))
        scores = self._fuse(leaves, self.combination)
        if self.combination is Combination.NAIVE_BAYES:
            scores = _softmax_rows(scores)
        return scores[0]

    def _window(self, img: GrayImage, center: Keypoint) -> np.ndarray:
        """The (1, p, p) patch centered on the rounded location."""
        cx, cy = int(round(center.x)), int(round(center.y))
        r = self.patch_size // 2
        if not (r <= cx <= img.width - 1 - r and r <= cy <= img.height - 1 - r):
            raise OutOfBounds(f"patch around ({cx}, {cy}) leaves the image")
        return img.pixels[None, cy - r : cy + r + 1, cx - r : cx + r + 1]

    def _fuse(self, leaves: np.ndarray, combination: Combination) -> np.ndarray:
        """(N, H) class scores from (N, U) leaf indices."""
        n, units = leaves.shape
        self.table_lookups += n * units
        # take() gathers the same rows as fancy indexing, in about half the
        # time on the one-patch calls classify makes
        if combination is Combination.NAIVE_BAYES:
            scores = np.tile(self.log_prior, (n, 1))
            for u in range(units):
                scores += self.log_table[u].take(leaves[:, u], axis=0)
        else:
            scores = np.zeros((n, self.num_classes))
            for u in range(units):
                scores += _softmax_rows(
                    self.log_table[u].take(leaves[:, u], axis=0) + self.log_prior
                )
            scores /= units
        return scores

    # -- serialization ----------------------------------------------------

    def save(self) -> bytes:
        """Little-endian model file; load() restores behavior bit-exactly."""
        head = self.magic + struct.pack(
            "<6I",
            MODEL_VERSION,
            self.num_classes,
            len(self._tests),
            self.num_leaves.bit_length() - 1,
            self.patch_size,
            self.combination.value,
        )
        kp = self.classes.coords.astype("<f4").tobytes()
        tests = self._offsets.astype("<i2").tobytes()
        return head + kp + tests + self.counts.astype("<u8").tobytes()

    @classmethod
    def load(cls, data: bytes):
        pos = len(cls.magic) + struct.calcsize("<6I")
        if len(data) < pos:
            raise FormatError("file shorter than its header")
        if data[: len(cls.magic)] != cls.magic:
            raise FormatError(f"bad magic {data[:len(cls.magic)]!r}")
        version, h, units, depth, patch_size, combo = struct.unpack_from(
            "<6I", data, len(cls.magic)
        )
        if version != MODEL_VERSION:
            raise FormatError(f"unsupported version {version}; retrain the model")
        if combo not in (0, 1):
            raise FormatError(f"unknown combination mode {combo}")
        if depth > 63:  # leaf indices are int64
            raise FormatError(f"unit depth {depth} exceeds 63")
        kp, pos = _take(data, pos, "<f4", (h, 2))
        tests, pos = _take(data, pos, "<i2", (units, cls._tests_per_unit(depth), 4))
        counts, pos = _take(data, pos, "<u8", (units, 1 << depth, h))
        if pos != len(data):
            raise FormatError(f"{len(data) - pos} trailing bytes")
        try:
            classes = ClassSet(
                tuple(Keypoint(float(x), float(y)) for x, y in kp), patch_size
            )
            unit_tests = [
                tuple(FeatureTest(*(int(v) for v in row)) for row in rows)
                for rows in tests
            ]
            model = cls._build(classes, depth, unit_tests, Combination(combo), counts)
        except FernkitError as exc:
            raise CorruptModel(str(exc)) from exc
        totals = model.counts.sum(axis=1)
        if np.any(totals != totals[0]):
            raise CorruptModel("per-class sample totals disagree across units")
        return model


class FernModel(LeafModel):
    """S ferns x 2^M leaves x H classes, fused by Naive-Bayes by default."""

    magic = MODEL_MAGIC

    def __init__(
        self,
        classes: ClassSet,
        ferns: Sequence[Fern],
        counts: np.ndarray | None = None,
    ):
        ferns = tuple(ferns)
        if not ferns:
            raise InvalidArgument("need at least one fern")
        m = ferns[0].size
        if any(f.size != m for f in ferns):
            raise InvalidArgument("all ferns must share one size")
        super().__init__(
            classes, [f.tests for f in ferns], m, Combination.NAIVE_BAYES, counts
        )
        self.ferns = ferns
        self.num_ferns = len(ferns)
        self.fern_size = m
        self._weights = (1 << np.arange(m - 1, -1, -1)).astype(np.int64)

    @classmethod
    def random(
        cls,
        classes: ClassSet,
        s: int = DEFAULT_FERN_COUNT,
        m: int = DEFAULT_FERN_SIZE,
        rng: np.random.Generator | None = None,
    ) -> "FernModel":
        if rng is None:
            raise InvalidArgument("an explicit rng is required")
        return cls(classes, make_random_ferns(s, m, classes.patch_size, rng))

    @staticmethod
    def _tests_per_unit(depth: int) -> int:
        return depth

    @classmethod
    def _build(cls, classes, depth, tests, combination, counts) -> "FernModel":
        if combination is not Combination.NAIVE_BAYES:
            raise InvalidArgument("ferns are fused by Naive-Bayes")
        return cls(classes, [Fern(ts) for ts in tests], counts)

    def leaf_indices(self, patches: np.ndarray) -> np.ndarray:
        """(N, S) leaf indices for a batch of patches centered on themselves."""
        arr = _check_patch_batch(patches, self.patch_size)
        cy, cx = arr.shape[1] // 2, arr.shape[2] // 2
        a = arr[:, cy + self._d1y, cx + self._d1x]
        b = arr[:, cy + self._d2y, cx + self._d2x]
        bits = (a < b).astype(np.int64)  # (N, S, M)
        self.pixel_comparisons += bits.size
        return bits @ self._weights

    # The benchmark tracer (perfbench/spans.py) finds the methods it wraps
    # in each model class's own __dict__, so the shared ones are bound here.
    train = LeafModel.train
    _accumulate = LeafModel._accumulate
    _rebuild_tables = LeafModel._rebuild_tables
    classify_patches = LeafModel.classify_patches
    classify = LeafModel.classify
    save = LeafModel.save
    load = LeafModel.__dict__["load"]


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    p = np.exp(scores - scores.max(axis=1, keepdims=True))
    return p / p.sum(axis=1, keepdims=True)


def _batched(samples: Iterable, patch_size: int, num_classes: int, chunk_size: int):
    """Yield (patches, labels) arrays from a stream of samples or pairs."""
    buf_patches: list[np.ndarray] = []
    buf_labels: list[int] = []
    for item in samples:
        if hasattr(item, "patch"):
            patch, label = item.patch, item.label
        else:
            patch, label = item
        pixels = patch.pixels if isinstance(patch, GrayImage) else np.asarray(patch)
        if pixels.shape[0] < patch_size or pixels.shape[1] < patch_size:
            raise InvalidPatch(
                f"patch {pixels.shape[1]}x{pixels.shape[0]} smaller than {patch_size}"
            )
        label = int(label)
        if not 0 <= label < num_classes:
            raise InvalidLabel(f"label {label} not in [0, {num_classes})")
        buf_patches.append(pixels)
        buf_labels.append(label)
        if len(buf_labels) >= chunk_size:
            yield np.stack(buf_patches), np.array(buf_labels)
            buf_patches.clear()
            buf_labels.clear()
    if buf_labels:
        yield np.stack(buf_patches), np.array(buf_labels)


def _take(data: bytes, pos: int, dtype: str, shape: tuple):
    # Python ints: a forged header must not wrap the size into a small one
    count = math.prod(shape)
    nbytes = count * np.dtype(dtype).itemsize
    if pos + nbytes > len(data):
        raise FormatError("truncated model file")
    arr = np.frombuffer(data, dtype=dtype, count=count, offset=pos).reshape(shape)
    return arr, pos + nbytes
