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

from .dataset import sample_batches
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
from .keypoints import ClassSet, Keypoint, window_fits

MODEL_MAGIC = b"FERNMDL1"
MODEL_VERSION = 3
# version, classes, units, bits/depth, patch size, combination, count width
HEADER = struct.Struct("<7I")
# bytes per stored count; save() picks the narrowest that holds every count
COUNT_WIDTHS = (1, 2, 4, 8)
# deepest unit (fern size or tree depth): leaf indices are int64
MAX_DEPTH = 63

DEFAULT_FERN_COUNT = 30
DEFAULT_FERN_SIZE = 10  # 30 x 10 = 300 binary features

# Patches scored per step of classify_patches: its score buffers stay
# cache-sized whatever the batch size.
PATCH_BLOCK = 256

# Samples counted per step of training.
TRAIN_CHUNK = 1024


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
    """The (N, p, p) windows centred on each patch of a uint8 batch (a view)."""
    arr = np.asarray(patches)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    if arr.ndim != 3 or arr.dtype != np.uint8:
        raise InvalidArgument("patches must be a (N, h, w) uint8 array")
    h, w = arr.shape[1:]
    if h < patch_size or w < patch_size:
        raise InvalidPatch(f"patch {w}x{h} smaller than {patch_size}")
    top, left = h // 2 - patch_size // 2, w // 2 - patch_size // 2
    return arr[:, top : top + patch_size, left : left + patch_size]


def _flat_windows(patches: np.ndarray, patch_size: int) -> np.ndarray:
    """(N, p*p) rows of the centred windows; copies only strided windows."""
    arr = _check_patch_batch(patches, patch_size)
    return arr.reshape(arr.shape[0], patch_size * patch_size)


class LeafModel:
    """Per-unit leaf counts over classes, and the log tables built from them.

    A unit (fern or tree) maps a patch to one of 2^D leaves; subclasses say
    how (``leaf_indices``), and everything after that is shared. Counts are
    the only state: they reach a model through its constructor, training is
    their only writer, and the Laplace-regularized log tables are caches of
    them, built on first read and dropped whenever they change. Model files
    store the counts, so a loaded model's tables agree with its counts.

    Counts are held at the narrowest width in ``COUNT_WIDTHS`` that their
    class totals need. A read-only counts array is shared (a loaded file's
    bytes, a ``truncated`` prefix, a ``counts`` view); a model copies it
    before it writes.
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
        if depth > MAX_DEPTH:
            raise InvalidArgument(f"unit depth {depth} exceeds {MAX_DEPTH}")
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
        self.num_units = len(self._tests)
        self._offsets = offsets  # (U, tests per unit, 4)
        # flat positions of each test's two pixels in the p x p window
        p, r = self.patch_size, self.patch_size // 2
        self._o1 = (offsets[..., 1] + r) * p + offsets[..., 0] + r
        self._o2 = (offsets[..., 3] + r) * p + offsets[..., 2] + r
        shape = (self.num_units, self.num_leaves, self.num_classes)
        if counts is None:
            # the width save() picks for zero counts; training widens them
            try:
                self._counts = np.zeros(shape, dtype=np.uint8)
            except (MemoryError, ValueError):  # ValueError: past numpy's size limit
                raise InvalidArgument(f"cannot allocate counts of shape {shape}") from None
        else:
            # unsigned counts keep the width they came in (a loaded file's),
            # so a model that is only read never holds a uint64 copy
            counts = np.asarray(counts)
            if counts.dtype == np.bool_:
                counts = counts.view(np.uint8)
            elif not np.can_cast(counts.dtype, np.uint64):
                # a negative count would wrap, a fractional one truncate
                whole = (counts >= 0) & (counts < 2.0**64) & (counts == np.floor(counts))
                if not whole.all():
                    raise InvalidArgument("counts must be whole numbers >= 0")
                counts = counts.astype(np.uint64)
            # shared only if neither it nor the array it views is writeable,
            # so no caller can change it; _accumulate copies it before it writes
            arrays = (counts, counts.base if isinstance(counts.base, np.ndarray) else counts)
            shared = counts.flags.c_contiguous and not any(a.flags.writeable for a in arrays)
            self._counts = counts if shared else np.array(counts, order="C")
        if self._counts.shape != shape:
            raise InvalidArgument(f"counts must have shape {shape}")
        # first row of each unit in the (units * leaves, H) view of log_table
        self._unit_rows = np.arange(shape[0]) * self.num_leaves
        # training streams are balanced by construction, so the prior is
        # exactly uniform (and stays finite for classes never seen)
        self.log_prior = np.full(self.num_classes, -np.log(self.num_classes))
        self._rebuild_tables()
        self._one_patch = None  # _score_one's buffers, made on first use
        self.pixel_comparisons = 0
        self.table_lookups = 0

    @property
    def counts(self) -> np.ndarray:
        """(units, leaves, classes) counts as a read-only view, at the width
        the model holds them (u8, u16, u32 or u64). Reading freezes the held
        array, as ``truncated`` does, so training copies it before it next
        counts and no write through a view reaches the model."""
        self._counts.flags.writeable = False
        return self._counts.view()

    # -- training ---------------------------------------------------------

    def train(self, samples: Iterable):
        """Count a stream of samples or (patch, label) pairs (anything
        ``fernkit.dataset.sample_batches`` takes); tables follow on first read."""
        train_models((self,), samples)
        return self

    def _accumulate(self, patches: np.ndarray, labels: np.ndarray) -> None:
        """Add one count per (unit, leaf, label) of a chunk; labels are in range.

        A sample adds 1 to one leaf of every unit, so no count exceeds its
        class's total, and unit totals agree. The counts are widened only
        when the largest class total after the chunk needs a wider width in
        ``COUNT_WIDTHS``, and copied first when they are shared read-only.
        """
        leaves = self.leaf_indices(patches)  # (N, U)
        units = np.arange(leaves.shape[1]) * self.num_leaves
        cells = (units + leaves) * self.num_classes + labels[:, None]
        # one sort for the whole chunk instead of one np.add.at per unit
        cells, hits = np.unique(cells, return_counts=True)
        # unit 0's (leaves, H) sum gives the class totals
        totals = self._counts[0].sum(axis=0, dtype=np.int64)
        totals += np.bincount(labels, minlength=self.num_classes)
        need = np.dtype(f"u{_width(int(totals.max()))}")
        if not np.can_cast(need, self._counts.dtype) or not self._counts.flags.writeable:
            wide = np.promote_types(need, self._counts.dtype)
            self._counts = np.array(self._counts, dtype=wide, order="C")
        self._counts.reshape(-1)[cells] += hits.astype(self._counts.dtype)

    def _rebuild_tables(self) -> None:
        """Check the counts and drop the tables built from older ones;
        counts from unequal streams are rejected.

        Every sample reaches one leaf of every unit, so each unit's
        per-class totals must agree. The check keeps the (U, H) Laplace
        denominators ``totals + 2^D`` that every table row divides by; the
        tables themselves are built on first read. The totals are summed in
        the narrowest integers that hold them exactly (``_total_dtype``),
        which gives the values of a float64 sum at a fraction of its cost.
        """
        acc = _total_dtype(self._counts.dtype, self.num_leaves)
        totals = self._counts.sum(axis=1, dtype=acc)  # (U, H)
        if np.any(totals != totals[0]):
            raise InvalidArgument("per-class sample totals disagree across units")
        totals = totals.astype(np.float64, copy=False)
        totals += float(self.num_leaves)
        self._denominators = totals
        self._log_table = self._posteriors = None

    @property
    def log_table(self) -> np.ndarray:
        """(units, leaves, classes) float64 log P(leaf | class), built from
        the counts on first read: log((count + 1) / (total + 2^D)).

        The table reads the counts at the width they are held; any unsigned
        width of the same values gives the same bytes.
        """
        if self._log_table is None:
            table = np.empty(self._counts.shape)
            denominators = self._denominators[:, None, :]
            self._log_table = _log_leaf_probs(self._counts, denominators, table)
        return self._log_table

    def _unit_posteriors(self) -> np.ndarray:
        """(units * leaves, H) per-unit class posteriors that averaging adds:
        row r is the softmax of ``log_table`` row r plus the log prior.

        A row depends only on its (unit, leaf), so the table is built once,
        on first use, and Naive-Bayes models never build it.
        """
        if self._posteriors is None:
            rows = self.log_table.reshape(-1, self.num_classes) + self.log_prior
            self._posteriors = _softmax_rows(rows)
        return self._posteriors

    def truncated(self, k: int):
        """A model over the first k units, on read-only prefix views of this
        model's counts and of its log table when it is built (all unit
        totals agree, so it is the sub-model's table bit for bit). Both
        models' counts become read-only, so neither writes into the other.
        """
        if not 1 <= k <= self.num_units:
            raise InvalidArgument(f"k must be in [1, {self.num_units}]")
        sub = self._like(self._tests[:k], self.counts[:k])
        if self._log_table is not None:
            self._log_table.flags.writeable = False
            sub._log_table = self._log_table[:k]
        return sub

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
        mean per-unit posterior. The batch is scored in blocks of
        ``PATCH_BLOCK`` patches, so temporaries do not grow with it.
        """
        if combination is None:
            combination = self.combination
        arr = _check_patch_batch(patches, self.patch_size)
        n = arr.shape[0]
        labels = np.empty(n, dtype=np.intp)
        best = np.empty(n)
        block_scores, rows = self._buffers(n)
        for start in range(0, n, PATCH_BLOCK):
            block = arr[start : start + PATCH_BLOCK]
            k = block.shape[0]
            scores = block_scores[:k]
            self._score_block(block, combination, scores, rows)
            chosen = labels[start : start + k]
            np.argmax(scores, axis=1, out=chosen)
            best[start : start + k] = scores[np.arange(k), chosen]
        return labels, best

    def classify(self, img: GrayImage, center: Keypoint) -> tuple[int, float]:
        """Most probable class at one location and its score; ties go low."""
        scores = self._score_one(img, center)[0]
        label = int(scores.argmax())
        return label, float(scores[label])

    def posterior(self, img: GrayImage, center: Keypoint) -> np.ndarray:
        """Normalized class posterior; sums to 1, argmax agrees with classify."""
        scores = self._score_one(img, center).copy()
        if self.combination is Combination.NAIVE_BAYES:
            scores = _softmax_rows(scores)
        return scores[0]

    def _score_one(self, img: GrayImage, center: Keypoint) -> np.ndarray:
        """(1, H) scores of the patch at one location under the model's
        combination: one block, without classify_patches' batch loop.

        The score row and the gather scratch are the model's own, made on
        its first one-patch call, so the next call overwrites the row.
        """
        if self._one_patch is None:
            self._one_patch = self._buffers(1)
        scores, rows = self._one_patch
        self._score_block(self._window(img, center), self.combination, scores, rows)
        return scores

    def _window(self, img: GrayImage, center: Keypoint) -> np.ndarray:
        """The (1, p, p) patch centered on the rounded location."""
        cx, cy = int(round(center.x)), int(round(center.y))
        r = self.patch_size // 2
        if not window_fits(cx, cy, img.width, img.height, r):
            raise OutOfBounds(f"patch around ({cx}, {cy}) leaves the image")
        return img.pixels[None, cy - r : cy + r + 1, cx - r : cx + r + 1]

    def _buffers(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Score rows for blocks of a batch of n patches, and the scratch
        ``_score_block`` gathers into; neither has over ``PATCH_BLOCK`` rows."""
        k = min(PATCH_BLOCK, n)
        rows = min(PATCH_BLOCK, k * self.num_units)
        buffer = np.empty((k + rows, self.num_classes))
        return buffer[:k], buffer[k:]

    def _score_block(
        self, block: np.ndarray, combination: Combination,
        scores: np.ndarray, rows: np.ndarray,
    ) -> None:
        """Fill ``scores`` with the (k, H) class scores of k patches.

        Units are scored in steps of ``PATCH_BLOCK // k``: one take gathers
        the table rows of every unit in a step into the ``rows`` scratch,
        unit-major, and they are added to the scores in unit order. A score
        is therefore the same float64 sum whatever the block size. The rows
        are log-probabilities for Naive-Bayes and the cached per-unit
        posteriors for averaging.

        A one-patch Naive-Bayes block on a model whose table is not built
        computes its U rows from the counts with the table's own ops, so a
        model that only scores single patches never builds the table.
        """
        leaves = self.leaf_indices(block)
        self.table_lookups += leaves.size
        k, units = leaves.shape
        naive_bayes = combination is Combination.NAIVE_BAYES
        if naive_bayes and k == 1 and self._log_table is None:
            table = None  # rows come from the counts
        elif naive_bayes:
            table = self.log_table.reshape(-1, self.num_classes)
        else:
            table = self._unit_posteriors()
        # rows of ``table`` to add, unit-major: unit u's k rows, then u + 1's
        cells = (leaves + self._unit_rows).T.ravel()
        # a reduction over a single column sums pairwise, not in order
        step = k * max(1, PATCH_BLOCK // k) if scores.size > 1 else k
        # what the scores start from, and then the scores so far
        total = self.log_prior if naive_bayes else 0.0
        for start in range(0, cells.size, step):
            ids = cells[start : start + step]
            got = rows[: ids.size]
            if table is None:
                self._log_rows(ids, start, got)
            else:
                # leaves are in range by construction; clip mode lets take
                # write straight into ``got`` instead of buffering it
                table.take(ids, axis=0, out=got, mode="clip")
            if ids.size == k:
                np.add(total, got, out=scores)
            else:
                # r + s equals s + r bit for bit, and a reduction over the
                # outer axis adds its rows in order
                got[:k] += total
                np.add.reduce(got.reshape(-1, *scores.shape), axis=0, out=scores)
            total = scores
        if not naive_bayes:
            scores /= units

    def _log_rows(self, ids: np.ndarray, first: int, out: np.ndarray) -> None:
        """Fill ``out`` with rows ``ids`` of the (units * leaves, H) view of
        ``log_table``, row i being a leaf of unit ``first + i``, computed
        from the counts by the table's own kernel, so they are its bytes."""
        counts = self._counts.reshape(-1, self.num_classes).take(ids, axis=0)
        _log_leaf_probs(counts, self._denominators[first : first + ids.size], out)

    # -- serialization ----------------------------------------------------

    def save(self) -> bytes:
        """Little-endian model file; load() restores behavior bit-exactly.

        Counts are stored at the narrowest width in ``COUNT_WIDTHS`` that
        holds the largest of them.
        """
        counts = _narrowest(self._counts)
        width = counts.itemsize
        head = self.magic + HEADER.pack(
            MODEL_VERSION,
            self.num_classes,
            self.num_units,
            self.num_leaves.bit_length() - 1,
            self.patch_size,
            self.combination.value,
            width,
        )
        kp = self.classes.coords.astype("<f4").tobytes()
        tests = self._offsets.astype("<i2").tobytes()
        return head + kp + tests + counts.astype(f"<u{width}", copy=False).tobytes()

    @classmethod
    def load(cls, data: bytes):
        pos = len(cls.magic) + HEADER.size
        if len(data) < pos:
            raise FormatError("file shorter than its header")
        if data[: len(cls.magic)] != cls.magic:
            raise FormatError(f"bad magic {data[:len(cls.magic)]!r}")
        version, h, units, depth, patch_size, combo, width = HEADER.unpack_from(
            data, len(cls.magic)
        )
        if version != MODEL_VERSION:
            raise FormatError(f"unsupported version {version}; retrain the model")
        if combo not in (0, 1):
            raise FormatError(f"unknown combination mode {combo}")
        if width not in COUNT_WIDTHS:
            raise FormatError(f"count width {width} is not one of {COUNT_WIDTHS}")
        if depth > MAX_DEPTH:
            raise FormatError(f"unit depth {depth} exceeds {MAX_DEPTH}")
        kp, pos = _take(data, pos, "<f4", (h, 2))
        tests, pos = _take(data, pos, "<i2", (units, cls._tests_per_unit(depth), 4))
        # a read-only view of the file, which the model shares
        counts, pos = _take(data, pos, f"<u{width}", (units, 1 << depth, h))
        if pos != len(data):
            raise FormatError(f"{len(data) - pos} trailing bytes")
        try:
            # tolist converts every value to a Python float or int at once
            classes = ClassSet(tuple(Keypoint(x, y) for x, y in kp.tolist()), patch_size)
            unit_tests = [
                tuple(FeatureTest(*row) for row in rows) for rows in tests.tolist()
            ]
            # the totals check rejects counts whose unit totals disagree;
            # no table is built until one is read
            return cls._build(classes, depth, unit_tests, Combination(combo), counts)
        except FernkitError as exc:
            raise CorruptModel(str(exc)) from exc


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
        # checked before the S x M tests are drawn
        if s < 1 or not 1 <= m <= MAX_DEPTH:
            raise InvalidArgument(
                f"need s >= 1 ferns of size m in [1, {MAX_DEPTH}], got s={s}, m={m}"
            )
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
        flat = _flat_windows(patches, self.patch_size)
        bits = flat.take(self._o1, axis=1) < flat.take(self._o2, axis=1)  # (N, S, M)
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


def train_models(models: Sequence[LeafModel], samples: Iterable):
    """Train several models in one pass: each chunk of ``TRAIN_CHUNK``
    samples is counted into every model, so each gets the counts it would
    get alone. A chunk holding a label outside [0, H) raises InvalidLabel
    before any model counts it.

    Tables go stale once counting starts, so they are dropped before the
    first chunk is counted. Each chunk is counted at the narrowest width that
    holds its class totals (``LeafModel._accumulate``). Whether the stream
    ends or raises, each model's counts are then narrowed to the width
    ``save()`` picks and checked; training builds no table.
    """
    classes = min(model.num_classes for model in models)
    for model in models:
        model._log_table = model._posteriors = None
    try:
        for patches, labels in sample_batches(samples, TRAIN_CHUNK):
            bad = labels[(labels < 0) | (labels >= classes)]
            if bad.size:
                raise InvalidLabel(f"label {bad[0]} not in [0, {classes})")
            for model in models:
                model._accumulate(patches, labels)
    finally:
        for model in models:
            model._counts = _narrowest(model._counts)
            model._rebuild_tables()


def _narrowest(counts: np.ndarray) -> np.ndarray:
    """``counts`` at the narrowest width in ``COUNT_WIDTHS`` that holds the
    largest of them; ``counts`` itself when it already has that width."""
    return counts.astype(f"u{_width(int(counts.max()))}", copy=False)


def _log_leaf_probs(counts: np.ndarray, denominators: np.ndarray, out: np.ndarray):
    """log((counts + 1) / denominators) in float64 ``out``: the one kernel of
    ``log_table`` and the one-patch rows. copyto casts without a buffer."""
    np.copyto(out, counts)
    out += 1.0
    out /= denominators
    return np.log(out, out=out)


def _total_dtype(dtype: np.dtype, terms: int) -> np.dtype:
    """The dtype to sum ``terms`` counts of ``dtype`` in: the narrowest
    unsigned width in ``COUNT_WIDTHS`` that holds ``terms`` times its largest
    count, so the sum is exact and equals float64's; float64 itself once
    that bound reaches 2^53, where a float64 sum may round and its bytes
    are the rule."""
    bound = terms * int(np.iinfo(dtype).max)
    return np.dtype(np.float64 if bound >= 2**53 else f"u{_width(bound)}")


def _width(largest: int) -> int:
    """Bytes of the narrowest width in ``COUNT_WIDTHS`` that holds ``largest``."""
    return next(w for w in COUNT_WIDTHS if largest < 1 << 8 * w)


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Replace each row of ``scores`` by its softmax, in place."""
    scores -= scores.max(axis=1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=1, keepdims=True)
    return scores


def _take(data: bytes, pos: int, dtype: str, shape: tuple):
    # Python ints: a forged header must not wrap the size into a small one
    count = math.prod(shape)
    nbytes = count * np.dtype(dtype).itemsize
    if pos + nbytes > len(data):
        raise FormatError("truncated model file")
    arr = np.frombuffer(data, dtype=dtype, count=count, offset=pos).reshape(shape)
    return arr, pos + nbytes
