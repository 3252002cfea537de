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
import itertools
import math
import numbers
import struct
from functools import cached_property, partial
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
    checked_array,
    checked_bytes,
    checked_count,
    checked_patch_size,
    checked_rng,
    is_finite,
)
from .image import GrayImage, checked_image
from .keypoints import ClassSet, window_fits

MODEL_MAGIC = b"FERNMDL1"
MODEL_VERSION = 3
# version, classes, units, bits/depth, patch size, combination, count width
HEADER = struct.Struct("<7I")
# bytes per stored count; save() picks the narrowest that holds every count
COUNT_WIDTHS = (1, 2, 4, 8)
# deepest unit (fern size or tree depth): leaf indices are int64
MAX_DEPTH = 63
MAX_PATCH_SIZE = 65535  # model files store test offsets as int16

DEFAULT_FERN_COUNT = 30
DEFAULT_FERN_SIZE = 10  # 30 x 10 = 300 binary features

# Patches scored per step of classify_patches: its score buffers stay
# cache-sized whatever the batch size.
PATCH_BLOCK = 256
# Unit rows gathered per step when scoring one patch: a one-location call's
# scratch holds an eighth of a block's rows.
ONE_PATCH_ROWS = PATCH_BLOCK // 8

# Samples counted per step of training.
TRAIN_CHUNK = 1024

# Test rows drawn per rng call: one call for n rows gives the values of n
# one-row calls, and its temporaries stay at 2 MB whatever the count.
TEST_CHUNK = 1 << 16


# the rule for a unit depth (fern size or tree depth), called (depth, name)
checked_depth = partial(checked_count, low=1, high=MAX_DEPTH)


class Combination(enum.Enum):
    """How per-unit class probabilities are fused into one decision."""

    AVERAGE = 0
    NAIVE_BAYES = 1


def random_tests(count: int, patch_size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` tests with offsets uniform over the patch square, as a
    (count, 4) array of ``(dx1, dy1, dx2, dy2)`` rows.

    Coincident offset pairs are redrawn. Draws are sequential, so the first
    k tests of a longer draw equal a fresh draw of k tests under one seed.
    The array is allocated before the first draw, so a count too large to
    hold raises InvalidArgument at once.
    """
    count = checked_count(count, "count")
    reach = checked_patch_size(patch_size) // 2
    rng = checked_rng(rng)
    try:
        tests = np.empty((count, 4), dtype=np.intp)
    except (MemoryError, ValueError):  # ValueError: past numpy's size limit
        raise InvalidArgument(f"cannot allocate {count} tests") from None
    filled = 0
    while filled < count:
        rows = rng.integers(-reach, reach + 1, (min(count - filled, TEST_CHUNK), 4))
        rows = rows[(rows[:, 0] != rows[:, 2]) | (rows[:, 1] != rows[:, 3])]
        tests[filled : filled + len(rows)] = rows
        filled += len(rows)
    return tests


def _check_patch_batch(patches: np.ndarray, patch_size: int) -> np.ndarray:
    """The (N, p, p) windows centred on each patch of a uint8 batch (a view)."""
    arr = checked_array(patches, "patches")
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
    how (``leaf_indices``), and everything after that is shared. A model's
    tests are one read-only (units, tests per unit, 4) integer array,
    ``tests``: row ``(dx1, dy1, dx2, dy2)`` compares the pixels at those
    offsets from the patch centre, and its bit is 1 when the first is darker.
    A fern's D tests give its leaf's bits, test 0 the most significant; a
    tree's 2^D - 1 node tests are in breadth-first order. Counts are
    the only state: they reach a model through its constructor, training is
    their only writer, and the Laplace-regularized log tables and count
    lookup are caches of them, built on first read and dropped whenever
    they change. Model files store the counts.

    Counts are held at the narrowest width in ``COUNT_WIDTHS`` that their
    class totals need. A read-only counts array is shared (a loaded file's
    bytes, a ``truncated`` prefix, a ``counts`` view); a model copies it
    before it writes.
    """

    magic = b""
    # the combinations a model may take; the first is its default
    combinations = (Combination.AVERAGE, Combination.NAIVE_BAYES)

    def __init_subclass__(cls, **kwargs):
        # perfbench/spans.py wraps the methods it finds in a model class's own
        # __dict__, so every subclass binds the shared ones (or its overrides).
        super().__init_subclass__(**kwargs)
        for name in ("train", "_accumulate", "_rebuild_tables", "classify_patches",
                     "classify", "save", "load"):
            setattr(cls, name, next(vars(c)[name] for c in cls.__mro__ if name in vars(c)))

    def __init__(
        self,
        classes: ClassSet,
        tests: np.ndarray,
        combination: Combination | None = None,
        counts: np.ndarray | None = None,
    ):
        combination = self._checked(classes, combination)
        tests = checked_array(tests, "tests")
        if tests.ndim != 3 or tests.shape[2] != 4 or 0 in tests.shape:
            raise InvalidArgument(
                f"tests must be a non-empty (units, tests per unit, 4) array, got {tests.shape}"
            )
        if tests.dtype.kind not in "iu":
            raise InvalidArgument(f"test offsets must be integers, got {tests.dtype}")
        # compared as Python ints: exact for every integer dtype, before a cast
        reach = classes.patch_size // 2
        if int(tests.min()) < -reach or int(tests.max()) > reach:
            raise InvalidArgument("test offset outside the patch square")
        if ((tests[..., 0] == tests[..., 2]) & (tests[..., 1] == tests[..., 3])).any():
            raise InvalidArgument("feature offsets must differ")
        depth = next(d for d in itertools.count(1) if self._tests_per_unit(d) >= tests.shape[1])
        if depth > MAX_DEPTH:
            raise InvalidArgument(f"unit depth {depth} exceeds {MAX_DEPTH}")
        if self._tests_per_unit(depth) != tests.shape[1]:
            raise InvalidArgument(
                f"a depth-{depth} unit needs {self._tests_per_unit(depth)} tests, "
                f"got {tests.shape[1]}"
            )
        self.tests = tests.astype(np.intp)  # (units, tests per unit, 4)
        self.tests.flags.writeable = False
        self.classes = classes
        self.combination = combination
        self.patch_size = classes.patch_size
        self.num_classes = len(classes)
        self.num_units = tests.shape[0]
        self.depth = depth
        self.num_leaves = 1 << depth
        # flat positions of each test's two pixels in the p x p window
        p = self.patch_size
        self._o1 = (self.tests[..., 1] + reach) * p + self.tests[..., 0] + reach
        self._o2 = (self.tests[..., 3] + reach) * p + self.tests[..., 2] + reach
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
            counts = checked_array(counts, "counts")
            kind = counts.dtype.kind
            if kind not in "biufO" or (
                kind == "O" and not all(isinstance(c, numbers.Real) for c in counts.flat)
            ):
                raise InvalidArgument(f"counts must be whole numbers >= 0, got {counts.dtype}")
            if counts.dtype == np.bool_:
                counts = counts.view(np.uint8)
            elif not np.can_cast(counts.dtype, np.uint64):
                # a negative count would wrap, a fractional one truncate; a
                # float64 bound keeps a float16 comparison from overflowing
                ok = (counts >= 0) & (counts < np.float64(2**64)) & (counts == np.floor(counts))
                if not ok.all():
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
        self.pixel_comparisons = 0
        self.table_lookups = 0

    @classmethod
    def random(cls, classes: ClassSet, units: int, depth: int, rng: np.random.Generator,
               combination: Combination | None = None):
        """``units`` units of depth ``depth`` over random tests, drawn by one
        ``random_tests`` call in unit order; deterministic under ``rng``.

        Every argument is checked before any test is drawn.
        ``combination`` None is the class's default, as in the constructor.
        """
        units = checked_count(units, "units", low=1)
        per_unit = cls._tests_per_unit(checked_depth(depth, "depth"))
        combination = cls._checked(classes, combination)
        tests = random_tests(units * per_unit, classes.patch_size, checked_rng(rng))
        return cls(classes, tests.reshape(units, per_unit, 4), combination)

    @classmethod
    def _checked(cls, classes: ClassSet, combination: Combination | None) -> Combination:
        """``combination`` (None: the class's default), if it and ``classes`` are valid."""
        if not isinstance(classes, ClassSet):
            raise InvalidArgument(f"classes must be a ClassSet, got {classes!r}")
        if classes.patch_size > MAX_PATCH_SIZE:
            raise InvalidArgument(f"patch size {classes.patch_size} exceeds {MAX_PATCH_SIZE}")
        if combination is None:
            return cls.combinations[0]
        if not isinstance(combination, Combination) or combination not in cls.combinations:
            allowed = " or ".join(map(str, cls.combinations))
            raise InvalidArgument(f"{cls.__name__} takes {allowed}, got {combination!r}")
        return combination

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
        """Count a stream of (patch, label) pairs or (patches, labels) blocks
        (what ``fernkit.dataset.sample_batches`` takes); tables follow on first read."""
        train_models((self,), samples)
        return self

    def _accumulate(self, patches: np.ndarray, labels: np.ndarray) -> None:
        """Add one count per (unit, leaf, label) of a chunk; labels are in range.

        A sample adds 1 to one leaf of every unit, so no count exceeds its
        class's total, and unit totals agree. The counts are widened only
        when the largest class total after the chunk needs a wider width in
        ``COUNT_WIDTHS``, and copied first when they are shared read-only.
        A class total past 2^64 - 1 raises InvalidArgument before any write.
        """
        leaves = self.leaf_indices(patches)  # (N, U)
        units = np.arange(leaves.shape[1]) * self.num_leaves
        cells = (units + leaves) * self.num_classes + labels[:, None]
        # one sort for the whole chunk instead of one np.add.at per unit
        cells, hits = np.unique(cells, return_counts=True)
        # unit 0's (leaves, H) sum gives the class totals; int64 would wrap u64's
        exact = object if self._counts.dtype == np.uint64 else np.int64
        totals = self._counts[0].sum(axis=0, dtype=exact)
        totals += np.bincount(labels, minlength=self.num_classes)
        largest = int(totals.max())
        if largest >= 2**64:
            raise InvalidArgument(f"a class total of {largest} exceeds 2^64 - 1")
        need = np.dtype(f"u{_width(largest)}")
        if not np.can_cast(need, self._counts.dtype) or not self._counts.flags.writeable:
            wide = np.promote_types(need, self._counts.dtype)
            self._counts = np.array(self._counts, dtype=wide, order="C")
        self._counts.reshape(-1)[cells] += hits.astype(self._counts.dtype)

    def _rebuild_tables(self) -> None:
        """Check the counts and drop the tables built from older ones;
        counts from unequal streams are rejected.

        Every sample reaches one leaf of every unit, so each unit's
        per-class totals must agree. The check keeps the (H,) Laplace
        denominators ``totals + 2^D`` that every table row divides by, and
        is the one place that drops the tables built on first read. Totals
        are summed in the narrowest integers that hold them exactly
        (``_total_dtype``): a float64 sum's values at a fraction of its cost.
        """
        acc = _total_dtype(self._counts.dtype, self.num_leaves)
        totals = self._counts.sum(axis=1, dtype=acc)  # (U, H)
        if np.any(totals != totals[0]):
            raise InvalidArgument("per-class sample totals disagree across units")
        self._denominators = totals[0].astype(np.float64)
        self._denominators += float(self.num_leaves)
        for name in ("log_table", "_count_lookup", "_unit_posteriors"):
            vars(self).pop(name, None)

    @cached_property
    def log_table(self) -> np.ndarray:
        """(units, leaves, classes) float64 log P(leaf | class), built from
        the counts on first read: log((count + 1) / (total + 2^D)).

        The table reads the counts at the width they are held; any unsigned
        width of the same values gives the same bytes.
        """
        return _log_leaf_probs(self._counts, self._denominators, np.empty(self._counts.shape))

    @cached_property
    def _count_lookup(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(H, T + 1) float64 count lookup, and the flat offsets of its class
        rows for a step of ``_counted_scores``.

        Entry [h, c], flat entry ``offsets[i, h] + c`` for any row i, is
        log((c + 1) / (total_h + 2^D)) for each count c up to the largest
        class total T: every ``log_table`` value of class h with count c,
        made by the same kernel, so with its bytes. Built on first read;
        None, with nothing allocated, when it would outsize the table.
        """
        # every count is at most its class total, and the totals check
        # keeps total_h + 2^D for each class
        largest = int(self._denominators.max()) - self.num_leaves
        if largest + 1 > self.num_units * self.num_leaves:
            return None
        lookup = np.empty((self.num_classes, largest + 1))
        _log_leaf_probs(np.arange(largest + 1), self._denominators[:, None], lookup)
        # whole rows: numpy buffers an add that broadcasts a row
        rows = np.arange(0, lookup.size, largest + 1)
        return lookup, np.tile(rows, (min(ONE_PATCH_ROWS, self.num_units), 1))

    @cached_property
    def _unit_posteriors(self) -> np.ndarray:
        """(units * leaves, H) per-unit class posteriors that averaging adds:
        row r is the softmax of ``log_table`` row r plus the log prior.

        A row depends only on its (unit, leaf), so the table is built once,
        on first read, and Naive-Bayes models never build it.
        """
        return _softmax_rows(self.log_table.reshape(-1, self.num_classes) + self.log_prior)

    def truncated(self, k: int):
        """A model over the first k units, on a read-only prefix view of this
        model's counts; both models' counts become read-only, so neither
        writes into the other."""
        k = checked_count(k, "k", low=1, high=self.num_units)
        return type(self)(self.classes, self.tests[:k], self.combination, self.counts[:k])

    # -- evaluation -------------------------------------------------------

    def classify_patches(
        self, patches: np.ndarray, combination: Combination | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Labels and scores for a patch batch; ties go low.

        ``combination``, a Combination, defaults to the model's own.
        Naive-Bayes scores are unnormalized log posteriors; averaging scores
        are the winning class's mean per-unit posterior. The batch is scored
        in blocks of ``PATCH_BLOCK`` patches, so temporaries do not grow.
        """
        if combination is None:
            combination = self.combination
        elif not isinstance(combination, Combination):
            raise InvalidArgument(f"combination must be a Combination, got {combination!r}")
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

    def classify(self, img: GrayImage, x: float, y: float) -> tuple[int, float]:
        """Most probable class at location (x, y) and its score; ties go low."""
        scores = self._score_one(img, x, y)
        label = int(scores.argmax())
        return label, float(scores[label])

    def posterior(self, img: GrayImage, x: float, y: float) -> np.ndarray:
        """Normalized class posterior; sums to 1, argmax agrees with classify."""
        scores = self._score_one(img, x, y)[None].copy()
        if self.combination is Combination.NAIVE_BAYES:
            scores = _softmax_rows(scores)
        return scores[0]

    def _score_one(self, img: GrayImage, x: float, y: float) -> np.ndarray:
        """(H,) scores at one location, without classify_patches' batch loop:
        Naive-Bayes from the count lookup when it fits, else as one block.
        Scratch is made per call, so threads may share a model."""
        block = self._window(img, x, y)
        if self.combination is Combination.NAIVE_BAYES and self._count_lookup is not None:
            return self._counted_scores(block)
        scores, rows = self._buffers(1)
        self._score_block(block, self.combination, scores, rows)
        return scores[0]

    def _window(self, img: GrayImage, x: float, y: float) -> np.ndarray:
        """The (1, p, p) patch centered on the rounded location, if finite."""
        checked_image(img)
        r = self.patch_size // 2
        if is_finite(x, "x") and is_finite(y, "y"):
            cx, cy = int(round(x)), int(round(y))
            if window_fits(cx, cy, img.width, img.height, r):
                return img.pixels[None, cy - r : cy + r + 1, cx - r : cx + r + 1]
        raise OutOfBounds(f"patch around ({x}, {y}) leaves the image")

    def _buffers(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Score rows for blocks of a batch of n patches, and the scratch
        ``_score_block`` gathers into; neither has over ``PATCH_BLOCK`` rows,
        and one patch's scratch has at most ``ONE_PATCH_ROWS``."""
        k = min(PATCH_BLOCK, n)
        rows = min(PATCH_BLOCK if k > 1 else ONE_PATCH_ROWS, k * self.num_units)
        buffer = np.empty((k + rows, self.num_classes))
        return buffer[:k], buffer[k:]

    def _score_block(
        self, block: np.ndarray, combination: Combination,
        scores: np.ndarray, rows: np.ndarray,
    ) -> None:
        """Fill ``scores`` with the (k, H) class scores of k patches.

        Units are scored in steps of as many whole patches' rows as the
        ``rows`` scratch holds: one take gathers the table rows of every
        unit in a step into it, unit-major, and they are added to the scores
        in unit order. A score is therefore the same float64 sum whatever
        the block size. The rows are log-probabilities for Naive-Bayes and
        the cached per-unit posteriors for averaging; a one-patch
        Naive-Bayes block goes to ``_counted_scores`` when the lookup fits.
        """
        naive_bayes = combination is Combination.NAIVE_BAYES
        if naive_bayes and len(block) == 1 and self._count_lookup is not None:
            scores[0] = self._counted_scores(block)
            return
        leaves = self.leaf_indices(block)
        self.table_lookups += leaves.size
        k, units = leaves.shape
        table = (self.log_table.reshape(-1, self.num_classes) if naive_bayes
                 else self._unit_posteriors)
        # rows of ``table`` to add, unit-major: unit u's k rows, then u + 1's
        cells = (leaves + self._unit_rows).T.ravel()
        # a reduction over a single column would sum pairwise
        step = 1 if scores.size == 1 else len(rows) - len(rows) % k
        # what the scores start from, and then the scores so far
        total = self.log_prior if naive_bayes else 0.0
        for start in range(0, cells.size, step):
            ids = cells[start : start + step]
            got = rows[: ids.size]
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

    def _counted_scores(self, block: np.ndarray) -> np.ndarray:
        """(H,) Naive-Bayes scores of one patch with ``_score_block``'s bytes,
        its counts rows mapped through the count lookup: no log, no table.
        Rows are added to the log prior in unit order, at most ``ONE_PATCH_ROWS``
        per step, and one when H = 1: numpy sums one column pairwise."""
        lookup, offsets = self._count_lookup
        cells = self.leaf_indices(block)[0] + self._unit_rows
        self.table_lookups += cells.size
        counts = self._counts.reshape(-1, self.num_classes)
        step = len(offsets) if self.num_classes > 1 else 1
        scores = self.log_prior
        for start in range(0, cells.size, step):
            # cast before adding: a mixed-type add buffers its cast, and u64
            # counts would promote to float64; counts are at most T
            at = counts.take(cells[start : start + step], axis=0).astype(np.intp)
            at += offsets[: len(at)]
            got = lookup.take(at, mode="clip")
            got[0] += scores
            scores = np.add.reduce(got, axis=0)  # adds the rows in order
        return scores

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
            self.depth,
            self.patch_size,
            self.combination.value,
            width,
        )
        kp = self.classes.coords.astype("<f4").tobytes()
        tests = self.tests.astype("<i2").tobytes()
        return head + kp + tests + counts.astype(f"<u{width}", copy=False).tobytes()

    @classmethod
    def load(cls, data: bytes):
        """The model a ``save`` file holds, given as bytes, a bytearray or a memoryview."""
        data = checked_bytes(data)
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
            classes = ClassSet(kp, patch_size)
            # the totals check rejects counts whose unit totals disagree;
            # no table is built until one is read
            return cls(classes, tests, Combination(combo), counts)
        except FernkitError as exc:
            raise CorruptModel(str(exc)) from exc


class FernModel(LeafModel):
    """S ferns x 2^M leaves x H classes, fused by Naive-Bayes."""

    magic = MODEL_MAGIC
    combinations = (Combination.NAIVE_BAYES,)

    @staticmethod
    def _tests_per_unit(depth: int) -> int:
        return depth

    @cached_property
    def _weights(self) -> np.ndarray:
        """Each bit's weight in a leaf index, test 0 the most significant."""
        return (1 << np.arange(self.depth - 1, -1, -1)).astype(np.int64)

    def leaf_indices(self, patches: np.ndarray) -> np.ndarray:
        """(N, S) leaf indices for a batch of patches centered on themselves."""
        flat = _flat_windows(patches, self.patch_size)
        bits = flat.take(self._o1, axis=1) < flat.take(self._o2, axis=1)  # (N, S, M)
        self.pixel_comparisons += bits.size
        return bits @ self._weights


def train_models(models: Sequence[LeafModel], samples: Iterable):
    """Train several models in one pass: each chunk of ``TRAIN_CHUNK``
    samples is counted into every model, so each gets the counts it would
    get alone. A chunk holding a label outside [0, H) raises InvalidLabel
    before any model counts it.

    Each chunk is counted at the narrowest width that holds its class
    totals (``LeafModel._accumulate``). Whether the stream ends or raises,
    each model's counts are then narrowed to the width ``save()`` picks and
    checked, which drops its stale tables; training builds no table.
    """
    classes = min(model.num_classes for model in models)
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
    ``log_table`` and the count lookup. copyto casts without a buffer."""
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
