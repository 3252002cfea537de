"""In-memory span recorder wrapped around fernkit's layer boundaries.

The benchmark does not change the library: while a :class:`Tracer` is
installed it replaces the public functions each module exposes, at the
place the next module up looks them up, with wrappers that record one
:class:`Span` per call. Spans nest by call order (the workloads run with
one thread), so a span's parent is the span open when it started.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from fernkit import cli, dataset, evaluate, keypoints
from fernkit.ferns import FernModel
from fernkit.trees import TreeForest


@dataclass
class Span:
    """One call across a layer boundary; times are perf_counter_ns."""

    name: str
    start: int
    request: str
    parent: int | None
    end: int = 0
    counts: dict = field(default_factory=dict)
    self_ns: int = 0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> int:
        return self.end - self.start


def _model_counters(args) -> dict:
    model = args[0]
    return {"comparisons": model.pixel_comparisons, "lookups": model.table_lookups}


def _table_bytes(model) -> int:
    """Log-table bytes one patch reads: one class row per unit (computed)."""
    _, _, classes = model.log_table.shape
    return model.log_table.shape[0] * classes * model.log_table.itemsize


def _px(args, result) -> dict:
    return {"px": result.pixels.size}


def _view_px(args, result) -> dict:
    return {"px": result.pixels.size, "view_px": result.pixels.size}


def _batch_lookup(args, result) -> dict:
    return {"patches": len(result[0]), "table_bytes_per_patch": _table_bytes(args[0])}


def _scalar_lookup(args, result) -> dict:
    return {"patches": 1, "table_bytes_per_patch": _table_bytes(args[0])}


def _leaves(args, result) -> dict:
    return {"patches": result.shape[0]}


def _accumulated(args, result) -> dict:
    return {"patches": len(args[2])}


def trace_points():
    """(owner, attribute, span name, count, delta) for every wrapped boundary.

    ``count(args, result)`` returns work counts for the call; ``delta(args)``
    is a snapshot of counters that is differenced across the call.
    """
    points = [
        (dataset, "warp_image", "image.warp_image", _view_px, None),
        (keypoints, "warp_image", "image.warp_image", _px, None),
        (dataset, "add_noise", "image.add_noise", _px, None),
        (cli, "read_pgm", "image.read_pgm", _px, None),
        (dataset, "extract_patches", "dataset.extract_patches",
         lambda a, r: {"views": 1, "patches": len(r[0]), "classes": len(a[1])}, None),
        (evaluate, "materialize", "evaluate.materialize",
         lambda a, r: {"patches": len(r[1])}, None),
        (evaluate, "compare_methods", "evaluate.compare_methods", None, None),
        (keypoints, "select_stable_classes", "keypoints.select_stable_classes", None, None),
        (cli, "detect_keypoints", "keypoints.detect_keypoints",
         lambda a, r: {"detections": len(r)}, None),
        (cli, "main", "cli.main", None, None),
    ]
    for model, layer in ((FernModel, "ferns"), (TreeForest, "trees")):
        points += [
            (model, "train", f"{layer}.train", None, None),
            (model, "_accumulate", f"{layer}.accumulate", _accumulated, None),
            (model, "_rebuild_tables", f"{layer}.rebuild", None, None),
            (model, "leaf_indices", f"{layer}.leaf_indices", _leaves, None),
            (model, "classify_patches", f"{layer}.lookup_fuse", _batch_lookup, _model_counters),
            (model, "classify", f"{layer}.classify", _scalar_lookup, _model_counters),
            (model, "save", f"{layer}.save", lambda a, r: {"bytes": len(r)}, None),
            (model, "load", f"{layer}.load", None, None),
        ]
    return points


class Tracer:
    """Records spans while installed; uninstalling restores every original."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = "setup"
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, count, delta):
        spans, stack, clock = self.spans, self._open, time.perf_counter_ns

        def traced(*args, **kwargs):
            before = delta(args) if delta else None
            index = len(spans)
            spans.append(Span(name, clock(), self.request, stack[-1] if stack else None))
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index].end = clock()
                stack.pop()
            span = spans[index]
            if count:
                span.counts.update(count(args, result))
            if delta:
                after = delta(args)
                span.counts.update({k: after[k] - before[k] for k in after})
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, count, delta in trace_points():
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, name, count, delta))
            else:
                wrapped = self._wrap(original, name, count, delta)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def finish(self) -> list[Span]:
        """Fill in self times: duration minus the time direct children cover."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_ns[span.parent] += span.duration
        for span, covered in zip(self.spans, child_ns):
            span.self_ns = span.duration - covered
        return self.spans
