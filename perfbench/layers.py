"""Per-layer metrics derived from the spans of one traced run.

Timings are self times, one sample per call, divided by the call's own work
count where the metric is per pixel, patch or view; the reported value is
the median over calls. Counts are taken over set-up plus the first traced
operation, so they repeat exactly for a seed. A metric whose layer does not
run on a workload has no samples and reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

LAYERS = ("image", "dataset", "keypoints", "ferns", "trees", "evaluate", "cli")

# metric -> (span name, count the self time is divided by, ns per reported unit)
TIMINGS = {
    "image.warp_image.ns_per_px": ("image.warp_image", "px", 1),
    "image.add_noise.ns_per_px": ("image.add_noise", "px", 1),
    "dataset.extract_patches.us_per_view": ("dataset.extract_patches", "views", 1e3),
    "evaluate.materialize.self_ms": ("evaluate.materialize", None, 1e6),
    "keypoints.select_stable_classes.s": ("keypoints.select_stable_classes", None, 1e9),
    "keypoints.detect_keypoints.ms_per_frame": ("keypoints.detect_keypoints", None, 1e6),
    "ferns.leaf_indices.ns_per_patch": ("ferns.leaf_indices", "patches", 1),
    "ferns.lookup_fuse.ns_per_patch": ("ferns.lookup_fuse", "patches", 1),
    "ferns.classify.us_per_call": ("ferns.classify", None, 1e3),
    "ferns.load.ms": ("ferns.load", None, 1e6),
    "ferns.accumulate.ns_per_patch": ("ferns.accumulate", "patches", 1),
    "ferns.rebuild.ms": ("ferns.rebuild", None, 1e6),
    "ferns.save.ms": ("ferns.save", None, 1e6),
    "trees.leaf_indices.ns_per_patch": ("trees.leaf_indices", "patches", 1),
    "trees.lookup_fuse.ns_per_patch": ("trees.lookup_fuse", "patches", 1),
    "trees.accumulate.ns_per_patch": ("trees.accumulate", "patches", 1),
    "cli.main.self_ms": ("cli.main", None, 1e6),
}

FERN_LOOKUPS = ("ferns.lookup_fuse", "ferns.classify")


def summary(values) -> dict:
    """Sample count, median and quartiles (all equal for one sample)."""
    values = sorted(values)
    if not values:
        return {"n": 0, "q1": 0.0, "median": 0.0, "q3": 0.0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "q1": q1, "median": statistics.median(values), "q3": q3}


def _total(spans, name, key) -> float:
    return sum(s.counts.get(key, 0) for s in spans if s.name == name)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(spans, first_request: str, run_ns: int) -> tuple[dict, dict]:
    """(metric -> value, metric -> summary) for every per-layer metric.

    ``run_ns`` is the wall time of the traced operations, the base of the
    layer shares; ``first_request`` names the first traced operation.
    """
    stats = {}
    for metric, (name, per, scale) in TIMINGS.items():
        samples = [
            s.self_ns / scale / (s.counts[per] if per else 1)
            for s in spans
            if s.name == name and (per is None or s.counts.get(per))
        ]
        stats[metric] = summary(samples)
    values = {metric: st["median"] for metric, st in stats.items()}

    once = [s for s in spans if s.request in ("setup", first_request)]
    views = _total(once, "dataset.extract_patches", "views")
    patches = _total(once, "dataset.extract_patches", "patches")
    values["image.warp_image.px_per_patch"] = _ratio(
        _total(once, "image.warp_image", "view_px"), patches
    )
    values["dataset.views"] = views
    values["dataset.patches"] = patches
    values["dataset.patch_yield"] = _ratio(
        patches, _total(once, "dataset.extract_patches", "classes")
    )
    for metric, key in (
        ("keypoints.detections_per_frame", "detections"),
        ("ferns.table_bytes_per_patch", "table_bytes_per_patch"),
    ):
        names = FERN_LOOKUPS if metric.startswith("ferns") else ("keypoints.detect_keypoints",)
        stats[metric] = summary([s.counts[key] for s in spans if s.name in names])
        values[metric] = stats[metric]["median"]
    lookup_patches = sum(_total(spans, n, "patches") for n in FERN_LOOKUPS)
    for metric, key in (
        ("ferns.pixel_comparisons_per_patch", "comparisons"),
        ("ferns.table_lookups_per_patch", "lookups"),
    ):
        values[metric] = _ratio(sum(_total(spans, n, key) for n in FERN_LOOKUPS), lookup_patches)

    for layer, share in layer_shares(spans, run_ns).items():
        values[f"share.{layer}"] = share
    return values, stats


def _self_by(spans, key) -> dict:
    totals = defaultdict(int)
    for s in spans:
        if s.request != "setup":
            totals[key(s)] += s.self_ns
    return totals


def layer_shares(spans, run_ns: int) -> dict:
    """Each layer's self time in the traced operations over their wall time."""
    totals = _self_by(spans, lambda s: s.layer)
    return {layer: _ratio(totals[layer], run_ns) for layer in LAYERS}


def span_shares(spans, run_ns: int) -> dict:
    """The same split by span name, largest first."""
    totals = _self_by(spans, lambda s: s.name)
    ranked = sorted(totals.items(), key=lambda kv: -kv[1])
    return {name: _ratio(ns, run_ns) for name, ns in ranked}
