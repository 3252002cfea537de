"""Toy-scale self-test of the benchmark: ``python3 -m pytest perfbench``.

Runs each workload at toy sizes, untraced and traced, and checks that every
metric of BENCHMARK.json is emitted with its unit, that spans nest and have
non-negative self times, and that corrupting an output is caught.
"""

import json

import numpy as np
import pytest

import run

TOY = {
    "desk-compare": {
        "width": 160, "height": 120, "classes": 10, "selection_views": 10,
        "units": 8, "unit_size": 6, "patch": 15,
        "views_per_degree": 1, "rotation_degrees": 60,
        "test_views": 30, "noise_sigma": 10.0,
    },
    "classify-batch": {
        "width": 160, "height": 120, "classes": 12, "selection_views": 10,
        "ferns": 6, "fern_size": 5, "patch": 15,
        "train_views_per_degree": 1, "train_degrees": 12,
        "test_patches": 200, "max_test_views": 60, "noise_sigma": 10.0,
    },
    "scene-match": {
        "width": 160, "height": 120, "classes": 12, "selection_views": 10,
        "ferns": 6, "fern_size": 5, "patch": 15,
        "train_views_per_degree": 1, "train_degrees": 12,
        "frames": 3, "noise_sigma": 10.0,
    },
}

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((run.HERE / "spec.json").read_text())


def toy_run(name, trace):
    return run.run_workload(name, seed=3, seconds=0.2, trace=trace,
                            sizes=TOY[name], setup_repeats=2)


def test_spec_covers_benchmark():
    """spec.json documents every workload and metric BENCHMARK.json names."""
    assert [w["name"] for w in BENCH["workloads"]] == list(SPEC["workloads"])
    assert [m["name"] for m in BENCH["end_to_end"]] == list(SPEC["end_to_end"])
    layer_names = {m["name"] for m in BENCH["per_layer"]}
    documented = {n for n in SPEC["per_layer"] if not n.startswith("share.")}
    shares = {n for n in layer_names if n.startswith("share.")}
    assert documented == layer_names - shares
    for name, w in SPEC["workloads"].items():
        assert set(w["sizes"]) == set(TOY[name])
        for metrics in w["layer_metrics"].values():
            assert set(metrics) <= layer_names


@pytest.mark.parametrize("name", list(TOY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_emitted_with_unit(name, trace):
    result, report, _ = toy_run(name, trace)
    section = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    if name == "desk-compare":
        # NB beating averaging by 5 points is a claim of the full-size protocol
        scale_claims = [p for p in report["problems"] if " beats " in p or p.startswith("|")]
        assert report["problems"] == scale_claims
    else:
        assert result["failed"] == 0, report["problems"]
    for m in section:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and np.isfinite(got["value"])
    assert set(result["metrics"]) == {m["name"] for m in section}
    json.dumps(result)


@pytest.mark.parametrize("name", list(TOY))
def test_spans_nest_and_self_times_are_non_negative(name):
    _, report, spans = toy_run(name, trace=True)
    assert spans
    for span in spans:
        assert span.end >= span.start
        assert span.self_ns >= 0
        if span.parent is not None:
            parent = spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
            assert parent.request == span.request
    for metrics in SPEC["workloads"][name]["layer_metrics"].values():
        for metric in metrics:
            assert report["metrics"][metric]["value"] > 0, f"{metric} not measured on {name}"
    assert report["metrics"]["trace_overhead_frac"]["value"] > -1


@pytest.mark.parametrize("name", ["classify-batch", "scene-match"])
def test_corrupted_output_counts_as_failed(name, monkeypatch):
    """Shifted labels from the loaded model, or a dropped match row, fail the checks."""
    import workloads

    if name == "classify-batch":
        original_setup = workloads.ClassifyBatch.setup

        def setup(self):
            original_setup(self)
            classify = self.model.classify_patches

            def shifted(patches):
                labels, scores = classify(patches)
                return (labels + 1) % self.model.num_classes, scores

            self.model.classify_patches = shifted

        monkeypatch.setattr(workloads.ClassifyBatch, "setup", setup)
    else:
        detect = workloads.cli.detect_keypoints
        monkeypatch.setattr(workloads.cli, "detect_keypoints", lambda *a, **k: detect(*a, **k)[:-1])
    result, report, _ = toy_run(name, trace=False)
    assert result["failed"] > 0 and report["failed_frac"] > 0
    assert not result["correct"]
