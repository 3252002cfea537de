"""Run one fernkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload desk-compare --seed 1 --seconds 12 --trace 0

Workloads are desk-compare, classify-batch and scene-match (see spec.json).
Each is a closed loop with one caller in this process, using the library
from ``src/`` of the checkout this file sits in. The run prints every
metric with its unit, then as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones of BENCHMARK.json, from an untraced
run timed after its first operation; with ``--trace 1`` they are its
per-layer ones, from a run that alternates operations traced by spans.py
with untraced ones, which give the tracing overhead. A report with
sample counts, quartiles, output digests and the environment, and in traced
runs every span, is written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(SRC))


def load_json(path: Path) -> dict:
    with open(path) as f:
        return json.load(f)


class Loop:
    """Outcome of a stretch of operations: their times and failures."""

    def __init__(self):
        self.times_ns: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, workload, i: int, tracer=None, timed: bool = True) -> int | None:
        """Run and check operation ``i``; returns its wall time, None if it raised.

        With a tracer, only the operation itself runs traced, not its check.
        """
        self.attempted += 1
        elapsed = None
        start = time.perf_counter_ns()
        try:
            if tracer is None:
                out = workload.run(i)
            else:
                tracer.request = f"{workload.item}:{i}"
                with tracer.installed():
                    out = workload.run(i)
        except Exception:  # one broken operation must not end the run
            traceback.print_exc()
            problems = [f"op {i} raised"]
        else:
            elapsed = time.perf_counter_ns() - start
            if timed:
                self.times_ns.append(elapsed)
            try:
                problems = workload.check(i, out)
            except Exception as exc:
                problems = [f"check of op {i} raised {exc!r}"]
        if problems:
            self.failed += 1
            self.problems += problems
        return elapsed

    def run_for(self, workload, seconds: float) -> None:
        """Closed loop from operation 1: back to back until ``seconds`` pass, at least one."""
        start = time.perf_counter()
        i = 1
        while i == 1 or time.perf_counter() - start < seconds:
            self.op(workload, i)
            i += 1

    def run_traced(self, workload, seconds: float, tracer) -> tuple[list, list]:
        """From operation 1, traced and untraced in turn until ``seconds`` pass,
        at least one of each; returns the (untraced, traced) times."""
        start = time.perf_counter()
        runs = ([], [])
        i = 1
        while i < 3 or time.perf_counter() - start < seconds:
            traced = i % 2 == 1
            ns = self.op(workload, i, tracer if traced else None)
            if ns is not None:
                runs[traced].append(ns)
            i += 1
        return runs


def set_up(workload, tracer=None) -> float:
    """Set the workload up once; returns the seconds it took."""
    start = time.perf_counter()
    if tracer is None:
        workload.setup()
    else:
        with tracer.installed():
            workload.setup()
    return time.perf_counter() - start


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes: dict | None = None, setup_repeats: int | None = None):
    """Run one workload; returns (result line dict, report dict, spans or None)."""
    import layers
    from spans import Tracer
    from workloads import WORKLOADS

    spec = load_json(HERE / "spec.json")
    wspec = spec["workloads"][name]
    sizes = sizes or wspec["sizes"]
    bench = load_json(ROOT / "BENCHMARK.json")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    loop = Loop()
    try:
        cls = WORKLOADS[name]
        inputs = cls.make_inputs(sizes, seed, workdir)
        if trace:
            tracer = Tracer()
            workload = cls(sizes, seed, workdir, inputs)
            setups = [set_up(workload, tracer)]
        else:
            setups = []
            for _ in range(setup_repeats or spec["setup_repeats"]):
                workload = None  # let the previous set-up's arrays go first
                workload = cls(sizes, seed, workdir, inputs)
                setups.append(set_up(workload))
        # The first operation in a process runs slower (desk-compare by about a
        # quarter, nearly all in warp_image), and faster code fits more
        # operations into a run, so timing it would mix two states unevenly
        # between versions. It is checked and reported but not timed.
        first_ns = loop.op(workload, 0, timed=False)
        if trace:
            untraced, traced = loop.run_traced(workload, seconds, tracer)
        else:
            loop.run_for(workload, seconds)
        for i in workload.unseen():
            loop.op(workload, i, timed=False)
        results = workload.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "item": workload.item,
        "items_per_op": workload.items_per_op,
        "setup_s": layers.summary(setups),
        "first_op_ms": first_ns / 1e6 if first_ns is not None else None,
        "failed_frac": loop.failed / loop.attempted,
        "problems": loop.problems[:20],
        "results": results,
        "sizes": sizes,
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "threads": spec["threads"],
        },
    }
    if trace:
        spans = tracer.finish()
        run_ns = sum(traced)
        values, stats = layers.per_layer(spans, f"{workload.item}:1", run_ns)
        values["trace_overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
        report["per_layer"] = stats
        report["span_shares"] = layers.span_shares(spans, run_ns)
        report["op_ms"] = {"untraced": layers.summary([t / 1e6 for t in untraced]),
                           "traced": layers.summary([t / 1e6 for t in traced])}
        section = "per_layer"
    else:
        spans = None
        op_ms = [t / 1e6 for t in loop.times_ns]
        tail_p = wspec["tail_percentile"]
        values = {
            "setup_s": statistics.median(setups),
            "items_per_s": workload.items_per_op * 1e3 / statistics.median(op_ms),
            "op_ms_p50": statistics.median(op_ms),
            "op_ms_tail": float(np.percentile(op_ms, tail_p)),
            "passed_frac": 1.0 - report["failed_frac"],
            "model_bytes": results["model_bytes"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        report["op_ms"] = layers.summary(op_ms)
        report["op_ms_samples"] = op_ms
        report["op_ms_tail"] = {
            "percentile": tail_p,
            "samples_beyond": sum(1 for t in op_ms if t > values["op_ms_tail"]),
        }
        report["issue_names"] = {
            wspec["throughput"]: values["items_per_s"],
            wspec["quality"]: results["recognition_rate"],
            "failed_frac": report["failed_frac"],
        }
        section = "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[section]}
    metrics = {m: {"value": values[m], "unit": units[m]} for m in units}
    report["metrics"] = metrics
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    return result, report, spans


def write_report(report: dict, spans) -> None:
    """Keep the full report, and in traced runs every span, in .perfbench_out/."""
    stem = f"{report['workload']}-seed{report['seed']}-trace{int(report['trace'])}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if spans is not None:
        with open(OUT / f"{stem}-spans.jsonl", "w") as f:
            for i, s in enumerate(spans):
                f.write(json.dumps({
                    "id": i, "name": s.name, "start_ns": s.start, "end_ns": s.end,
                    "parent": s.parent, "request": s.request, "self_ns": s.self_ns,
                    "counts": s.counts,
                }) + "\n")


def print_report(report: dict) -> None:
    print(f"# {report['workload']} seed={report['seed']} trace={int(report['trace'])} "
          f"items/op={report['items_per_op']} env={json.dumps(report['environment'])}")
    if report["first_op_ms"] is not None:
        print(f"# first operation (checked, not timed): {report['first_op_ms']:.6g} ms")
    stats = report.get("per_layer") or dict(
        setup_s=report["setup_s"], op_ms_p50=report["op_ms"], op_ms_tail=report["op_ms"]
    )
    for name, m in report["metrics"].items():
        line = f"{name:42s} {m['value']:>16.6g} {m['unit']}"
        st = stats.get(name)
        if st:
            line += f"  (n={st['n']} q1={st['q1']:.6g} median={st['median']:.6g} q3={st['q3']:.6g})"
        print(line)
    if "op_ms_tail" in report["metrics"]:
        tail = report["op_ms_tail"]
        print(f"# op_ms_tail is p{tail['percentile']}, {tail['samples_beyond']} samples beyond it")
    for name, value in report.get("issue_names", {}).items():
        print(f"# {name} = {value:.6g}")
    if report["trace"]:
        ms = report["op_ms"]
        print(f"# op ms untraced median {ms['untraced']['median']:.6g} (n={ms['untraced']['n']}), "
              f"traced median {ms['traced']['median']:.6g} (n={ms['traced']['n']})")
    for name, share in list(report.get("span_shares", {}).items())[:12]:
        print(f"# share of traced run time: {name:36s} {share:.3f}")
    print(f"# failed_frac = {report['failed_frac']:.6g}  sha256 = {report['results']['sha256']}")
    for problem in report["problems"]:
        print(f"# problem: {problem}")


def main(argv=None) -> int:
    spec = load_json(HERE / "spec.json")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, default=spec["seeds"]["default"])
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import fernkit
    except ImportError as exc:
        print(f"perfbench: cannot import fernkit from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(fernkit.__file__).resolve().parent.parent != SRC.resolve():
        print(f"perfbench: fernkit came from {fernkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result, report, spans = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    write_report(report, spans)
    print_report(report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
