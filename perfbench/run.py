"""Run one workload of the repository benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload wls-epochs --seed 1 --seconds 40 --trace 0

``--trace 0`` measures for ``--seconds`` and prints the end-to-end metrics;
``--trace 1`` runs a fixed number of traced ops, then as many untraced ones,
and prints the per-layer metrics with a coverage report per step.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when any
correctness check failed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from layertrace import LayerTracer  # noqa: E402
from workloads import SETUP_REPEATS, WORKLOADS, Workload  # noqa: E402

Metric = Tuple[float, str]

#: ``per_layer`` time metric -> traced layer; self seconds per op.
LAYER_SECONDS = {
    "views.s": "views", "partition.s": "partition",
    "formulate.self_s": "formulate", "decompose.s": "decompose",
    "solve.s": "solve", "merge.s": "merge", "repair.s": "repair",
    "fingerprint.s": "fingerprint", "manifest.s": "manifest",
    "store.get_s": "store.get", "store.put_s": "store.put",
    "generate.s": "generate", "engine.s": "engine", "encode.s": "encode",
    "decode.s": "decode",
}
#: ``per_layer`` work counts, per op, named as the tracer counts them.
LAYER_COUNTS = (
    "views.subviews", "partition.regions", "formulate.constraints",
    "decompose.components", "solve.components_solved", "solve.cache_hits",
    "repair.extra_tuples", "store.reads", "store.bytes_written",
    "generate.rows", "engine.batches", "encode.bytes",
)
COUNT_UNITS = {"store.bytes_written": "bytes", "encode.bytes": "bytes"}


def end_to_end(workload: Workload, setup_seconds) -> Dict[str, Metric]:
    metrics: Dict[str, Metric] = {
        "setup_s": (statistics.median(setup_seconds), "s"),
        "summarize_s_p50": (statistics.median(workload.samples["summarize"]),
                            "s"),
        "followup_s_p50": (statistics.median(workload.samples["followup"]),
                           "s"),
    }
    units = {"extra_tuples": "count", "summary_bytes": "bytes"}
    for name, value in workload.fidelity.items():
        metrics[name] = (value, units.get(name, "fraction"))
    return metrics


def per_layer(workload: Workload, tracer: LayerTracer, extract_seconds,
              untraced_walls) -> Dict[str, Metric]:
    ops = max(1, len(tracer.op_walls))
    counts = tracer.counts
    metrics: Dict[str, Metric] = {}
    for name, layer in LAYER_SECONDS.items():
        metrics[name] = (tracer.layer_seconds(layer) / ops, "s")
    for name in LAYER_COUNTS:
        metrics[name] = (counts.get(name, 0.0) / ops,
                         COUNT_UNITS.get(name, "count"))
    solved = counts.get("solve.components_solved", 0.0)
    metrics["solve.exact_fraction"] = (
        counts.get("solve.components_exact", 0.0) / solved if solved else 0.0,
        "fraction")
    reads = counts.get("store.reads", 0.0)
    metrics["store.hit_fraction"] = (
        counts.get("store.hits", 0.0) / reads if reads else 0.0, "fraction")
    socket = 0.0
    if workload.streams:
        streams = tracer.step_walls.get("followup", [])
        socket = (sum(streams) - tracer.covered_seconds("followup")) / ops
    metrics["socket.s"] = (socket, "s")
    metrics["extract.s"] = (statistics.median(extract_seconds), "s")
    steps = [s for s in workload.steps if tracer.step_walls.get(s)]
    wall = sum(sum(tracer.step_walls[s]) for s in steps)
    covered = sum(tracer.covered_seconds(s) for s in steps)
    metrics["trace.coverage"] = (covered / wall if wall else 0.0, "ratio")
    overhead = (statistics.median(tracer.op_walls)
                / statistics.median(untraced_walls)
                if tracer.op_walls and untraced_walls else 0.0)
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics


def print_trace_report(workload: Workload, tracer: LayerTracer,
                       untraced_walls) -> None:
    traced = tracer.op_walls
    if traced and untraced_walls:
        print(f"trace {workload.name} op: median wall traced"
              f" {statistics.median(traced):.4f} s (n={len(traced)}),"
              f" untraced {statistics.median(untraced_walls):.4f} s"
              f" (n={len(untraced_walls)}), overhead"
              f" {statistics.median(traced) / statistics.median(untraced_walls):.4f}")
    for step, meaning in workload.steps.items():
        report = tracer.step_report(step)
        if not report["wall"]:
            continue
        layers = ", ".join(f"{name} {seconds:.4f}"
                           for name, seconds in report["layers"])
        print(f"trace {workload.name} {step} ({meaning}):"
              f" wall {report['wall']:.4f} s over"
              f" {len(tracer.step_walls[step])} calls, coverage"
              f" {report['coverage']:.4f}")
        print(f"  layers by self time (s): {layers}")
        if report["coverage"] < 0.9:
            gap = report["wall"] - report["covered"]
            print(f"  uncovered {gap:.4f} s: {workload.gaps[step]}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    work_root = ROOT / "perfbench" / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    workload = WORKLOADS[args.workload](args.seed, workdir)
    setup_seconds, extract_seconds, untraced_walls = [], [], []
    tracer = LayerTracer()
    try:
        for _ in range(SETUP_REPEATS):
            workload.teardown()
            started = time.perf_counter()
            extract_seconds.append(workload.setup())
            setup_seconds.append(time.perf_counter() - started)
        if args.trace:
            # A fixed number of traced ops, then as many untraced ones for
            # the overhead reference: the traced ops are always the run's
            # first, so their work counts repeat exactly for a seed.
            with tracer.installed():
                workload.measure(args.seconds, tracer, workload.trace_ops)
            reference = LayerTracer()
            workload.measure(args.seconds, reference, workload.trace_ops)
            untraced_walls = reference.op_walls
        else:
            workload.measure(args.seconds)
        if not workload.failures:
            workload.check()
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)

    failed = min(len(workload.failures), workload.attempted)
    correct = not workload.failures
    print(f"{workload.name} seed={args.seed} seconds={args.seconds:g}"
          f" trace={args.trace} ops={workload.attempted} failed={failed}")
    if args.trace:
        print_trace_report(workload, tracer, untraced_walls)
        metrics = per_layer(workload, tracer, extract_seconds, untraced_walls)
    else:
        metrics = end_to_end(workload, setup_seconds) if correct else {}
        for step, meaning in workload.steps.items():
            print(f"  {step}: {meaning} (n={len(workload.samples[step])})")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for note in workload.notes:
        print(f"  {note}")
    print(json.dumps({
        "correct": correct,
        "attempted": workload.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
