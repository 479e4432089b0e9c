#!/usr/bin/env python3
"""Benchmark of the zerosum certificate engine.

    python3 perfbench/run.py --workload small-extract --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

One run: set up the workload's inputs from --seed (timed, as `setup_s`),
make a warm-up call, then run whole rounds of the workload's operations as a
single closed-loop client until --seconds have been measured (at least one
round; no round is started that would end well past the limit).  The outputs
are then checked by the independent checker.  The last line of standard
output is one JSON object with keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.

--trace 1 is a separate run: it sets up under the layer hooks, measures
untraced rounds for half the time and traced rounds for the other half, and
reports the layer figures with the tracing overhead between the two.

--workload all runs every workload, each in its own fresh process, and
prints every metric by name with its unit.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# name -> (unit, better); the order is the order of BENCHMARK.json's end_to_end list.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "prove_p50_ms": ("ms", "lower"),
    "prove_p99_ms": ("ms", "lower"),
    "verify_p50_ms": ("ms", "lower"),
    "out_bytes": ("bytes", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def import_package():
    """Import zerosum from this checkout's src, and nowhere else."""
    if not (SRC / "zerosum" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'zerosum'}")
    sys.path.insert(0, str(SRC))
    import zerosum

    if Path(zerosum.__file__).resolve().parent != (SRC / "zerosum").resolve():
        sys.exit(f"error: zerosum was imported from {zerosum.__file__}, not from {SRC}")
    return zerosum


def p50(samples: list[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def p99(samples: list[float]) -> float:
    """Nearest-rank 99th percentile."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


class Measurement:
    def __init__(self):
        self.tallies = []
        self.wall = 0.0
        self.first_outputs = None
        self.deterministic = True

    def count(self, only_failed: bool = False) -> int:
        return sum(1 for t in self.tallies for op in t.ops if not (only_failed and op[1]))

    def by_kind(self) -> dict:
        kinds = {}
        for t in self.tallies:
            for kind, ok, *_ in t.ops:
                entry = kinds.setdefault(kind, {"attempted": 0, "failed": 0})
                entry["attempted"] += 1
                entry["failed"] += not ok
        return kinds

    def batches(self, per_round: int):
        """Each round cut into `per_round` runs of consecutive operations."""
        for t in self.tallies:
            size = math.ceil(len(t.ops) / per_round)
            for b in range(per_round):
                yield t.ops[b * size:(b + 1) * size]

    def figures(self, per_round: int) -> dict[str, float]:
        """Throughput and latency percentiles of each batch, then the median over
        batches, so that a burst of load from elsewhere moves few batches."""
        rate, prove50, prove99, verify50 = [], [], [], []
        for batch in self.batches(per_round):
            seconds = sum(op[2] for op in batch)
            rate.append(sum(op[1] for op in batch) / seconds)
            prove = [op[3] for op in batch if op[3] is not None]
            verify = [op[4] for op in batch if op[4] is not None]
            if prove:
                prove50.append(p50(prove))
                prove99.append(p99(prove))
            if verify:
                verify50.append(p50(verify))
        return {"ops_per_s": p50(rate), "prove_p50_ms": p50(prove50), "prove_p99_ms": p50(prove99),
                "verify_p50_ms": p50(verify50)}


def measure(wl, state, seconds: float, into: Measurement) -> Measurement:
    """Whole rounds until `seconds` are measured; a round that would end past the
    limit, judged by the mean round so far, is not started."""
    from workloads import Tally

    rounds = 0
    wall = 0.0
    while True:
        t = Tally()
        t0 = time.perf_counter()
        wl.round(state, t)
        wall += time.perf_counter() - t0
        rounds += 1
        if into.first_outputs is None:
            into.first_outputs = t.outputs
        elif t.outputs != into.first_outputs:
            into.deterministic = False
        t.outputs = None
        into.tallies.append(t)
        if wall + wall / rounds > seconds:
            break
    into.wall += wall
    return into


def machine() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


def run_one(args) -> int:
    import layers
    import workloads
    from tracer import Tracer

    wl = workloads.WORKLOADS[args.workload](args.seed)
    trace = args.trace == 1

    if trace:
        setup_tracer = Tracer()
        layers.install(setup_tracer)
        try:
            state = wl.setup()
        finally:
            setup_tracer.uninstall()
        setup_times = []
    else:
        setup_times = []
        for _ in range(wl.setup_repeats):
            state = None
            t0 = time.perf_counter()
            state = wl.setup()
            setup_times.append(time.perf_counter() - t0)

    wl.warmup(state)
    base = Measurement()
    if trace:
        measure(wl, state, args.seconds / 2, base)
        round_tracer, keeper = Tracer(), layers.MatrixKeeper()
        layers.install(round_tracer, keeper)
        traced = Measurement()
        traced.first_outputs = base.first_outputs
        try:
            measure(wl, state, args.seconds / 2, traced)
        finally:
            round_tracer.uninstall()
        run = Measurement()
        run.tallies = base.tallies + traced.tallies
        run.first_outputs = base.first_outputs
        run.deterministic = base.deterministic and traced.deterministic
    else:
        run = measure(wl, state, args.seconds, base)

    t0 = time.perf_counter()
    reason, out_bytes = wl.check(state, run.first_outputs)
    check_s = time.perf_counter() - t0
    if reason is None and not run.deterministic:
        reason = "a later round's outputs differ from the first round's"
    correct = reason is None

    if trace:
        values = layers.layer_values(setup_tracer, round_tracer, len(traced.tallies))
        values["witness.find_peak_mb"] = keeper.find_peak_mb()
        base_round = base.wall / len(base.tallies)
        traced_round = traced.wall / len(traced.tallies)
        values["trace.overhead_pct"] = (traced_round - base_round) / base_round * 100
        base_figures = base.figures(wl.batches_per_round)
        traced_figures = traced.figures(wl.batches_per_round)
        for name in ("prove_p50_ms", "verify_p50_ms"):
            values[f"trace.{name[:-3]}_delta_ms"] = traced_figures[name] - base_figures[name]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in layers.UNITS.items()}
    else:
        values = run.figures(wl.batches_per_round)
        values["setup_s"] = statistics.median(setup_times)
        values["out_bytes"] = float(out_bytes)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in END_TO_END.items()}

    print("machine: " + json.dumps(machine(), sort_keys=True))
    print("operations: " + json.dumps({"workload": args.workload, "seed": args.seed,
                                        "rounds": len(run.tallies), "by_kind": run.by_kind(),
                                        "setup_s": setup_times, "measured_s": base.wall,
                                        "check_s": check_s},
                                       sort_keys=True))
    if not correct:
        print(f"check failed: {reason}")
    print(json.dumps({"correct": correct, "attempted": run.count(),
                      "failed": run.count(only_failed=True), "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, then one table of every metric."""
    import workloads

    rows, status = [], 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        for line in lines[:-1]:
            print(f"{name}  {line}")
        result = json.loads(lines[-1])
        status |= not result["correct"]
        rows.append((name, "correct", result["correct"], ""))
        rows.append((name, "attempted", result["attempted"], "count"))
        rows.append((name, "failed", result["failed"], "count"))
        rows.extend((name, metric, m["value"], m["unit"]) for metric, m in result["metrics"].items())
    for name, metric, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:14s} {metric:28s} {shown:>14s} {unit}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="large-extract, small-extract, class-sweep, char3-toolkit or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    import_package()
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
