#!/usr/bin/env python3
"""Benchmark of permitlab's exact LP, its evaluator and Monte-Carlo sampling.

    python3 perfbench/run.py --workload multi_chain --seed 1 --seconds 30 --trace 0

Runs one workload in this process (no pool, no threads) from the package
source under ``src/`` next to this directory. It sets up several times, runs
whole rounds of operations until ``--seconds`` of measured work have passed,
scales the set-up and round times by the machine-speed probe (probe.py),
checks every output against computations made apart from the package, and
prints one JSON object as its last line. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs each round once plain and once traced and reports
the per-layer metrics. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from probe import Probe
from tracing import COUNTS, SECONDS, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PROGRAM = ("suites", "lp", "mechanisms", "oracles", "myerson", "serialize", "benchmark", "ocrs")
SETUP_REPEATS = 7  # set-ups per run, spread over its measured rounds
PROBE_SHARE = 0.05  # probe time after each round, as a share of the round's
RESULTS = HERE / "results"  # one JSON file per run, with per-round detail


def import_program() -> dict:
    """Import the package afresh from SRC; the time this takes is set-up."""
    for name in [n for n in sys.modules if n == "permitlab" or n.startswith("permitlab.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"permitlab.{name}") for name in PROGRAM}
    origin = Path(modules["suites"].__file__).resolve()
    if SRC not in origin.parents:
        raise ImportError(f"permitlab imported from {origin}, not from {SRC}")
    return modules


def run_round(workload, ops, records, after_op=None) -> tuple:
    """Run every operation; returns (seconds, failed operations)."""
    failed = 0
    t0 = perf_counter()
    for op in ops:
        try:
            records.append(workload.run(op))
        except Exception as exc:  # one failed operation must not end the run
            failed += 1
            print(f"operation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        if after_op is not None:
            after_op(op)
    return perf_counter() - t0, failed


def round0(cls, seed: int) -> list:
    """Round 0's instances, found untimed before set-up."""
    return cls(import_program(), seed).payloads(0)


def end_to_end(cls, seed: int, seconds: float) -> tuple:
    first = round0(cls, seed)
    setup_times = []

    def set_up():
        t0 = perf_counter()
        workload = cls(import_program(), seed)
        workload.setup(first)
        setup_times.append(perf_counter() - t0)
        return workload

    def set_up_again():
        """A later set-up. It puts the rounds' package back, because the
        package imports some of its modules lazily, and frees the new copy at
        once, so that when the collector runs does not move peak_rss_mb."""
        set_up()
        sys.modules.update(package)
        gc.collect()

    # The rounds run on the first set-up's package. The later set-ups are
    # spread over the run, so that one slow spell of the machine does not
    # decide their median.
    workload = set_up()
    package = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "permitlab"}
    records, round_times = [], []
    attempted = failed = 0
    probe = Probe()
    while sum(round_times) < seconds:
        ops = workload.ops(len(round_times))
        dt, bad = run_round(workload, ops, records)
        round_times.append(dt)
        attempted += len(ops)
        failed += bad
        probe.run(PROBE_SHARE * dt)
        due = len(setup_times) * seconds / SETUP_REPEATS
        if len(setup_times) < SETUP_REPEATS and sum(round_times) >= due:
            set_up_again()
    while len(setup_times) < SETUP_REPEATS:
        set_up_again()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scale = probe.scale()  # seconds here -> seconds on the probe's reference host
    metrics = {
        "setup_s": (statistics.median(setup_times) * scale, "s"),
        "wall_s": (statistics.fmean(round_times) * scale, "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    detail = {
        "round_s": round_times,  # unscaled, as are the set-up and probe times
        "setup_s": setup_times,
        "probe_s": probe.times,
        "scale": scale,
        "operations": len(ops),
    }
    return workload, records, attempted, failed, metrics, detail


def traced(cls, seed: int, seconds: float) -> tuple:
    first = round0(cls, seed)
    modules = import_program()
    tracer = Tracer(modules)
    tracer.install()
    workload = cls(modules, seed)
    workload.setup(first)
    tracer.uninstall()
    at_setup = tracer.snapshot()
    records, overheads, make_up = [], [], []
    attempted = failed = measured = 0
    ops = workload.ops(0)  # one content throughout, so the counts repeat exactly
    while measured < seconds:
        times = {}
        # alternate which copy runs first, so drift in the machine cancels
        for mode in (("plain", "traced") if len(overheads) % 2 == 0 else ("traced", "plain")):
            after_op = None
            if mode == "traced":
                tracer.install()
                if not make_up:
                    after_op = per_operation(tracer, make_up)
            times[mode], bad = run_round(workload, ops, records, after_op)
            tracer.uninstall()
            attempted += len(ops)
            failed += bad
        overheads.append(times["traced"] - times["plain"])
        measured += times["plain"] + times["traced"]
    rounds = len(overheads)
    total = tracer.snapshot()
    metrics = {}
    for name in SECONDS + COUNTS:
        if name == "trace.overhead_s":
            value = statistics.median(overheads)
        else:  # one set-up plus one round
            value = at_setup[name] + (total[name] - at_setup[name]) / rounds
        metrics[name] = (value, "s" if name in SECONDS else "count")
    detail = {
        "overhead_s": overheads,
        "operations": len(ops),
        "make_up": [dict(workload.describe(op), **row) for op, row in make_up],
    }
    return workload, records, attempted, failed, metrics, detail


# per-operation figures of the first traced round, written to the results file
MAKE_UP = ("lp.rows", "lp.cols", "simplex.pivots", "simplex.solve_s", "mechanisms.evaluate_calls")


def per_operation(tracer, rows: list):
    """A run_round hook that appends (op, figures) for each operation."""
    last = [tracer.snapshot(), perf_counter()]

    def after_op(op):
        now, t = tracer.snapshot(), perf_counter()
        row = {"seconds": t - last[1]}
        row.update({name: now[name] - last[0][name] for name in MAKE_UP})
        rows.append((op, row))
        last[:] = [now, t]

    return after_op


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    measure = traced if args.trace else end_to_end
    workload, records, attempted, failed, metrics, detail = measure(
        WORKLOADS[args.workload], args.seed, args.seconds
    )
    t0 = perf_counter()
    problems = workload.check(records)
    detail["check_s"] = perf_counter() - t0
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(dict(result, detail=detail, problems=problems), indent=1))
    print(f"{detail['operations']} operations per round; details in {out.relative_to(HERE.parent)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
