#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, written to one BENCH_<pr>.json.

    python3 scripts/bench_pairs.py --parent ../base --change . \\
        --workload mc_sampling --seeds 1 2 3 4 5 6 7 8 9 10 --pr 9

For each seed, runs ``perfbench/run.py --workload W --seed S --seconds 30
--trace 0`` once in each checkout, one after the other; which side runs first
alternates from pair to pair, so drift in the machine's speed falls on both
sides alike. Every run's end-to-end metrics and its ``attempted`` count are
kept, and per metric the file gets each side's median and quartiles, the
number of pairs in which the change was better, and the median change against
the bound in the change's BENCHMARK.json. The summary's ``attempted`` entry
gives each side's median and quartiles of operations run, since a 30 s run
keeps every operation's record and its ``peak_rss_mb`` rises with their count.
An existing output file keeps its other workloads; this workload's entry is
replaced.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 30
SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One perfbench run in the checkout; its last output line is the result."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "correct": result["correct"],
    }


def commit_of(checkout: Path):
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list, end_to_end: list) -> dict:
    out = {}
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        wins = sum((c < b) if lower else (c > b) for b, c in zip(parent, change))
        ps, cs = spread(parent), spread(change)
        rel = (cs["median"] - ps["median"]) / ps["median"]
        out[name] = {
            "parent": ps,
            "change": cs,
            "change_better_pairs": wins,
            "pairs": len(pairs),
            "median_change": rel,
            "median_gap_exceeds_parent_iqr": abs(cs["median"] - ps["median"]) > ps["iqr"],
            "bound": metric["bound"],
            "within_bound": (rel if lower else -rel) <= metric["bound"],
        }
    out["attempted"] = {side: spread([p[side]["attempted"] for p in pairs]) for side in SIDES}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True, help="one pair per seed")
    ap.add_argument("--pr", required=True, help="writes BENCH_<pr>.json at the repository root")
    args = ap.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    pairs = []
    for k, seed in enumerate(args.seeds):
        first = SIDES if k % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": first[0]}
        for side in first:
            pair[side] = run_once(sides[side], args.workload, seed)
            m = pair[side]["metrics"]
            print(
                f"{args.workload} seed {seed} {side}: wall_s {m['wall_s']:.4f} "
                f"setup_s {m['setup_s']:.4f} peak_rss_mb {m['peak_rss_mb']:.2f} "
                f"attempted {pair[side]['attempted']}",
                flush=True,
            )
        pairs.append(pair)

    out = ROOT / f"BENCH_{args.pr}.json"
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.update(
        python=platform.python_version(),
        machine=platform.machine(),
        cpus=os.cpu_count(),
        seconds=SECONDS,
        commits={side: commit_of(path) for side, path in sides.items()},
    )
    doc.setdefault("workloads", {})[args.workload] = {
        "pairs": pairs,
        "summary": summarize(pairs, spec["end_to_end"]),
    }
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
