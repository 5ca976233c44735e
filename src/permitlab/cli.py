"""Experiment harness: generate corpora, run verification suites, verify a
single instance in depth, and evaluate saved mechanisms.

Exit status is nonzero exactly when some check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .generator import random_instance
from .lp import build_profit_lp, dump_lp_text, solve_lp
from .mechanisms import evaluate, monte_carlo_eval
from .rational import rat_str
from .serialize import load_instance, load_spec, save_instance
from .suites import run_suite

ALL_SUITES = (
    "benchmark",
    "single_additive",
    "single_constrained",
    "properties",
    "multi",
    "multi_2x3",
    "ocrs",
    "example",
    "single_item",
    "monte_carlo",
)


def cmd_generate(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    for k in range(args.count):
        inst = random_instance(
            args.seed * 100_003 + k,
            n_max=args.n_max,
            m_max=args.m_max,
            max_support=args.supports,
            max_atoms=args.atoms,
            families=args.families,
            name=f"gen-{k:04d}",
        )
        save_instance(inst, os.path.join(args.out, f"gen-{k:04d}.json"))
    print(f"wrote {args.count} instances to {args.out}")
    return 0


def cmd_run(args) -> int:
    suites = ALL_SUITES if args.suite == "all" else (args.suite,)
    ok = True
    for suite in suites:
        t0 = time.perf_counter()
        summary = run_suite(
            suite,
            seed=args.seed,
            count=args.count,
            out_dir=args.out,
            workers=args.workers,
        )
        status = "pass" if summary["all_passed"] else "FAIL"
        print(
            f"[{status}] {suite}: {summary['passed_instances']}/{summary['instances']} "
            f"instances clean ({time.perf_counter() - t0:.1f} s)"
        )
        for f in summary["failures"][:10]:
            print(f"    {f['instance']}: {f['checks']}")
        ok = ok and summary["all_passed"]
    return 0 if ok else 1


def cmd_verify(args) -> int:
    from .benchmark import benchmark_terms, ex_ante
    from .oracles import direct_benchmark_recompute

    inst = load_instance(args.instance)
    model = build_profit_lp(inst)
    if args.dump_lp:
        dump_lp_text(model, args.dump_lp)
        print(f"wrote LP text to {args.dump_lp}")
    sol = solve_lp(model)
    print(f"optimal profit: {rat_str(sol.objective)}")
    exa = ex_ante(inst, sol.mechanism)
    rep = benchmark_terms(inst, sol.mechanism, exa)
    print(
        f"benchmark: most={rat_str(rep.most_surplus)} prophet={rat_str(rep.prophet)} "
        f"less={rat_str(rep.less_surplus)} tail={rat_str(rep.tail)} core={rat_str(rep.core)}"
    )
    ok = sol.objective <= rep.total
    print(f"profit <= benchmark: {'yes' if ok else 'NO'}")
    rec = direct_benchmark_recompute(inst, sol.mechanism)
    match = (
        rec["most_surplus"] == rep.most_surplus
        and rec["prophet"] == rep.prophet
        and rec["less_surplus"] == rep.less_surplus
    )
    print(f"independent recompute matches: {'yes' if match else 'NO'}")
    return 0 if ok and match else 1


def cmd_eval(args) -> int:
    inst = load_instance(args.instance)
    spec = load_spec(inst, args.spec)
    if args.mc:
        res = monte_carlo_eval(inst, spec, samples=args.mc, seed=args.seed)
        print(
            f"estimated profit: {res.estimate:.6f} +- {res.half_width:.6f} "
            f"({res.samples} samples, 99% confidence)"
        )
        blob = {"estimate": res.estimate, "half_width": res.half_width, "samples": res.samples}
    else:
        res = evaluate(inst, spec)
        print(f"exact profit: {rat_str(res.profit)}")
        print(
            " revenue per buyer:",
            " ".join(rat_str(v) for v in res.revenue),
        )
        print(" cost per buyer:", " ".join(rat_str(v) for v in res.cost))
        blob = {
            "profit": rat_str(res.profit),
            "revenue": [rat_str(v) for v in res.revenue],
            "cost": [rat_str(v) for v in res.cost],
        }
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(blob, fh, indent=1)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="permitlab",
        description="profit-maximizing mechanisms with seller costs, checked exactly",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("generate", help="write a random instance corpus")
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--count", type=int, default=20)
    g.add_argument("--n-max", type=int, default=2)
    g.add_argument("--m-max", type=int, default=2)
    g.add_argument("--supports", type=int, default=3)
    g.add_argument("--atoms", type=int, default=2)
    g.add_argument(
        "--families",
        choices=("additive", "matroid", "downward", "mixed"),
        default="mixed",
    )
    g.set_defaults(fn=cmd_generate)

    r = sub.add_parser("run", help="run a verification suite")
    r.add_argument("--suite", choices=ALL_SUITES + ("all",), required=True)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--count", type=int, default=None, help="override corpus size")
    r.add_argument("--out", default=None, help="directory for CSV/JSON reports")
    r.add_argument("--workers", type=int, default=None)
    r.set_defaults(fn=cmd_run)

    v = sub.add_parser("verify", help="solve one instance and check its benchmark")
    v.add_argument("--instance", required=True)
    v.add_argument("--dump-lp", default=None, help="write the LP in text form")
    v.set_defaults(fn=cmd_verify)

    e = sub.add_parser("eval", help="evaluate a saved mechanism on an instance")
    e.add_argument("--instance", required=True)
    e.add_argument("--spec", required=True)
    e.add_argument("--mc", type=int, default=0, help="Monte-Carlo sample count")
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--json", default=None, help="also write results as JSON")
    e.set_defaults(fn=cmd_eval)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
