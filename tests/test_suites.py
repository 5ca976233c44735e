import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from permitlab.benchmark import core_deltas, core_tail, ex_ante
from permitlab.lp import solve_profit_lp
from permitlab.rational import Q, ZERO
from permitlab.suites import (
    CSV_COLUMNS,
    build_corpus,
    check_benchmark,
    check_multi,
    run_suite,
)
from permitlab.serialize import instance_from_dict, instance_to_dict, load_instance

DATA = Path(__file__).parent / "data"


def test_corpus_is_deterministic():
    a = build_corpus("benchmark", seed=4, count=6)
    b = build_corpus("benchmark", seed=4, count=6)
    assert a == b
    c = build_corpus("benchmark", seed=5, count=6)
    assert a != c


def test_multi_recipe_shapes():
    for _, payload, _ in build_corpus("multi", seed=1, count=5):
        inst = instance_from_dict(payload)
        assert inst.n == 2 and inst.m == 2
        assert all(f.is_matroid for f in inst.families)
    for _, payload, _ in build_corpus("multi_2x3", seed=1, count=5):
        inst = instance_from_dict(payload)
        assert inst.n == 2 and inst.m == 3 and len(inst.costs) <= 2
        assert all(len(d) <= 2 for row in inst.dists for d in row)
        assert all(f.is_matroid for f in inst.families)


def test_empty_suite():
    summary = run_suite("single_item", seed=0, count=0, workers=1)
    assert summary["all_passed"] and summary["instances"] == 0


def test_reports_written(tmp_path):
    out = tmp_path / "r"
    summary = run_suite("benchmark", seed=6, count=4, workers=1, out_dir=str(out))
    assert summary["all_passed"]
    rows = (out / "benchmark.csv").read_text().splitlines()
    assert rows[0] == ",".join(CSV_COLUMNS)
    assert len(rows) == 5
    blob = json.loads((out / "benchmark.json").read_text())
    assert blob["suite"] == "benchmark" and blob["all_passed"]
    assert sum(blob["lp_paths"].values()) == 4  # one profit LP per instance


def test_reports_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run_suite("single_item", seed=9, count=5, workers=1, out_dir=str(out))
    assert (a / "single_item.csv").read_bytes() == (b / "single_item.csv").read_bytes()


def test_check_functions_run_standalone():
    tasks = build_corpus("benchmark", seed=12, count=1)
    inst = instance_from_dict(tasks[0][1])
    rep = check_benchmark(inst)
    assert not rep.failed
    tasks = build_corpus("multi", seed=12, count=1)
    inst = instance_from_dict(tasks[0][1])
    rep = check_multi(inst)
    assert not rep.failed
    assert rep.values["opt_profit"] >= rep.values["spb"]


def test_failure_replay(tmp_path, monkeypatch):
    # an instance that trips the LP size guard aborts the run and is saved;
    # the saved file reloads to the same instance and replays the error
    import pytest

    from permitlab import lp, suites

    def tight_guard(instance):
        return lp.solve_profit_lp(instance, guard=1)

    monkeypatch.setattr(suites, "solve_profit_lp", tight_guard)
    out = tmp_path / "r"
    with pytest.raises(RuntimeError, match="exceeds guard 1"):
        run_suite("single_item", seed=9, count=2, workers=1, out_dir=str(out))
    saved = sorted(out.glob("failing-*.json"))
    assert [p.name for p in saved] == ["failing-single_item-0000.json"]
    payload = json.loads(saved[0].read_text())
    assert payload == build_corpus("single_item", seed=9, count=1)[0][1]

    replay = suites._worker(("single_item", payload, {}))
    assert replay["instance_id"] == "single_item-0000"
    assert "exceeds guard 1" in replay["error"]
    monkeypatch.undo()  # at the default guard the saved instance checks clean
    replay = suites._worker(("single_item", payload, {}))
    assert "error" not in replay and not replay["failed"]


@pytest.mark.parametrize(
    "seed, k, tail, tau_sum",
    [(7, 7, Q(1, 18), ZERO), (1, 44, ZERO, Q(3, 2))],
)
def test_tail_and_tau_chains_on_their_non_vacuous_instances(seed, k, tail, tau_sum):
    # build_corpus("multi", seed)'s instance k: across the multi corpus at seeds
    # 20260808, 1, 2, 3 and 7, the one instance with a positive core_tail tail
    # and the one with a positive tau sum
    inst = load_instance(str(DATA / f"multi-seed{seed}-{k:04d}.json"))
    assert instance_to_dict(inst) == build_corpus("multi", seed)[k][1]
    rep = check_multi(inst)
    assert rep.failed == []
    chain = {"tail_permit_event_probability", "tail_revenue_bound", "tail_within_half_mass",
             "tail_two_rspp", "tau_sum_eight_rspp"}
    assert chain <= set(rep.passed)
    exa = ex_ante(inst, solve_profit_lp(inst).mechanism)
    ct = core_tail(inst, exa.beta)
    assert (ct.tail, sum(ct.tau, ZERO)) == (tail, tau_sum)
    assert ct.tail > 0 or sum(ct.tau, ZERO) > 0
    # the SPB chain stays vacuous here: no buyer has a positive bundle price
    assert core_deltas(inst, exa.beta, ct) == (0, 0)


def test_mc_reproducible_fails_when_reruns_differ(canonical, monkeypatch):
    from permitlab import suites

    real = suites.monte_carlo_eval
    calls = []

    def drifting(instance, spec, samples, seed):
        calls.append(seed)  # each call draws from a different stream
        return real(instance, spec, min(samples, 2_000), seed + len(calls))

    monkeypatch.setattr(suites, "monte_carlo_eval", drifting)
    rep = suites.check_monte_carlo(canonical, seed=3)
    assert "mc_reproducible" in [name for name, _ in rep.failed]


def test_benchmark_trace_layers_resolve():
    # the benchmark's tracer wraps these names in place; a deleted or renamed
    # one would break a traced run (perfbench/run.py --trace 1) only when run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    sites = [site for _, layer_sites, _ in tracing.LAYERS for site in layer_sites]
    assert sites
    for mod_name, attr in sites:
        mod = importlib.import_module(f"permitlab.{mod_name}")
        assert callable(getattr(mod, attr, None)), f"permitlab.{mod_name}.{attr}"


def test_check_multi_failure_details(monkeypatch):
    # force the order sweeps, the tail permit events, the bundle acceptance
    # and the core concentration to fail, and read what each failure names;
    # the swapped-order specs must keep every field but the order
    from dataclasses import fields, replace

    from permitlab import suites

    inst = instance_from_dict(build_corpus("multi", seed=12, count=1)[0][1])
    real = suites.evaluate
    seen = []

    def starved(instance, spec):
        seen.append(spec)
        res = real(instance, spec)
        if spec.kind == "RSPP":
            res.profit, res.permit_buy_prob = Q(-1), {}
        if spec.kind == "SPB":
            res.bundle_pay_prob = {}
        return res

    def refuted(instance, beta, ct, deltas):
        assert deltas == (Q(1), Q(1))  # the deltas of benchmark_terms, passed through
        return [dict(row, holds=False) for row in real_conc(instance, beta, ct, deltas)]

    def priced(instance, mechanism, exa):
        return replace(real_terms(instance, mechanism, exa), delta=(Q(1), Q(1)))

    real_conc, real_terms = suites.core_concentration_check, suites.benchmark_terms
    monkeypatch.setattr(suites, "evaluate", starved)
    monkeypatch.setattr(suites, "benchmark_terms", priced)
    monkeypatch.setattr(suites, "core_concentration_check", refuted)
    failed = dict(suites.check_multi(inst).failed)

    assert failed["order_sweep_tail_(1, 0)"] == "tail 0 > 2*-1"
    assert failed["order_sweep_tau_(1, 0)"] == "0 > 8*-1"
    unpaid = "buyer 0 pays with probability 0 < 1/2; buyer 1 pays with probability 0 < 1/2"
    assert failed["order_sweep_spb_(1, 0)"] == failed["spb_half_acceptance"] == unpaid
    events = failed["tail_permit_event_probability"].split("; ")
    assert events and all(e.startswith("pair (") and " bought 0 < needed " in e for e in events)
    conc = failed["core_concentration"].split("; ")
    assert [c.split(":")[0] for c in conc] == ["buyer 0", "buyer 1"]
    assert all(" > bound " in c for c in conc)

    swapped = [s for s in seen if s.order == (1, 0)]
    assert [s.kind for s in swapped] == ["RSPP", "RSPP", "SPB"]
    for spec in swapped:
        (original,) = [s for s in seen if s.note == spec.note and s.order == (0, 1)]
        for f in fields(spec):
            if f.name != "order":
                assert getattr(spec, f.name) == getattr(original, f.name), f.name


def test_check_benchmark_failure_details(monkeypatch):
    # force bic_ir, the dual-flow bound, the independent recompute and the
    # core-tail cover to fail, and read what each failure names
    from dataclasses import replace

    from permitlab import suites

    inst = instance_from_dict(build_corpus("benchmark", seed=2, count=1)[0][1])
    assert not check_benchmark(inst).failed
    real_solve, real_terms = suites.solve_profit_lp, suites.benchmark_terms
    real_bound, real_recompute = suites.verify_virtual_bound, suites.direct_benchmark_recompute

    def lying_solve(instance):
        sol = real_solve(instance)
        sol.mechanism.bic_violations = lambda: [(1, 2, None, Q(1, 3)), (0, 0, 1, Q(1))]
        return sol

    def uncovered(instance, mechanism, exa):
        bench = real_terms(instance, mechanism, exa)
        return replace(bench, less_surplus=bench.tail + bench.core + 1)

    seen = {}

    def unbounded(instance, mechanism, lam):
        out = seen["bound"] = dict(real_bound(instance, mechanism, lam), holds=False)
        return out

    def recompute(instance, mechanism):
        out = seen["recompute"] = real_recompute(instance, mechanism)
        return dict(out, prophet=out["prophet"] + 1)

    monkeypatch.setattr(suites, "solve_profit_lp", lying_solve)
    monkeypatch.setattr(suites, "benchmark_terms", uncovered)
    monkeypatch.setattr(suites, "verify_virtual_bound", unbounded)
    monkeypatch.setattr(suites, "direct_benchmark_recompute", recompute)
    rep = check_benchmark(inst)
    failed = dict(rep.failed)
    v = rep.values

    assert failed["bic_ir"] == "buyer 1, true type 2, report None gains 1/3"
    bound = seen["bound"]
    assert failed["virtual_bound_lp_duals"] == (
        f"profit {bound['profit']} > bound {bound['virtual_welfare_bound']}"
    )
    rec = seen["recompute"]
    assert failed["independent_recompute"] == (
        f"prophet recomputed {rec['prophet'] + 1} != {v['prophet']}; "
        f"less_surplus recomputed {rec['less_surplus']} != {v['less_surplus']}"
    )
    assert failed["core_tail_cover"] == (
        f"less surplus {v['less_surplus']} > tail {v['tail']} + core {v['core']}"
    )
    assert v["less_surplus"] == v["tail"] + v["core"] + 1


def test_search_within_oracle_pp_can_fail(monkeypatch):
    # on constrained instances the searched PP profit may not exceed the
    # oracle's, whose grid contains the search's; an oracle reporting too
    # little or too much also trips the bounds and matches that read it, and
    # each failure names both sides
    from dataclasses import replace

    from permitlab import suites

    real = suites.brute_posted_price_opt

    def low_pp(instance, kind):
        out = real(instance, kind)
        return replace(out, value=out.value - 1) if kind == "PP" else out

    inst = instance_from_dict(build_corpus("single_constrained", seed=3, count=1)[0][1])
    assert "search_within_oracle_pp" in suites.check_single_buyer(inst, constrained=True).passed
    monkeypatch.setattr(suites, "brute_posted_price_opt", low_pp)
    failed = dict(suites.check_single_buyer(inst, constrained=True).failed)
    assert failed["search_within_oracle_pp"].startswith("search ")
    assert " > oracle " in failed["search_within_oracle_pp"]

    monkeypatch.setattr(
        suites, "brute_posted_price_opt", lambda i, kind: replace(real(i, kind), value=Q(-1))
    )
    rep = suites.check_single_buyer(inst, constrained=True)
    opt = rep.values["opt_profit"]
    failed = dict(rep.failed)
    assert failed["eleven_approx"] == f"11*max(-1, -1, -1) < {opt}"
    assert failed["search_matches_oracle_pb"].endswith(" != oracle -1")
    failed = dict(suites.check_single_buyer(inst, constrained=False).failed)
    assert failed["six_approx"] == f"6*max(-1, -1, -1) < {opt}"
    for name in ("ip", "pp"):
        assert failed[f"search_matches_oracle_{name}"].endswith(" != oracle -1")

    monkeypatch.setattr(
        suites, "brute_posted_price_opt", lambda i, kind: replace(real(i, kind), value=opt + 1)
    )
    failed = dict(suites.check_single_buyer(inst, constrained=True).failed)
    assert failed["families_below_opt"] == f"max({opt + 1}, {opt + 1}, {opt + 1}) > {opt}"


def test_check_properties_failure_details(monkeypatch):
    # corrupt the surplus table, the truncated valuation and the supporting
    # prices that check_properties reads, and read what each failure names
    from permitlab import suites
    from permitlab.model import CostModel, DiscreteDist, Instance, UniformMatroid

    d = DiscreteDist((1, 3), (Q(1, 2), Q(1, 2)))
    inst = Instance(1, 2, ((d, d),), CostModel((((0, 0), 1),)), (UniformMatroid(2, 2),))
    assert not suites.check_properties(inst).failed
    real_table, real_mu, real_sup = suites.surplus_table, suites.mu, suites.supporting_prices
    low = inst.buyer_types(0)[0]  # (1, 1); type 1 is (1, 3)

    def bumped_table(instance, i, beta=None):
        rows = [list(row) for row in real_table(instance, i, beta)]
        rows[0][0b01] += 100  # above the full set of type 0, and unlike type 1's
        rows[1][0b11] += 100  # above the sum of type 1's singletons
        return tuple(tuple(row) for row in rows)

    def bumped_mu(instance, i, t_i, item_set, beta, tau_i):
        out = real_mu(instance, i, t_i, item_set, beta, tau_i)
        return out + 10**6 if t_i == low and item_set == 0b11 else out

    def shifted(instance, i, t_i, prices, available):
        sup = real_sup(instance, i, t_i, prices, available)
        return (sup[0] + 1, sup[1] - 1)  # same sum, but {0} is over-covered

    monkeypatch.setattr(suites, "surplus_table", bumped_table)
    monkeypatch.setattr(suites, "mu", bumped_mu)
    monkeypatch.setattr(suites, "supporting_prices", shifted)
    failed = dict(suites.check_properties(inst).failed)
    assert {name: failed[f"{name}_zero_b0"] for name in (
        "monotone", "subadditive", "no_externalities", "mu_subadditive", "mu_lipschitz",
        "xos_certificate", "vbar_stage2_consistency",
    )} == {
        "monotone": "type 0, set 0b1 inside 0b11: vbar 101 vs 2, mu 1 vs 1000002",
        "subadditive": "type 1, sets 0b1 and 0b10: vbar 104 > 1 + 3",
        "no_externalities": "types 0 and 1 agree on set 0b1: vbar 101 vs 1, mu 1 vs 1",
        "mu_subadditive": "type 0, sets 0b1 and 0b10: mu 1000002 > 1 + 1",
        "mu_lipschitz": "types 0 and 0, sets 0b0 and 0b11: mu gap 1000002 > tau 3 * 2",
        "xos_certificate": "type 0, atom 0, set 0b1 inside 0b1: surplus 1 < supporting prices 2",
        "vbar_stage2_consistency": "type 0, set 0b1: table 101 != stage-2 sum 1",
    }
