"""Inequality-by-inequality verification suites over generated corpora.

Each suite maps to one acceptance criterion: a per-instance check function
returning exact pass/fail results plus the quantities behind them, a corpus
recipe, and an aggregator that writes CSV/JSON reports. All comparisons are
exact rational comparisons; a failure carries the instance for replay.
"""

from __future__ import annotations

import csv
import json
import os
import sys
from dataclasses import dataclass, field, replace
from itertools import permutations

from .benchmark import (
    benchmark_terms,
    core_concentration_check,
    core_deltas,  # unused here, but perfbench/tracing.py wraps suites.core_deltas
    core_tail,
    ex_ante,
    rspp_tail_thresholds,
    surplus_tables,
    tail_prices,  # unused here, but perfbench/tracing.py wraps suites.tail_prices
    willingness,
)
from .generator import random_instance
from .lp import solve_profit_lp, verify_virtual_bound
from .mechanisms import (
    aux_grand_bundle,
    aux_sell_separately,
    construct_csip_from_copies,
    construct_rspp_tail,
    construct_rspp_tau,
    construct_spb_core,
    convert_revenue_to_permit,
    evaluate,
    monte_carlo_eval,
    search_best,
)
from .model import (
    AuctionFeasibility,
    Instance,
    Thresholds,
    effective_price,
    mu,
    popcount,
    stage2_utility,
    supporting_prices,
    surplus_table,
)
from .myerson import copies_opt_additive, copies_opt_ud, copies_opt_ud_multi, virtual_values
from .ocrs import (
    auction_ocrs,
    greedy_replay_probabilities,
    in_scaled_polytope,
    prophet_csip,
    selectability,
)
from .oracles import brute_posted_price_opt, direct_benchmark_recompute, example_1_1
from .rational import Q, ZERO, HALF, rat_str
from .serialize import instance_from_dict, instance_to_dict

CSV_COLUMNS = [
    "instance_id",
    "opt_profit",
    "ip",
    "pp",
    "pb",
    "csip",
    "rspp",
    "spb",
    "most_surplus",
    "prophet",
    "less_surplus",
    "tail",
    "core",
    "checks_passed",
]


@dataclass
class InstanceReport:
    instance_id: str
    values: dict = field(default_factory=dict)  # column -> Q
    passed: list = field(default_factory=list)
    failed: list = field(default_factory=list)  # (check name, detail)
    lp_paths: list = field(default_factory=list)  # SimplexResult.path per LP solved

    def require(self, name: str, ok: bool, detail: str = ""):
        if ok:
            # names repeat across instances; a kept report holds one shared copy
            self.passed.append(sys.intern(name))
        else:
            self.failed.append((name, detail))

    def row(self) -> dict:
        out = {c: "" for c in CSV_COLUMNS}
        out["instance_id"] = self.instance_id
        for k, v in self.values.items():
            out[k] = rat_str(v) if v is not None and v != "" else ""
        out["checks_passed"] = "yes" if not self.failed else "no"
        return out


def _expected_surplus_over_costs(instance: Instance) -> Q:
    """E over (t, c) of (ironed virtual value - cost)^+, single item."""
    d = instance.dists[0][0]
    table = virtual_values(d)
    out = ZERO
    for c_idx, (cvec, pc) in enumerate(instance.costs.atoms):
        for v, p in zip(table.ironed, d.probs):
            if v > cvec[0]:
                out += pc * p * (v - cvec[0])
    return out


# -- per-instance checks ---------------------------------------------------------


def check_benchmark(instance: Instance) -> InstanceReport:
    rep = InstanceReport(instance.name)
    sol = solve_profit_lp(instance)
    rep.lp_paths.append(sol.path)
    exa = ex_ante(instance, sol.mechanism)
    bench = benchmark_terms(instance, sol.mechanism, exa)
    rep.values.update(
        opt_profit=sol.objective,
        most_surplus=bench.most_surplus,
        prophet=bench.prophet,
        less_surplus=bench.less_surplus,
        tail=bench.tail,
        core=bench.core,
    )
    rep.require(
        "benchmark",
        sol.objective <= bench.total,
        f"{sol.objective} > {bench.total}",
    )
    violations = sol.mechanism.bic_violations()
    rep.require(
        "bic_ir",
        not violations,
        "buyer {}, true type {}, report {} gains {}".format(*violations[0]) if violations else "",
    )
    vb = verify_virtual_bound(instance, sol.mechanism, sol.lam)
    rep.require(
        "virtual_bound_lp_duals",
        vb["holds"],
        f"profit {vb['profit']} > bound {vb['virtual_welfare_bound']}",
    )
    rec = direct_benchmark_recompute(instance, sol.mechanism)
    differ = [t for t in ("most_surplus", "prophet", "less_surplus") if rec[t] != getattr(bench, t)]
    rep.require(
        "independent_recompute",
        not differ,
        "; ".join(f"{t} recomputed {rec[t]} != {getattr(bench, t)}" for t in differ),
    )
    rep.require(
        "core_tail_cover",
        bench.less_surplus <= bench.tail + bench.core,
        f"less surplus {bench.less_surplus} > tail {bench.tail} + core {bench.core}",
    )
    return rep


def check_single_buyer(instance: Instance, constrained: bool) -> InstanceReport:
    rep = InstanceReport(instance.name)
    sol = solve_profit_lp(instance)
    rep.lp_paths.append(sol.path)
    opt = sol.objective
    ip = brute_posted_price_opt(instance, "IP").value
    pp = brute_posted_price_opt(instance, "PP").value
    pb = brute_posted_price_opt(instance, "PB").value
    rep.values.update(opt_profit=opt, ip=ip, pp=pp, pb=pb)

    if constrained:
        rep.require(
            "profit_vs_families",
            opt <= 2 * ip + 5 * pp + 4 * pb,
            f"{opt} > 2*{ip}+5*{pp}+4*{pb}",
        )
        rep.require(
            "eleven_approx", 11 * max(ip, pp, pb) >= opt, f"11*max({ip}, {pp}, {pb}) < {opt}"
        )
    else:
        rep.require(
            "profit_vs_families",
            opt <= ip + 3 * pp + 2 * pb,
            f"{opt} > {ip}+3*{pp}+2*{pb}",
        )
        rep.require("six_approx", 6 * max(ip, pp, pb) >= opt, f"6*max({ip}, {pp}, {pb}) < {opt}")

    exa = ex_ante(instance, sol.mechanism)
    bench = benchmark_terms(instance, sol.mechanism, exa)
    rep.values.update(
        most_surplus=bench.most_surplus,
        prophet=bench.prophet,
        less_surplus=bench.less_surplus,
    )
    copies = sum(
        (
            instance.costs.prob(c) * copies_opt_ud(instance, c)
            for c in range(len(instance.costs))
        ),
        ZERO,
    )
    spec = construct_csip_from_copies(instance)
    res = evaluate(instance, spec)
    rep.values["csip"] = res.profit
    rep.require(
        "copies_dominates_most_surplus",
        bench.most_surplus <= copies,
        f"most surplus {bench.most_surplus} > copies {copies}",
    )
    rep.require(
        "copies_within_twice_item_pricing",
        copies <= 2 * res.profit,
        f"copies {copies} > 2*{res.profit}",
    )
    if not constrained:
        rep.require(
            "additive_item_pricing_covers",
            bench.most_surplus <= res.profit,
            f"most surplus {bench.most_surplus} > item pricing {res.profit}",
        )
        add_copies = sum(
            (
                instance.costs.prob(c) * copies_opt_additive(instance, c)
                for c in range(len(instance.costs))
            ),
            ZERO,
        )
        rep.require(
            "additive_copies_equality",
            res.profit == add_copies,
            f"item pricing {res.profit} != copies {add_copies}",
        )
    rep.require("item_pricing_below_opt", res.profit <= opt, f"item pricing {res.profit} > {opt}")

    # permit reductions: selling permits separately / as a bundle, lifted to
    # two-stage mechanisms (the same permits, then items at cost), must earn
    # exactly the auxiliary revenue
    pp_spec, pp_res = search_best(instance, "PP")
    aux_sep = aux_sell_separately(
        instance, tuple(pp_spec.permit_prices[(0, j)] for j in range(instance.m))
    )
    lifted = evaluate(instance, convert_revenue_to_permit(instance, aux_sep)).profit
    aux_rev = aux_sep.revenue()
    rep.require(
        "permit_reduction_separate",
        lifted == aux_rev == pp_res.profit,
        f"lifted {lifted}, auxiliary {aux_rev}, search {pp_res.profit}",
    )
    pb_spec, pb_res = search_best(instance, "PB")
    aux_bund = aux_grand_bundle(instance, pb_spec.bundle_prices[0])
    lifted_b = evaluate(instance, convert_revenue_to_permit(instance, aux_bund)).profit
    aux_rev_b = aux_bund.revenue()
    rep.require(
        "permit_reduction_bundle",
        lifted_b == aux_rev_b == pb_res.profit,
        f"lifted {lifted_b}, auxiliary {aux_rev_b}, search {pb_res.profit}",
    )
    rep.require(
        "search_matches_oracle_pb", pb_res.profit == pb, f"search {pb_res.profit} != oracle {pb}"
    )
    if constrained:
        # the search's permit grid is a subset of the oracle's
        rep.require(
            "search_within_oracle_pp", pp_res.profit <= pp, f"search {pp_res.profit} > oracle {pp}"
        )
    else:
        ip_spec, ip_res = search_best(instance, "IP")
        rep.require(
            "search_matches_oracle_ip",
            ip_res.profit == ip,
            f"search {ip_res.profit} != oracle {ip}",
        )
        rep.require(
            "search_matches_oracle_pp",
            pp_res.profit == pp,
            f"search {pp_res.profit} != oracle {pp}",
        )
    rep.require("families_below_opt", max(ip, pp, pb) <= opt, f"max({ip}, {pp}, {pb}) > {opt}")
    return rep


def check_single_item(instance: Instance) -> InstanceReport:
    rep = InstanceReport(instance.name)
    sol = solve_profit_lp(instance)
    rep.lp_paths.append(sol.path)
    target = _expected_surplus_over_costs(instance)
    rep.values.update(opt_profit=sol.objective)
    rep.require(
        "single_item_exact",
        sol.objective == target,
        f"LP {sol.objective} != E[(phi~ - c)+] {target}",
    )
    return rep


def check_properties(instance: Instance, beta_seed: int = 0) -> InstanceReport:
    """Monotonicity, subadditivity, no-externalities of the surplus valuation
    and its truncation, the Lipschitz bound, and the XOS certificate."""
    import random

    rep = InstanceReport(instance.name)
    rng = random.Random(beta_seed)
    betas = [None, _random_beta(instance, rng)]
    full = instance.full_mask()
    for tag, beta in zip(("zero", "random"), betas):
        ths = Thresholds.zero(instance) if beta is None else beta
        ct = core_tail(instance, ths)
        for i in range(instance.n):
            types = instance.buyer_types(i)
            # per type index k: vbar and mu at every item mask
            table = surplus_table(instance, i, ths)
            mu_table = [
                tuple(mu(instance, i, t_i, s, ths, ct.tau[i]) for s in range(full + 1))
                for t_i in types
            ]
            ok_mono = ok_sub = ok_ext = ok_mu = ok_lip = True
            for vb, mb in zip(table, mu_table):
                for u_set in range(full + 1):
                    for v_set in range(full + 1):
                        if u_set | v_set == v_set and not (
                            vb[u_set] <= vb[v_set] and mb[u_set] <= mb[v_set]
                        ):
                            ok_mono = False
                        if not vb[u_set | v_set] <= vb[u_set] + vb[v_set]:
                            ok_sub = False
                        if not mb[u_set | v_set] <= mb[u_set] + mb[v_set]:
                            ok_mu = False
            for a, t_a in enumerate(types):
                for b, t_b in enumerate(types):
                    for s in range(full + 1):
                        if all(
                            t_a[j] == t_b[j] for j in range(instance.m) if (s >> j) & 1
                        ):
                            if table[a][s] != table[b][s] or mu_table[a][s] != mu_table[b][s]:
                                ok_ext = False
                    for x_set in range(full + 1):
                        for y_set in range(full + 1):
                            delta = popcount(x_set ^ y_set) + sum(
                                1
                                for j in range(instance.m)
                                if ((x_set & y_set) >> j) & 1 and t_a[j] != t_b[j]
                            )
                            gap = mu_table[a][x_set] - mu_table[b][y_set]
                            if gap < 0:
                                gap = -gap
                            if gap > ct.tau[i] * delta:
                                ok_lip = False
            rep.require(f"monotone_{tag}_b{i}", ok_mono)
            rep.require(f"subadditive_{tag}_b{i}", ok_sub)
            rep.require(f"no_externalities_{tag}_b{i}", ok_ext)
            rep.require(f"mu_subadditive_{tag}_b{i}", ok_mu)
            rep.require(f"mu_lipschitz_{tag}_b{i}", ok_lip)
            rep.require(
                f"xos_certificate_{tag}_b{i}",
                _xos_certificate_ok(instance, i, ths),
            )
            rep.require(
                f"vbar_stage2_consistency_{tag}_b{i}",
                _vbar_stage2_consistent(instance, i, ths),
            )
    return rep


def _random_beta(instance: Instance, rng) -> Thresholds:
    vals = []
    for i in range(instance.n):
        rows = []
        for j in range(instance.m):
            sup = instance.dists[i][j].support
            rows.append(
                tuple(
                    rng.choice((ZERO,) + sup) for _ in range(len(instance.costs))
                )
            )
        vals.append(tuple(rows))
    return Thresholds(tuple(vals))


def _xos_certificate_ok(instance: Instance, i: int, ths: Thresholds) -> bool:
    full = instance.full_mask()
    for t_i in instance.buyer_types(i):
        for c_idx in range(len(instance.costs)):
            prices = tuple(
                effective_price(instance, ths, i, j, c_idx)
                for j in range(instance.m)
            )
            for p_set in range(full + 1):
                val, _ = stage2_utility(instance, i, t_i, prices, p_set)
                sup = supporting_prices(instance, i, t_i, prices, p_set)
                if sum(sup, ZERO) != val:
                    return False
                for s_sub in range(full + 1):
                    if s_sub | p_set != p_set:
                        continue
                    inner, _ = stage2_utility(instance, i, t_i, prices, s_sub)
                    if inner < sum(
                        (sup[j] for j in range(instance.m) if (s_sub >> j) & 1),
                        ZERO,
                    ):
                        return False
    return True


def _vbar_stage2_consistent(instance: Instance, i: int, ths: Thresholds) -> bool:
    full = instance.full_mask()
    for t_i, row in zip(instance.buyer_types(i), surplus_table(instance, i, ths)):
        for p_set in range(full + 1):
            direct = row[p_set]
            total = ZERO
            for c_idx, (_, pc) in enumerate(instance.costs.atoms):
                prices = tuple(
                    effective_price(instance, ths, i, j, c_idx)
                    for j in range(instance.m)
                )
                val, _ = stage2_utility(instance, i, t_i, prices, p_set)
                total += pc * val
            if direct != total:
                return False
    return True


def check_multi(instance: Instance) -> InstanceReport:
    """The multi-buyer approximation chain on one matroid instance."""
    rep = InstanceReport(instance.name)
    sol = solve_profit_lp(instance)
    rep.lp_paths.append(sol.path)
    opt = sol.objective
    exa = ex_ante(instance, sol.mechanism)
    bench = benchmark_terms(instance, sol.mechanism, exa)
    ct, deltas = bench.core_tail, bench.delta
    rep.values.update(
        opt_profit=opt,
        most_surplus=bench.most_surplus,
        prophet=bench.prophet,
        less_surplus=bench.less_surplus,
        tail=bench.tail,
        core=bench.core,
    )

    # (a) copies chain
    copies = sum(
        (
            instance.costs.prob(c) * copies_opt_ud_multi(instance, c)
            for c in range(len(instance.costs))
        ),
        ZERO,
    )
    csip_spec = construct_csip_from_copies(instance)
    csip_res = evaluate(instance, csip_spec)
    rep.require(
        "copies_dominates_most_surplus",
        bench.most_surplus <= copies,
        f"most surplus {bench.most_surplus} > copies {copies}",
    )
    rep.require(
        "most_surplus_six_csip",
        bench.most_surplus <= 6 * csip_res.profit,
        f"{bench.most_surplus} > 6*{csip_res.profit}",
    )

    # (b) prophet chain
    pro_spec, ocrs = prophet_csip(instance, exa)
    pro_res = evaluate(instance, pro_spec)
    rep.require(
        "prophet_eight_csip",
        bench.prophet <= 8 * pro_res.profit,
        f"{bench.prophet} > 8*{pro_res.profit}",
    )
    worst_sel = None  # (selectability, cost atom, pair) of the least selectable pair
    for c_idx in range(len(instance.costs)):
        y = tuple(
            exa.q[(i, j, c_idx)]
            if exa.beta.get(i, j, c_idx) >= instance.costs.vector(c_idx)[j]
            else ZERO
            for i in range(instance.n)
            for j in range(instance.m)
        )
        for e, p in selectability(ocrs, y).per_element.items():
            if worst_sel is None or p < worst_sel[0]:
                worst_sel = (p, c_idx, e)
        lower = ocrs.constant * sum(
            (
                exa.q[(i, j, c_idx)]
                * (pro_spec.price(i, j, c_idx) - instance.costs.vector(c_idx)[j])
                for i in range(instance.n)
                for j in range(instance.m)
                if exa.beta.get(i, j, c_idx) >= instance.costs.vector(c_idx)[j]
            ),
            ZERO,
        )
        rep.require(
            f"per_atom_prophet_share_c{c_idx}",
            pro_res.atom_profit[c_idx] >= lower,
            f"{pro_res.atom_profit[c_idx]} < {lower}",
        )
    if worst_sel is not None:  # some pair is active on some atom
        p, c_idx, e = worst_sel
        rep.require(
            "ocrs_selectability_at_use",
            p >= ocrs.constant,
            f"atom {c_idx}, pair {e} (buyer {e // instance.m}, item {e % instance.m}): "
            f"selectability {p} < claimed {ocrs.constant}",
        )
    rep.values["csip"] = max(csip_res.profit, pro_res.profit)

    # (c) tail chain
    xi = rspp_tail_thresholds(instance, exa.beta, ct)
    tables = surplus_tables(instance, exa.beta)

    def willing(i, j):
        a = xi[(i, j)]
        return ZERO if a is None else willingness(instance, tables, i, j, a)

    tail_spec = construct_rspp_tail(instance, exa, xi)
    tail_res = evaluate(instance, tail_spec)
    short_events = [
        f"pair ({i}, {j}): bought {got} < needed {HALF * willing(i, j)}"
        for i in range(instance.n)
        for j in range(instance.m)
        if xi[(i, j)] is not None
        and (got := tail_res.permit_buy_prob.get((i, j), ZERO)) < HALF * willing(i, j)
    ]
    rep.require("tail_permit_event_probability", not short_events, "; ".join(short_events))
    xi_mass = sum(
        (
            xi[(i, j)] * willing(i, j)
            for i in range(instance.n)
            for j in range(instance.m)
            if xi[(i, j)] is not None
        ),
        ZERO,
    )
    rep.require(
        "tail_revenue_bound", xi_mass <= 4 * tail_res.profit,
        f"{xi_mass} > 4*{tail_res.profit}",
    )
    rep.require(
        "tail_within_half_mass", ct.tail <= HALF * xi_mass,
        f"tail {ct.tail} > {HALF * xi_mass}",
    )
    rep.require(
        "tail_two_rspp",
        ct.tail <= 2 * tail_res.profit,
        f"{ct.tail} > 2*{tail_res.profit}",
    )

    # (d) core chain
    tau_spec = construct_rspp_tau(instance, exa, ct.tau)
    tau_res = evaluate(instance, tau_spec)
    rspp_profit = max(tail_res.profit, tau_res.profit)
    rep.values["rspp"] = rspp_profit
    rep.require(
        "tau_sum_eight_rspp",
        sum(ct.tau, ZERO) <= 8 * rspp_profit,
        f"{sum(ct.tau, ZERO)} > 8*{rspp_profit}",
    )
    spb_spec = construct_spb_core(instance, exa, deltas)
    spb_res = evaluate(instance, spb_spec)
    rep.values["spb"] = spb_res.profit
    conc = core_concentration_check(instance, exa.beta, ct, deltas)
    rep.require(
        "core_concentration",
        all(row["holds"] for row in conc),
        "; ".join(
            f"buyer {row['buyer']}: mean {row['mean_truncated_surplus']} > bound {row['bound']}"
            for row in conc
            if not row["holds"]
        ),
    )

    def unpaid(res):
        """Buyers with a positive bundle price who pay it with probability below 1/2."""
        return [
            f"buyer {i} pays with probability {res.bundle_pay_prob.get(i, ZERO)} < 1/2"
            for i in range(instance.n)
            if deltas[i] > 0 and res.bundle_pay_prob.get(i, ZERO) < HALF
        ]

    short_pay = unpaid(spb_res)
    rep.require("spb_half_acceptance", not short_pay, "; ".join(short_pay))
    rep.require(
        "core_spb_rspp",
        bench.core <= 8 * spb_res.profit + 20 * rspp_profit,
        f"{bench.core} > 8*{spb_res.profit}+20*{rspp_profit}",
    )

    # (e) composed bound
    csip_best = max(csip_res.profit, pro_res.profit)
    rep.require(
        "composed_44",
        opt <= 14 * csip_best + 22 * rspp_profit + 8 * spb_res.profit,
        f"{opt} > 14*{csip_best}+22*{rspp_profit}+8*{spb_res.profit}",
    )

    # order sweep: the constructions keep their guarantees under any arrival order
    for order in permutations(range(instance.n)):
        if order == tuple(range(instance.n)):
            continue
        for spec, label in (
            (tail_spec, "tail"),
            (tau_spec, "tau"),
            (spb_spec, "spb"),
        ):
            res2 = evaluate(instance, replace(spec, order=order))
            if label == "tail":
                best = max(res2.profit, tau_res.profit)
                ok = ct.tail <= 2 * best
                detail = f"tail {ct.tail} > 2*{best}"
            elif label == "tau":
                best = max(res2.profit, tail_res.profit)
                ok = sum(ct.tau, ZERO) <= 8 * best
                detail = f"{sum(ct.tau, ZERO)} > 8*{best}"
            else:
                short_pay = unpaid(res2)
                ok = not short_pay
                detail = "; ".join(short_pay)
            rep.require(f"order_sweep_{label}_{order}", ok, detail)

    # every constructed mechanism is BIC/interim-IR, so the LP dominates it
    for label, profit in (
        ("csip", csip_res.profit),
        ("prophet", pro_res.profit),
        ("tail", tail_res.profit),
        ("tau", tau_res.profit),
        ("spb", spb_res.profit),
    ):
        rep.require(f"lp_dominates_{label}", profit <= opt, f"{profit} > {opt}")
    return rep


def check_monte_carlo(instance: Instance, seed: int) -> InstanceReport:
    rep = InstanceReport(instance.name)
    spec = construct_csip_from_copies(instance)
    exact = evaluate(instance, spec).profit
    # a short run repeated with the same seed must give the same numbers
    first = monte_carlo_eval(instance, spec, samples=2_000, seed=seed)
    again = monte_carlo_eval(instance, spec, samples=2_000, seed=seed)
    mc = monte_carlo_eval(instance, spec, samples=100_000, seed=seed)
    covered = abs(mc.estimate - float(exact)) <= mc.half_width + 1e-12
    rep.values.update(opt_profit=exact)
    rep.require(
        "mc_reproducible",
        (first.estimate, first.half_width) == (again.estimate, again.half_width),
        f"{first.estimate}+-{first.half_width} then {again.estimate}+-{again.half_width}",
    )
    rep.require("mc_covered", covered, f"{mc.estimate}+-{mc.half_width} vs {exact}")
    rep.values["csip"] = exact
    return rep


# -- fixed (non-corpus) suites ----------------------------------------------------


def check_ocrs_certification() -> InstanceReport:
    """(1/2, 1/4)-selectability of the composed scheme for two buyers and two
    items, by exact enumeration at polytope vertices, mixtures, and replays."""
    from .model import CostModel, DiscreteDist, UniformMatroid

    rep = InstanceReport("ocrs-2x2")
    point = DiscreteDist((1,), (1,))
    for fams in (
        (UniformMatroid(2, 2), UniformMatroid(2, 2)),
        (UniformMatroid(2, 1), UniformMatroid(2, 1)),
        (UniformMatroid(2, 2), UniformMatroid(2, 1)),
    ):
        inst = Instance(
            2, 2, ((point, point), (point, point)), CostModel((((0, 0), 1),)), fams
        )
        ocrs = auction_ocrs(inst, HALF)
        rep.require(f"constant_{fams[0].rank}{fams[1].rank}", ocrs.constant == Q(1, 4))
        feas = AuctionFeasibility(inst)
        probes = []
        members = [a for a in feas.members() if a]
        for a in members:
            probes.append(tuple(HALF if (a >> e) & 1 else ZERO for e in range(4)))
        k = Q(1, len(members))
        probes.append(
            tuple(
                HALF * k * sum(1 for a in members if (a >> e) & 1) for e in range(4)
            )
        )
        probes.append(tuple(Q(1, 8) for _ in range(4)))
        ok_sel = True
        ok_replay = True
        for y in probes:
            if not in_scaled_polytope(feas, 4, y, HALF):
                continue
            srep = selectability(ocrs, y)
            if srep.per_element and srep.worst < Q(1, 4):
                ok_sel = False
            got = greedy_replay_probabilities(ocrs, y)
            for e, p in got.items():
                if p < Q(1, 4) * y[e]:
                    ok_replay = False
        rep.require(f"selectability_{fams[0].rank}{fams[1].rank}", ok_sel)
        rep.require(f"greedy_replay_{fams[0].rank}{fams[1].rank}", ok_replay)
    return rep


def check_example_family() -> InstanceReport:
    """Equal-revenue reproduction: item pricing earns exactly 1 under full cost
    revelation, and the bundle/item ratio strictly grows with the item count."""
    rep = InstanceReport("equal-revenue")
    ratios = []
    for m in (2, 4, 8):
        inst = example_1_1(m, 6)
        ip = brute_posted_price_opt(inst, "IP").value
        pb = brute_posted_price_opt(inst, "PB").value
        rep.require(f"ip_exactly_one_m{m}", ip == 1, f"IP = {ip}")
        ratios.append(pb / ip)
    rep.require(
        "bundle_separation_grows",
        ratios[0] < ratios[1] < ratios[2],
        f"ratios {[str(r) for r in ratios]}",
    )
    inst24 = example_1_1(2, 4)
    rep.require(
        "bundle_beats_revelation",
        brute_posted_price_opt(inst24, "PB").value > 1,
    )
    rep.values["ip"] = Q(1)
    rep.values["pb"] = ratios[-1]
    return rep


# -- corpus orchestration ----------------------------------------------------------


def _worker(task) -> dict:
    kind, payload, params = task
    instance = instance_from_dict(payload) if payload is not None else None
    try:
        if kind == "benchmark":
            rep = check_benchmark(instance)
        elif kind == "single_additive":
            rep = check_single_buyer(instance, constrained=False)
        elif kind == "single_constrained":
            rep = check_single_buyer(instance, constrained=True)
        elif kind == "single_item":
            rep = check_single_item(instance)
        elif kind == "properties":
            rep = check_properties(instance, params.get("beta_seed", 0))
        elif kind == "multi":
            rep = check_multi(instance)
        elif kind == "monte_carlo":
            rep = check_monte_carlo(instance, params["seed"])
        elif kind == "ocrs":
            rep = check_ocrs_certification()
        elif kind == "example":
            rep = check_example_family()
        else:
            raise ValueError(f"unknown check {kind}")
    except Exception as exc:  # verification errors abort with replay data
        return {
            "instance_id": instance.name if instance else kind,
            "error": f"{type(exc).__name__}: {exc}",
            "payload": payload,
        }
    return {
        "instance_id": rep.instance_id,
        "row": rep.row(),
        "passed": rep.passed,
        "failed": [list(f) for f in rep.failed],
        "lp_paths": rep.lp_paths,
    }


SUITE_RECIPES = {
    "benchmark": dict(
        check="benchmark", count=200, n_max=2, m_max=2, max_support=3,
        max_atoms=2, families="mixed",
    ),
    "single_additive": dict(
        check="single_additive", count=100, n_max=1, m_max=2, max_support=3,
        max_atoms=2, families="additive",
        mix=(7, dict(m_min=3, m_max=3, max_support=2)),
    ),
    "single_constrained": dict(
        check="single_constrained", count=100, n_max=1, m_min=2, m_max=2,
        max_support=3, max_atoms=2, families="downward",
    ),
    "properties": dict(
        check="properties", count=50, n_max=2, m_max=3, max_support=2,
        max_atoms=2, families="mixed",
    ),
    "multi": dict(
        check="multi", count=50, n_min=2, n_max=2, m_min=2, m_max=2,
        max_support=3, max_atoms=2, families="matroid",
    ),
    # the two-buyer, three-item chain, kept apart so "multi" keeps its instances
    "multi_2x3": dict(
        check="multi", count=40, n_min=2, n_max=2, m_min=3, m_max=3,
        max_support=2, max_atoms=2, families="matroid",
    ),
    "single_item": dict(
        check="single_item", count=50, n_max=1, m_max=1, max_support=3,
        max_atoms=3, families="additive",
    ),
    "monte_carlo": dict(
        check="monte_carlo", count=20, n_max=2, m_max=2, max_support=3,
        max_atoms=2, families="mixed",
    ),
    "ocrs": dict(check="ocrs", count=1, fixed=True),
    "example": dict(check="example", count=1, fixed=True),
}


def build_corpus(suite: str, seed: int, count: int = None) -> list:
    recipe = dict(SUITE_RECIPES[suite])
    check = recipe.pop("check")
    fixed = recipe.pop("fixed", False)
    mix = recipe.pop("mix", None)  # (every_k, overrides): vary sizes in-corpus
    n = count if count is not None else recipe.pop("count")
    recipe.pop("count", None)
    if fixed:
        return [(check, None, {})]
    tasks = []
    for k in range(n):
        params_k = dict(recipe)
        if mix is not None and k % mix[0] == mix[0] - 1:
            params_k.update(mix[1])
        inst = random_instance(
            seed * 100_003 + k, name=f"{suite}-{k:04d}", **params_k
        )
        params = {"seed": seed * 7 + k, "beta_seed": seed + k}
        tasks.append((check, instance_to_dict(inst), params))
    return tasks


def run_suite(
    suite: str,
    seed: int = 0,
    count: int = None,
    out_dir: str = None,
    workers: int = None,
    min_pass_fraction=None,
) -> dict:
    """Run one verification suite; write CSV and JSON reports when out_dir is
    given. Returns the summary. Internal errors serialize the instance and
    abort."""
    tasks = build_corpus(suite, seed, count)
    workers = workers or min(os.cpu_count() or 1, 4)
    if workers > 1 and len(tasks) > 1:
        # imported here, as it adds about 2 MiB to any process importing suites
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_worker, tasks, chunksize=4))
    else:
        results = [_worker(t) for t in tasks]
    results.sort(key=lambda r: r["instance_id"])
    for r in results:
        if "error" in r:
            if out_dir and r.get("payload") is not None:
                os.makedirs(out_dir, exist_ok=True)
                path = os.path.join(out_dir, f"failing-{r['instance_id']}.json")
                with open(path, "w") as fh:
                    json.dump(r["payload"], fh, indent=1)
                raise RuntimeError(
                    f"{suite}: internal error on {r['instance_id']} "
                    f"({r['error']}); instance saved to {path}"
                )
            raise RuntimeError(f"{suite}: internal error: {r['error']}")
    n_fail = sum(1 for r in results if r["failed"])
    lp_paths = {"certified": 0, "exact": 0}
    for r in results:
        for path in r["lp_paths"]:
            lp_paths[path] += 1
    passed_count = len(results) - n_fail
    if min_pass_fraction is None:
        ok = n_fail == 0
    else:
        ok = passed_count >= min_pass_fraction * len(results)
    summary = {
        "suite": suite,
        "seed": seed,
        "instances": len(results),
        "passed_instances": passed_count,
        "all_passed": ok,
        "lp_paths": lp_paths,
        "failures": [
            {"instance": r["instance_id"], "checks": r["failed"]}
            for r in results
            if r["failed"]
        ],
    }
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"{suite}.csv"), "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
            w.writeheader()
            for r in results:
                if "row" in r:
                    w.writerow(r["row"])
        with open(os.path.join(out_dir, f"{suite}.json"), "w") as fh:
            json.dump(summary, fh, indent=1)
    return summary
