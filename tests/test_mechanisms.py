import random
import re
from itertools import accumulate, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permitlab.benchmark import core_deltas, core_tail, ex_ante, rspp_tail_thresholds
from permitlab.lp import solve_profit_lp
from permitlab.mechanisms import (
    AvailabilityModel,
    ConstructionError,
    MechanismSpec,
    aux_grand_bundle,
    aux_sell_separately,
    best_response_permits,
    construct_csip_from_copies,
    construct_rspp_tail,
    construct_rspp_tau,
    construct_spb_core,
    convert_revenue_to_permit,
    default_grid,
    evaluate,
    monte_carlo_eval,
    search_best,
)
from permitlab.generator import _random_basis_matroid, random_instance
from permitlab.model import (
    AuctionFeasibility,
    CostModel,
    DiscreteDist,
    ExplicitFamily,
    ExplicitPairFamily,
    Instance,
    PartitionMatroid,
    UniformMatroid,
    UnitDemandPairs,
    iter_subsets,
    popcount,
    vbar,
)
from permitlab.myerson import copies_opt_additive, copies_opt_ud
from permitlab.oracles import _is_additive, brute_posted_price_opt
from permitlab.rational import Q, ZERO, ONE, HALF


def cost_prices(inst):
    return {
        (i, j, c): inst.costs.vector(c)[j]
        for i in range(inst.n)
        for j in range(inst.m)
        for c in range(len(inst.costs))
    }


def test_eval_csip_examples(canonical):
    spec = MechanismSpec("IP", {(0, 0, 0): Q(2), (0, 0, 1): Q(2)})
    assert evaluate(canonical, spec).profit == Q(3, 4)
    high = MechanismSpec("IP", {(0, 0, 0): Q(9), (0, 0, 1): Q(9)})
    assert evaluate(canonical, high).profit == 0
    below = MechanismSpec("IP", {(0, 0, 0): ZERO, (0, 0, 1): ZERO})
    assert evaluate(canonical, below).profit == Q(-1, 2)  # losses are reported


def test_eval_pp_examples(canonical):
    spec = MechanismSpec(
        "PP", cost_prices(canonical), permit_prices={(0, 0): Q(3, 2)}
    )
    res = evaluate(canonical, spec)
    assert res.profit == Q(3, 4)
    assert res.permit_buy_prob[(0, 0)] == Q(1, 2)  # the tie buys
    free = MechanismSpec("PP", cost_prices(canonical), permit_prices={(0, 0): ZERO})
    assert evaluate(canonical, free).profit == 0
    steep = MechanismSpec("PP", cost_prices(canonical), permit_prices={(0, 0): Q(99)})
    assert evaluate(canonical, steep).profit == 0


def test_eval_pb_examples(canonical):
    spec = MechanismSpec(
        "PB", cost_prices(canonical), bundle_prices={0: Q(3, 2)}
    )
    assert evaluate(canonical, spec).profit == Q(3, 4)
    zero = MechanismSpec("PB", cost_prices(canonical), bundle_prices={0: ZERO})
    assert evaluate(canonical, zero).profit == 0
    steep = MechanismSpec("PB", cost_prices(canonical), bundle_prices={0: Q(99)})
    assert evaluate(canonical, steep).profit == 0


def test_best_response_permit_examples():
    # surpluses 2 and 4 halve to utilities (1, 2); prices (1/2, 19/10)
    inst = Instance(
        1,
        2,
        ((DiscreteDist((2,), (1,)), DiscreteDist((4,), (1,))),),
        CostModel((((0, 0), 1),)),
        (UniformMatroid(2, 2),),
    )
    spec = MechanismSpec(
        "RSPP",
        cost_prices(inst),
        permit_prices={(0, 0): Q(1, 2), (0, 1): Q(19, 10)},
        hide_to_half=True,
    )
    avail = AvailabilityModel(inst, [{0b11: Q(1)}], [[HALF, HALF]])
    permits, pay = best_response_permits(inst, 0, (Q(2), Q(4)), spec, avail)
    assert permits == 0b01 and pay == Q(1, 2)
    # all free: the whole allowed set is taken
    spec2 = MechanismSpec(
        "PP", cost_prices(inst), permit_prices={(0, 0): ZERO, (0, 1): ZERO}
    )
    full_avail = AvailabilityModel(inst, [{0b11: Q(1)}], [[Q(1), Q(1)]])
    permits2, _ = best_response_permits(inst, 0, (Q(2), Q(4)), spec2, full_avail)
    assert permits2 == 0b11
    # prices exactly at value: ties buy
    spec3 = MechanismSpec(
        "PP", cost_prices(inst), permit_prices={(0, 0): Q(2), (0, 1): Q(4)}
    )
    permits3, _ = best_response_permits(inst, 0, (Q(2), Q(4)), spec3, full_avail)
    assert permits3 == 0b11


def test_construct_csip_additive(canonical):
    spec = construct_csip_from_copies(canonical)
    res = evaluate(canonical, spec)
    copies = sum(
        (
            canonical.costs.prob(c) * copies_opt_additive(canonical, c)
            for c in range(len(canonical.costs))
        ),
        ZERO,
    )
    assert res.profit == copies == Q(3, 4)


def test_construct_csip_additive_two_items():
    d = DiscreteDist((1, 2), (Q(1, 2), Q(1, 2)))
    inst = Instance(
        1, 2, ((d, d),), CostModel((((0, 0), 1),)), (UniformMatroid(2, 2),)
    )
    spec = construct_csip_from_copies(inst)
    assert evaluate(inst, spec).profit == 2


def test_monte_carlo(canonical):
    spec = MechanismSpec("IP", {(0, 0, 0): Q(2), (0, 0, 1): Q(2)})
    a = monte_carlo_eval(canonical, spec, samples=50_000, seed=11)
    b = monte_carlo_eval(canonical, spec, samples=50_000, seed=11)
    assert a.estimate == b.estimate  # same seed, same stream
    assert abs(a.estimate - 0.75) <= a.half_width + 1e-12
    point = Instance(
        1,
        1,
        ((DiscreteDist((3,), (1,)),),),
        CostModel((((1,), 1),)),
        (UniformMatroid(1, 1),),
    )
    pspec = MechanismSpec("IP", {(0, 0, 0): Q(3)})
    mc = monte_carlo_eval(point, pspec, samples=500, seed=0)
    assert mc.estimate == 2.0 and mc.half_width == 0.0


def test_conversion_equalities(canonical, two_iid_items):
    aux = aux_sell_separately(canonical, (Q(3, 2),))
    two = convert_revenue_to_permit(canonical, aux)
    assert two.kind == "PP" and two.permit_prices == {(0, 0): Q(3, 2)}
    assert two.item_prices == cost_prices(canonical)
    assert evaluate(canonical, two).profit == aux.revenue() == Q(3, 4)
    auxb = aux_grand_bundle(canonical, Q(3, 2))
    twob = convert_revenue_to_permit(canonical, auxb)
    assert twob.kind == "PB" and twob.bundle_prices == {0: Q(3, 2)}
    assert evaluate(canonical, twob).profit == auxb.revenue() == Q(3, 4)
    # two items: the lifted profit is the permit revenue, not a re-sum of it
    for prices in ((Q(1, 2), Q(3, 2)), (Q(1), Q(1)), (ZERO, Q(2))):
        aux2 = aux_sell_separately(two_iid_items, prices)
        lifted = evaluate(two_iid_items, convert_revenue_to_permit(two_iid_items, aux2))
        assert lifted.profit == aux2.revenue()
        assert lifted.profit == sum(
            (p * lifted.permit_buy_prob.get((0, j), ZERO) for j, p in enumerate(prices)),
            ZERO,
        )


def test_conversion_rejects_untruthful(canonical):
    from permitlab.mechanisms import AuxMechanism

    # type 1 is charged more than type 2 for the same allocation
    aux = AuxMechanism(
        canonical,
        {0: ((1, Q(1)),), 1: ((1, Q(1)),)},
        {0: Q(1), 1: Q(0)},
    )
    with pytest.raises(ConstructionError):
        convert_revenue_to_permit(canonical, aux)


def test_search_best_matches_oracle(canonical):
    for kind in ("IP", "PP", "PB"):
        _, res = search_best(canonical, kind)
        assert res.profit == brute_posted_price_opt(canonical, kind).value == Q(3, 4)


def test_search_pp_grid_example(canonical):
    spec, res = search_best(canonical, "PP")
    assert spec.permit_prices[(0, 0)] == Q(3, 2) and res.profit == Q(3, 4)


def test_ip_profit_invariant_to_unsold_item_shift():
    d = DiscreteDist((1, 2), (Q(1, 2), Q(1, 2)))
    inst = Instance(
        1, 2, ((d, d),), CostModel((((0, 1), 1),)), (UniformMatroid(2, 2),)
    )
    spec = MechanismSpec("IP", {(0, 0, 0): Q(2), (0, 1, 0): Q(9)})
    base = evaluate(inst, spec).profit
    # raise the unsold item's price and cost by the same constant
    inst2 = Instance(
        1, 2, ((d, d),), CostModel((((0, 4), 1),)), (UniformMatroid(2, 2),)
    )
    spec2 = MechanismSpec("IP", {(0, 0, 0): Q(2), (0, 1, 0): Q(12)})
    assert evaluate(inst2, spec2).profit == base


def _multi_instance():
    d = DiscreteDist((1, 2), (Q(1, 2), Q(1, 2)))
    e = DiscreteDist((1, 3), (Q(3, 4), Q(1, 4)))
    return Instance(
        2,
        2,
        ((d, e), (e, d)),
        CostModel((((0, 1), Q(1, 2)), ((1, 0), Q(1, 2)))),
        (UniformMatroid(2, 1), UniformMatroid(2, 2)),
        name="multi-fixture",
    )


def test_rspp_hiding_probability_single():
    # one buyer, one item, always available: keep probability exactly 1/2
    d = DiscreteDist((1, 2), (Q(1, 2), Q(1, 2)))
    inst = Instance(1, 1, ((d,),), CostModel((((0,), 1),)), (UniformMatroid(1, 1),))
    spec = MechanismSpec(
        "RSPP",
        cost_prices(inst),
        permit_prices={(0, 0): Q(1, 2)},
        hide_to_half=True,
    )
    res = evaluate(inst, spec)
    assert res.keep_probs[(0, 0, 0)] == HALF
    assert spec.hiding_probs == {}  # the caller's spec is left as it was


def test_multi_constructions_chain():
    inst = _multi_instance()
    sol = solve_profit_lp(inst)
    exa = ex_ante(inst, sol.mechanism)
    ct = core_tail(inst, exa.beta)
    xi = rspp_tail_thresholds(inst, exa.beta, ct)
    tail_spec = construct_rspp_tail(inst, exa, xi)
    tail_res = evaluate(inst, tail_spec)
    assert ct.tail <= 2 * tail_res.profit
    tau_spec = construct_rspp_tau(inst, exa, ct.tau)
    tau_res = evaluate(inst, tau_spec)
    assert sum(ct.tau, ZERO) <= 8 * max(tau_res.profit, tail_res.profit)
    deltas = core_deltas(inst, exa.beta, ct)
    spb = construct_spb_core(inst, exa, deltas)
    spb_res = evaluate(inst, spb)
    for i in range(2):
        if deltas[i] > 0:
            assert spb_res.bundle_pay_prob.get(i, ZERO) >= HALF
    for res in (tail_res, tau_res, spb_res):
        assert res.profit <= sol.objective


def test_rspp_tail_precondition_rejected():
    from permitlab.benchmark import ExAnte
    from permitlab.model import Thresholds

    inst = _multi_instance()
    exa = ExAnte(
        inst,
        {(i, j, c): ZERO for i in range(2) for j in range(2) for c in range(2)},
        Thresholds.zero(inst),
        {(i, j, c): Q(1) for i in range(2) for j in range(2) for c in range(2)},
    )
    # at zero thresholds every type clears some price, so tiny permit
    # thresholds push the willingness sums far above one half
    bad_xi = {(i, j): Q(1, 100) for i in range(2) for j in range(2)}
    with pytest.raises(ConstructionError):
        construct_rspp_tail(inst, exa, bad_xi)


def test_spb_point_mass_always_accepts():
    point = Instance(
        1,
        1,
        ((DiscreteDist((4,), (1,)),),),
        CostModel((((1,), 1),)),
        (UniformMatroid(1, 1),),
    )
    sol = solve_profit_lp(point)
    exa = ex_ante(point, sol.mechanism)
    ct = core_tail(point, exa.beta)
    deltas = core_deltas(point, exa.beta, ct)
    spec = construct_spb_core(point, exa, deltas)
    res = evaluate(point, spec)
    assert res.bundle_pay_prob.get(0, ZERO) == 1


def test_construct_price_prefers_higher_at_ties():
    # at cost zero both support prices earn revenue 1; the higher one is kept
    d = DiscreteDist((1, 2), (Q(1, 2), Q(1, 2)))
    inst = Instance(1, 1, ((d,),), CostModel((((0,), 1),)), (UniformMatroid(1, 1),))
    spec = construct_csip_from_copies(inst)
    assert spec.item_prices[(0, 0, 0)] == 2
    assert evaluate(inst, spec).profit == 1


@st.composite
def _one_buyer_instances(draw):
    m = draw(st.integers(1, 3))
    base = random_instance(
        draw(st.integers(0, 10**6)), n_max=1, m_min=m, m_max=m, max_support=2, max_atoms=2
    )
    kind = draw(st.sampled_from(("uniform", "partition", "basis", "explicit")))
    if kind == "uniform":
        family = UniformMatroid(m, draw(st.integers(1, m)))
    elif kind == "partition":
        labels = draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
        parts = [
            sum(1 << e for e in range(m) if labels[e] == k) for k in sorted(set(labels))
        ]
        family = PartitionMatroid(m, parts, [draw(st.integers(0, popcount(p))) for p in parts])
    elif kind == "basis":
        family = _random_basis_matroid(random.Random(draw(st.integers(0, 10**6))), m)
    else:
        tops = draw(st.lists(st.integers(1, (1 << m) - 1), min_size=1, max_size=3))
        family = ExplicitFamily(m, {s for top in tops for s in iter_subsets(top)})
    return Instance(1, m, base.dists, base.costs, (family,), name=f"{kind}-{base.name}")


@settings(max_examples=60, deadline=None)
@given(_one_buyer_instances())
def test_tabulated_permit_revenue_matches_evaluate_and_aux(inst):
    # search_best scores its PP and PB grids from a vbar table; at every grid
    # point that must be evaluate's profit and the auxiliary revenue, and the
    # evaluator's buyer, facing every item, must choose what the auxiliary
    # mechanism's buyer chooses
    from permitlab.mechanisms import _pb_spec, _pp_spec, _stage1_revenue

    m, n_atoms = inst.m, len(inst.costs)
    types = inst.buyer_types(0)
    utility = [[vbar(inst, 0, t_i, pm) for pm in range(1 << m)] for t_i in types]
    everything = AvailabilityModel(inst, [{inst.full_mask(): ONE}] * n_atoms, [[ONE] * m] * n_atoms)
    grid = default_grid(inst, "PP")
    points = [("PP", combo) for combo in product(*(grid[j] for j in range(m)))]
    points += [("PB", delta) for delta in default_grid(inst, "PB")]
    for kind, price in points:
        if kind == "PP":
            spec = _pp_spec(inst, {(0, j): p for j, p in enumerate(price)})
            aux = aux_sell_separately(inst, price)
        else:
            spec = _pb_spec(inst, price)
            aux = aux_grand_bundle(inst, price)
        assert _stage1_revenue(inst, utility, spec) == evaluate(inst, spec).profit == aux.revenue()
        for k, t_i in enumerate(types):
            ((mask, _),) = aux.alloc[k]
            assert best_response_permits(inst, 0, t_i, spec, everything) == (mask, aux.payment[k])


def _pp_by_evaluate(instance, order):
    """The permit grid from vbar's marginal gains, each grid point scored by
    one full evaluate call: the slow reference for the oracle's table-scored
    PP branch. Returns (best profit, grid points)."""
    from permitlab.mechanisms import _pp_spec

    m = instance.m
    grids = []
    for j in range(m):
        vals = {ZERO}
        for t_i in instance.buyer_types(0):
            for sub in range(1 << m):
                if not (sub >> j) & 1:
                    gain = vbar(instance, 0, t_i, sub | (1 << j)) - vbar(instance, 0, t_i, sub)
                    if gain > 0:
                        vals.add(gain)
        grids.append(sorted(vals, reverse=order == "descending"))
    best, count = None, 0
    for combo in product(*grids):
        count += 1
        spec = _pp_spec(instance, {(0, j): combo[j] for j in range(m)})
        pf = evaluate(instance, spec).profit
        if best is None or pf > best:
            best = pf
    return best, count


@settings(max_examples=40, deadline=None)
@given(
    _one_buyer_instances().filter(lambda inst: not _is_additive(inst)),
    st.sampled_from(("ascending", "descending")),
)
def test_pp_oracle_table_matches_evaluate_per_grid_point(inst, order):
    # the oracle scores its permit grid from its own surplus table; one
    # evaluate call per grid point must give the same optimum on the same grid
    got = brute_posted_price_opt(inst, "PP", order=order)
    assert (got.value, got.enumerated) == _pp_by_evaluate(inst, order)


def test_single_choice_kinds_score_no_permits(canonical, monkeypatch):
    # CSIP and IP buyers have one stage-1 candidate, so evaluating them never
    # computes an expected utility; PP buyers do
    import permitlab.mechanisms as mech

    def refuse(*args):
        raise AssertionError("expected utility computed")

    monkeypatch.setattr(mech, "_expected_utility", refuse)
    inst = _multi_instance()
    evaluate(inst, construct_csip_from_copies(inst))
    evaluate(canonical, MechanismSpec("IP", {(0, 0, 0): Q(2), (0, 0, 1): Q(2)}))
    pp = MechanismSpec("PP", cost_prices(canonical), permit_prices={(0, 0): Q(1)})
    with pytest.raises(AssertionError, match="expected utility computed"):
        evaluate(canonical, pp)


def test_bad_hiding_probs_rejected(canonical):
    with pytest.raises(ValueError):
        MechanismSpec(
            "RSPP",
            cost_prices(canonical),
            permit_prices={(0, 0): Q(1)},
            hiding_probs={(0, 0, 0): Q(3, 2)},
        )


def test_no_profitable_stage_one_deviation():
    # replaying any other type's permit strategy never beats the own best
    # response (the evaluator's buyers are argmax players by construction)
    from permitlab.mechanisms import _expected_utility

    inst = _multi_instance()
    sol = solve_profit_lp(inst)
    exa = ex_ante(inst, sol.mechanism)
    ct = core_tail(inst, exa.beta)
    spec = construct_rspp_tau(inst, exa, ct.tau)
    decisions = evaluate(inst, spec).stage1
    states = [{inst.full_mask(): Q(1)} for _ in range(len(inst.costs))]
    avail = AvailabilityModel(inst, states, [[HALF, HALF]] * len(inst.costs))
    i = 0
    prices = [
        tuple(spec.price(i, j, c) for j in range(inst.m))
        for c in range(len(inst.costs))
    ]
    types = inst.buyer_types(i)
    assert len(decisions[i]) == len(types)
    for ti, t_i in enumerate(types):
        own_permits, own_pay = decisions[i][ti]
        own = _expected_utility(inst, i, t_i, own_permits, avail, prices) - own_pay
        for alt_permits, alt_pay in decisions[i]:
            dev = _expected_utility(inst, i, t_i, alt_permits, avail, prices) - alt_pay
            assert dev <= own


@settings(max_examples=80, deadline=None)
@given(
    inst_seed=st.integers(0, 10**6),
    n=st.sampled_from((1, 2)),
    picks=st.lists(st.integers(0, 3), min_size=8, max_size=8),
    unit_demand=st.booleans(),
)
def test_item_pricing_view_matches_evaluate_and_oracle(inst_seed, n, picks, unit_demand):
    # prices sit on support values, so zero-surplus ties are common, or at the
    # never-sell price; the item-pricing view of the shared second stage
    # must give evaluate's conditional profit per atom, and on one buyer so
    # must the oracle's own argmax scorer
    from permitlab.mechanisms import _ip_atom_profit
    from permitlab.oracles import _ip_profit_under_atom

    inst = random_instance(
        inst_seed, n_min=n, n_max=n, m_max=2, max_support=3, max_atoms=2
    )
    m, n_atoms = inst.m, len(inst.costs)
    picks = iter(picks)
    prices = {}
    for i in range(n):
        for j in range(m):
            support = inst.dists[i][j].support
            grid = support + (support[-1] + 1,)
            for c in range(n_atoms):
                prices[(i, j, c)] = grid[next(picks) % len(grid)]
    sub = None
    if unit_demand:
        ud = UnitDemandPairs(AuctionFeasibility(inst))
        sub = {c: ud for c in range(n_atoms)}
    spec = MechanismSpec("IP" if n == 1 else "CSIP", prices, sub_constraint=sub)
    res = evaluate(inst, spec)
    for c in range(n_atoms):
        vec = tuple(tuple(prices[(i, j, c)] for j in range(m)) for i in range(n))
        sub_fam = sub[c] if sub else None
        assert _ip_atom_profit(inst, vec, c, sub_fam) == res.atom_profit[c]
        if n == 1 and sub is None:
            got = _ip_profit_under_atom(inst, vec[0], inst.costs.vector(c))
            assert got == res.atom_profit[c]


# -- Monte-Carlo: the memoized sampler against the plain per-sample loop ------


def _scan_draw(rng, probs):
    x = rng.random()
    acc = 0.0
    for k, p in enumerate(probs):
        acc += p
        if x < acc:
            return k
    return len(probs) - 1


def _reference_mc(instance, spec, samples, seed):
    """The plain sampling loop: a linear scan per draw, Fraction prices and one
    bundle choice per buyer and sample. Stage-1 decisions and keep
    probabilities come from evaluate(), as they are exact."""
    from permitlab.mechanisms import _choose_bundle, _item_bits, _pairs_mask

    exact = evaluate(instance, spec)
    rng = random.Random(seed)
    n, m = instance.n, instance.m
    n_atoms = len(instance.costs)
    item_bits = [_item_bits(n, m, j) for j in range(m)]
    atom_probs = [float(instance.costs.prob(c)) for c in range(n_atoms)]
    type_tables = [[float(p) for p in instance.buyer_type_probs(i)] for i in range(n)]
    total = 0.0
    total_sq = 0.0
    for _ in range(samples):
        c_idx = _scan_draw(rng, atom_probs)
        cvec = instance.costs.vector(c_idx)
        t_idx = [_scan_draw(rng, type_tables[i]) for i in range(n)]
        sold = 0
        profit = 0.0
        for i in spec.buyer_order(n):
            t_i = instance.buyer_types(i)[t_idx[i]]
            permits, stage1_pay = exact.stage1[i][t_idx[i]]
            profit += float(stage1_pay)
            prices = tuple(spec.price(i, j, c_idx) for j in range(m))
            usable = 0
            for j in range(m):
                if not ((permits >> j) & 1) or (sold & item_bits[j]):
                    continue
                if t_i[j] > prices[j]:
                    elig = 1.0
                elif t_i[j] == prices[j]:
                    elig = float(spec.allow(i, j, c_idx))
                else:
                    continue
                u = float(exact.keep_probs[(i, j, c_idx)]) * elig
                if u > 0 and rng.random() < u:
                    usable |= 1 << j
            sub_fam = (
                spec.sub_constraint.get(c_idx)
                if spec.sub_constraint is not None
                else None
            )
            bundle, _ = _choose_bundle(instance, i, t_i, prices, usable, sold, sub_fam)
            t = bundle
            while t:
                j = (t & -t).bit_length() - 1
                profit += float(prices[j] - cvec[j])
                t &= t - 1
            sold |= _pairs_mask(i, m, bundle)
        total += profit
        total_sq += profit * profit
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return mean, 2.5758293035489004 * (var / samples) ** 0.5


def _sampled(instance, spec, samples, seed):
    res = monte_carlo_eval(instance, spec, samples=samples, seed=seed)
    assert res.samples == samples
    return res.estimate, res.half_width


def _six_kinds(canonical, two_iid_items):
    inst = _multi_instance()
    sol = solve_profit_lp(inst)
    exa = ex_ante(inst, sol.mechanism)
    ct = core_tail(inst, exa.beta)
    xi = rspp_tail_thresholds(inst, exa.beta, ct)
    csip = construct_csip_from_copies(inst)
    assert csip.kind == "CSIP" and csip.sub_constraint is not None
    tau = construct_rspp_tau(inst, exa, ct.tau)
    assert tau.hide_to_half
    spb = construct_spb_core(inst, exa, core_deltas(inst, exa.beta, ct))
    assert spb.kind == "SPB"
    one_pair = ExplicitPairFamily(2, 2, [0] + [1 << e for e in range(4)])
    tenth = {k: v + Q(1, 10) for k, v in cost_prices(two_iid_items).items()}
    return [
        ("IP", canonical, MechanismSpec("IP", {(0, 0, 0): Q(2), (0, 0, 1): Q(2)})),
        ("PP", two_iid_items, search_best(two_iid_items, "PP")[0]),
        # non-dyadic payments and gains, so a change of summation order shows
        (
            "PP",
            two_iid_items,
            MechanismSpec("PP", tenth, permit_prices={(0, 0): Q(2, 7), (0, 1): ZERO}),
        ),
        ("PB", two_iid_items, search_best(two_iid_items, "PB")[0]),
        ("CSIP", inst, csip),
        # at most one pair sold in all: the second buyer's choice depends on
        # what the first bought
        (
            "CSIP",
            inst,
            MechanismSpec(
                "CSIP",
                {k: v + Q(1, 3) for k, v in cost_prices(inst).items()},
                sub_constraint={c: one_pair for c in range(len(inst.costs))},
            ),
        ),
        ("RSPP", inst, tau),
        ("RSPP", inst, construct_rspp_tail(inst, exa, xi)),
        ("SPB", inst, spb),
    ]


def test_sampler_matches_reference_on_every_kind(canonical, two_iid_items):
    cases = _six_kinds(canonical, two_iid_items)
    assert {kind for kind, _, _ in cases} == {"IP", "PP", "PB", "CSIP", "RSPP", "SPB"}
    first = None
    for k, (kind, inst, spec) in enumerate(cases):
        assert spec.kind == kind
        _assert_plan_matches_evaluate(inst, spec)
        got = _sampled(inst, spec, 3_000, 100 + k)
        assert got == _reference_mc(inst, spec, 3_000, 100 + k), kind
        if first is None:
            first = got
        # one sample is its own mean: rounding a long run's total hides a
        # last-bit change in one sample's profit, this does not
        for seed in range(8):
            assert _sampled(inst, spec, 1, seed) == _reference_mc(inst, spec, 1, seed)
    # the first spec again, after others were sampled: no memo outlives a call
    _, inst, spec = cases[0]
    assert _sampled(inst, spec, 3_000, 100) == first
    for _, _, spec in cases:
        assert spec.hiding_probs == {}


@settings(max_examples=60, deadline=None)
@given(
    inst_seed=st.integers(0, 10**6),
    kind=st.sampled_from(("IP", "PP", "PB", "CSIP", "RSPP", "SPB")),
    markup=st.sampled_from((ZERO, Q(1, 3), Q(1), Q(2))),
    permit=st.sampled_from((ZERO, Q(1, 2), Q(2, 7), Q(5, 2))),
    coin=st.sampled_from((Q(1), HALF, Q(1, 3))),
    sub=st.sampled_from((None, "unit_demand", "one_pair")),
    samples=st.integers(1, 300),
    mc_seed=st.integers(0, 2**32),
)
def test_sampler_matches_reference_on_random_specs(
    inst_seed, kind, markup, permit, coin, sub, samples, mc_seed
):
    n = 1 if kind in ("IP", "PP", "PB") else 2
    inst = random_instance(
        inst_seed, n_min=n, n_max=n, m_max=2, max_support=2, max_atoms=2
    )
    cells = [
        (i, j, c) for i in range(n) for j in range(inst.m) for c in range(len(inst.costs))
    ]
    prices = {(i, j, c): inst.costs.vector(c)[j] + markup for i, j, c in cells}
    families = {
        None: None,
        "unit_demand": UnitDemandPairs(AuctionFeasibility(inst)),
        # what a later buyer may buy depends on the pairs sold before
        "one_pair": ExplicitPairFamily(n, inst.m, [0] + [1 << e for e in range(n * inst.m)]),
    }
    spec = MechanismSpec(
        kind,
        prices,
        tie_allow={cell: coin for cell in cells},
        permit_prices={(i, j): permit for i in range(n) for j in range(inst.m)},
        bundle_prices={i: permit for i in range(n)},
        sub_constraint=(
            {c: families[sub] for c in range(len(inst.costs))}
            if kind == "CSIP" and sub is not None
            else None
        ),
        hiding_probs={cell: coin for cell in cells} if kind == "RSPP" else {},
    )
    assert _sampled(inst, spec, samples, mc_seed) == _reference_mc(
        inst, spec, samples, mc_seed
    )


def _assert_plan_matches_evaluate(inst, spec):
    """The sampler's plan holds evaluate's stage-1 decisions and keep
    probabilities, and raises what evaluate raises."""
    try:
        full = evaluate(inst, spec)
    except ConstructionError as exc:
        with pytest.raises(ConstructionError, match=re.escape(str(exc))):
            evaluate(inst, spec, _plan=True)
        return
    plan = evaluate(inst, spec, _plan=True)
    assert plan.stage1 == full.stage1
    assert plan.keep_probs == full.keep_probs
    assert plan.profit is None


@settings(max_examples=80, deadline=None)
@given(
    inst_seed=st.integers(0, 10**6),
    kind=st.sampled_from(("IP", "PP", "PB", "CSIP", "RSPP", "SPB")),
    markup=st.sampled_from((ZERO, Q(1, 3), Q(1), Q(2))),
    permit=st.sampled_from((ZERO, Q(1, 2), Q(2, 7), Q(5, 2))),
    coin=st.sampled_from((Q(1), HALF, Q(1, 3))),
    hide_to_half=st.booleans(),
    order=st.sampled_from(((0, 1), (1, 0))),
    unpriced=st.sampled_from((None, 0, 1)),
)
def test_plan_matches_evaluate_on_random_specs(
    inst_seed, kind, markup, permit, coin, hide_to_half, order, unpriced
):
    # the plan skips a buyer's second stage unless a later buyer's stage 1
    # reads availability: SPB buyers and RSPP buyers with a priced permit
    # choose against it, and RSPP buyers under canonical hiding read it for
    # their keep probabilities even when no permit is priced (buyer unpriced)
    n = 1 if kind in ("IP", "PP", "PB") else 2
    inst = random_instance(
        inst_seed, n_min=n, n_max=n, m_max=2, max_support=2, max_atoms=2
    )
    cells = [
        (i, j, c) for i in range(n) for j in range(inst.m) for c in range(len(inst.costs))
    ]
    hide = kind == "RSPP" and hide_to_half
    spec = MechanismSpec(
        kind,
        {(i, j, c): inst.costs.vector(c)[j] + markup for i, j, c in cells},
        tie_allow={cell: coin for cell in cells},
        permit_prices={
            (i, j): None if i == unpriced else permit for i in range(n) for j in range(inst.m)
        },
        bundle_prices={i: permit for i in range(n)},
        order=order if n == 2 else None,
        hide_to_half=hide,
        hiding_probs={cell: coin for cell in cells} if kind == "RSPP" and not hide else {},
    )
    _assert_plan_matches_evaluate(inst, spec)


def test_sampler_raises_what_evaluate_raises():
    # canonical hiding: each buyer gets the one item with probability 1/2, so
    # the third finds it available with probability 0 < 1/2
    point = DiscreteDist((1,), (1,))
    inst = Instance(
        3, 1, ((point,),) * 3, CostModel((((0,), 1),)), (UniformMatroid(1, 1),) * 3
    )
    spec = MechanismSpec(
        "RSPP",
        cost_prices(inst),
        permit_prices={(i, 0): ZERO for i in range(3)},
        hide_to_half=True,
    )
    with pytest.raises(ConstructionError) as exact:
        evaluate(inst, spec)
    with pytest.raises(ConstructionError) as sampled:
        monte_carlo_eval(inst, spec, samples=10, seed=0)
    message = "item 0 available to buyer 2 with probability 0 < 1/2"
    assert str(sampled.value) == str(exact.value) == message


def test_draw_at_the_last_cumulative_sum_picks_the_last_index(monkeypatch):
    # ten probabilities of 1/10 add up in floats to 1 - 2**-53, a value
    # random() can return; a draw of it lies above no cumulative sum, so both
    # the atom and the type draw must fall back to the last index
    top = 1 - 2.0**-53
    tenth = (Q(1, 10),) * 10
    assert list(accumulate(map(float, tenth)))[-1] == top
    inst = Instance(
        1,
        1,
        ((DiscreteDist(tuple(range(1, 11)), tenth),),),
        CostModel(tuple(((Q(c, 8),), Q(1, 10)) for c in range(10))),
        (UniformMatroid(1, 1),),
    )
    spec = MechanismSpec("IP", {(0, 0, c): Q(10) for c in range(10)})

    class Stub:
        def __init__(self, seed):
            pass

        def random(self):
            return top

    monkeypatch.setattr(random, "Random", Stub)
    # only the top type buys at price 10, and the last atom costs 9/8
    assert _sampled(inst, spec, 1, 0) == _reference_mc(inst, spec, 1, 0) == (10 - 9 / 8, 0.0)
