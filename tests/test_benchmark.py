import pytest

from permitlab.benchmark import (
    benchmark_terms,
    core_concentration_check,
    core_deltas,
    core_tail,
    ex_ante,
    build_flow,
    lower_median,
    rspp_tail_thresholds,
    tail_prices,
)
from permitlab.lp import DirectMechanism, solve_profit_lp
from permitlab.model import (
    CostModel,
    DiscreteDist,
    Instance,
    Thresholds,
    UniformMatroid,
)
from permitlab.rational import Q, ZERO


def always_allocate(inst):
    alloc = {}
    for combo, _ in inst.profiles():
        for c_idx in range(len(inst.costs)):
            alloc[(combo, c_idx)] = ((1, Q(1)),)
    return DirectMechanism(inst, alloc, {})


def test_ex_ante_example():
    d = DiscreteDist((1, 2), (Q(1, 2), Q(1, 2)))
    inst = Instance(1, 1, ((d,),), CostModel((((0,), 1),)), (UniformMatroid(1, 1),))
    exa = ex_ante(inst, always_allocate(inst))
    assert exa.q[(0, 0, 0)] == Q(1, 2)
    assert exa.beta.get(0, 0, 0) == 2
    assert exa.rho[(0, 0, 0)] == 1


def test_ex_ante_zero_mechanism(canonical):
    exa = ex_ante(canonical, DirectMechanism.zero(canonical))
    assert exa.q[(0, 0, 0)] == 0
    assert exa.sale_probability(0, 0, 0) == 0
    assert exa.rho[(0, 0, 0)] == 0


def test_ex_ante_first_clause():
    # q at least the full sale probability: threshold collapses to zero
    d = DiscreteDist((1, 2), (Q(1, 2), Q(1, 2)))
    inst = Instance(1, 1, ((d,),), CostModel((((3,), 1),)), (UniformMatroid(1, 1),))
    exa = ex_ante(inst, always_allocate(inst))
    assert exa.beta.get(0, 0, 0) == 0
    assert exa.sale_probability(0, 0, 0) == 0  # nobody clears the cost


def test_build_flow_single_item(canonical):
    flow = build_flow(canonical, Thresholds.zero(canonical))
    assert all(j == 0 for j in flow.labels.values())
    # ironed virtual values on the labeled coordinate
    assert flow.phi[(0, 0)][0] == 0 and flow.phi[(0, 1)][0] == 2


def test_build_flow_tie_to_first_index(two_iid_items):
    flow = build_flow(two_iid_items, Thresholds.zero(two_iid_items))
    types = two_iid_items.buyer_types(0)
    for idx, t in enumerate(types):
        if t[0] == t[1]:
            assert flow.labels[(0, idx)] == 0  # equal surpluses: smallest index
    # symmetry under the item swap, up to ties landing on index 0
    for idx, t in enumerate(types):
        swapped = types.index((t[1], t[0]))
        lj, ls = flow.labels[(0, idx)], flow.labels[(0, swapped)]
        if t[0] != t[1]:
            assert lj == 1 - ls


def test_core_tail_example(two_iid_items):
    ct = core_tail(two_iid_items, Thresholds.zero(two_iid_items))
    assert ct.tau == (Q(3, 2),)
    assert ct.tail == 0
    assert ct.core == 2
    assert ct.less_surplus <= ct.tail + ct.core


def test_core_tail_single_item(canonical):
    ct = core_tail(canonical, Thresholds.zero(canonical))
    assert ct.tail == 0  # no rival item can beat the favorite


def test_tail_prices_example(two_iid_items):
    zero = Thresholds.zero(two_iid_items)
    ct = core_tail(two_iid_items, zero)
    tp = tail_prices(two_iid_items, zero, ct)
    assert tp.xi[(0, 0)] == Q(3, 2) and tp.r[(0, 0)] == Q(3, 4)
    xi = rspp_tail_thresholds(two_iid_items, zero, ct)
    # the at-tau argmaxes put total willingness 1 > 1/2, so the construction
    # thresholds move strictly above tau, where nothing remains
    assert xi[(0, 0)] is None and xi[(0, 1)] is None
    # surplus 1 or 2: both prices earn 1, and the tie goes to the smaller;
    # its willingness 1 > 1/2 moves the construction strictly above tau = 1
    d = DiscreteDist((1, 2), (Q(1, 2), Q(1, 2)))
    one = Instance(1, 1, ((d,),), CostModel((((0,), 1),)), (UniformMatroid(1, 1),))
    zero = Thresholds.zero(one)
    ct = core_tail(one, zero)
    assert ct.tau == (1,)
    assert tail_prices(one, zero, ct).xi == {(0, 0): 1}
    assert rspp_tail_thresholds(one, zero, ct) == {(0, 0): 2}


def test_lower_median():
    assert lower_median([(Q(1, 2), Q(1, 2)), (Q(3, 2), Q(1, 2))]) == Q(1, 2)
    assert lower_median([(Q(5), Q(1))]) == 5
    assert lower_median([(Q(1), Q(1, 4)), (Q(2), Q(3, 4))]) == 2


def test_core_deltas_median_example(two_iid_items):
    zero = Thresholds.zero(two_iid_items)
    ct = core_tail(two_iid_items, zero)
    # C(t) is the full set here, so the truncated surplus is v(t, full)
    deltas = core_deltas(two_iid_items, zero, ct)
    assert deltas[0] == Q(1, 2) * lower_median(
        [
            (Q(1), Q(1, 4)),  # (1,1): 1/2 + 1/2
            (Q(2), Q(1, 2)),  # (1,2) and (2,1)
            (Q(3), Q(1, 4)),  # (2,2)
        ]
    )


def test_concentration_check(two_iid_items):
    zero = Thresholds.zero(two_iid_items)
    ct = core_tail(two_iid_items, zero)
    deltas = core_deltas(two_iid_items, zero, ct)
    rows = core_concentration_check(two_iid_items, zero, ct, deltas)
    assert all(r["holds"] for r in rows)
    assert tuple(r["delta"] for r in rows) == deltas


def test_benchmark_terms_cover_profit(canonical):
    sol = solve_profit_lp(canonical)
    rep = benchmark_terms(canonical, sol.mechanism)
    assert sol.objective <= rep.total
    assert rep.prophet >= 0 and rep.less_surplus >= 0


def test_per_item_halved_supply():
    # two buyers contending for one item: q sums to at most 1/2 per item
    d = DiscreteDist((1, 2), (Q(1, 2), Q(1, 2)))
    inst = Instance(
        2,
        1,
        ((d,), (d,)),
        CostModel((((0,), 1),)),
        (UniformMatroid(1, 1), UniformMatroid(1, 1)),
    )
    sol = solve_profit_lp(inst)
    exa = ex_ante(inst, sol.mechanism)
    assert exa.q[(0, 0, 0)] + exa.q[(1, 0, 0)] <= Q(1, 2)


def test_benchmark_zero_mechanism(canonical):
    rep = benchmark_terms(canonical, DirectMechanism.zero(canonical))
    assert rep.most_surplus == 0 and rep.prophet == 0 and rep.less_surplus == 0


def test_prophet_vanishes_at_zero_thresholds(canonical):
    # with all thresholds at zero the prophet prices collapse onto the costs
    sol = solve_profit_lp(canonical)
    exa = ex_ante(canonical, sol.mechanism)
    zero = Thresholds.zero(canonical)
    term = ZERO
    for (i, j, c_idx), qv in exa.q.items():
        c_j = canonical.costs.vector(c_idx)[j]
        price = max(zero.get(i, j, c_idx), c_j)
        term += 2 * canonical.costs.prob(c_idx) * qv * (price - c_j)
    assert term == 0
