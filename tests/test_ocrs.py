import json
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permitlab import suites
from permitlab.benchmark import ex_ante
from permitlab.lp import DirectMechanism, solve_profit_lp
from permitlab.mechanisms import ConstructionError, evaluate
from permitlab.model import (
    AuctionFeasibility,
    BasisMatroid,
    CostModel,
    DiscreteDist,
    ExplicitFamily,
    Instance,
    PartitionMatroid,
    UniformMatroid,
    UnitDemandPairs,
    popcount,
)
from permitlab.ocrs import (
    auction_ocrs,
    compose,
    greedy_replay_probabilities,
    in_scaled_polytope,
    matroid_ocrs,
    prophet_csip,
    selectability,
)
from permitlab.oracles import in_scaled_polytope_by_decomposition
from permitlab.rational import Q, ZERO, ONE, HALF
from permitlab.serialize import instance_from_dict

DATA = Path(__file__).parent / "data"


def test_single_element_never_blocked():
    o = matroid_ocrs(UniformMatroid(1, 1), HALF)
    rep = selectability(o, (HALF,))
    assert rep.per_element[0] == 1


def test_rank_one_pair():
    o = matroid_ocrs(UniformMatroid(2, 1), HALF)
    rep = selectability(o, (Q(1, 4), Q(1, 4)))
    assert rep.per_element == {0: Q(3, 4), 1: Q(3, 4)}
    assert rep.worst >= 1 - HALF


def test_partition_singletons_decompose():
    from permitlab.model import PartitionMatroid

    fam = PartitionMatroid(2, (0b01, 0b10), (1, 1))
    o = matroid_ocrs(fam, HALF)
    rep = selectability(o, (HALF, HALF))
    assert rep.per_element == {0: 1, 1: 1}  # independent single-item problems


def test_compose_constants():
    o1 = matroid_ocrs(UniformMatroid(2, 1), HALF)
    o2 = matroid_ocrs(UniformMatroid(2, 2), HALF)
    both = compose(o1, o2)
    assert both.constant == Q(1, 4)
    # intersecting with the free matroid leaves behavior unchanged
    y = (Q(1, 4), Q(1, 4))
    assert selectability(both, y).per_element == selectability(o1, y).per_element
    sub = both.subfamily(y)
    for mask in range(4):
        if sub.contains(mask):
            t = mask
            while t:
                assert sub.contains(mask & ~(t & -t))
                t &= t - 1


def test_explicit_matroid_gets_plain_greedy():
    fam = BasisMatroid(2, (0b01, 0b10))  # rank-1 as an explicit matroid
    o = matroid_ocrs(fam, HALF)
    assert o.constant == HALF
    rep = selectability(o, (Q(1, 4), Q(1, 4)))
    assert rep.per_element == {0: Q(3, 4), 1: Q(3, 4)}  # as for UniformMatroid(2, 1)


def test_membership_decomposition():
    inst = Instance(
        2,
        2,
        ((DiscreteDist((1,), (1,)),) * 2,) * 2,
        CostModel((((0, 0), 1),)),
        (UniformMatroid(2, 1), UniformMatroid(2, 1)),
    )
    feas = AuctionFeasibility(inst)
    assert in_scaled_polytope(feas, 4, (Q(1, 8),) * 4, HALF)
    assert not in_scaled_polytope(feas, 4, (HALF,) * 4, HALF)
    assert in_scaled_polytope(feas, 4, (ZERO,) * 4, HALF)


def test_replay_guarantee():
    inst = Instance(
        2,
        2,
        ((DiscreteDist((1,), (1,)),) * 2,) * 2,
        CostModel((((0, 0), 1),)),
        (UniformMatroid(2, 2), UniformMatroid(2, 2)),
    )
    ocrs = auction_ocrs(inst, HALF)
    y = (Q(1, 8),) * 4
    got = greedy_replay_probabilities(ocrs, y)
    for e, p in got.items():
        assert p >= ocrs.constant * y[e]


def _one_item_duel():
    d = DiscreteDist((1, 2), (Q(1, 2), Q(1, 2)))
    return Instance(
        2,
        1,
        ((d,), (d,)),
        CostModel((((0,), 1),)),
        (UniformMatroid(1, 1), UniformMatroid(1, 1)),
    )


def test_prophet_csip_zero_mechanism(canonical):
    exa = ex_ante(canonical, DirectMechanism.zero(canonical))
    spec, _ = prophet_csip(canonical, exa)
    assert evaluate(canonical, spec).profit == 0


def test_prophet_csip_bound():
    inst = _one_item_duel()
    sol = solve_profit_lp(inst)
    exa = ex_ante(inst, sol.mechanism)
    spec, ocrs = prophet_csip(inst, exa)
    res = evaluate(inst, spec)
    prophet = 2 * sum(
        (
            inst.costs.prob(c)
            * exa.q[(i, 0, c)]
            * (spec.price(i, 0, c) - inst.costs.vector(c)[0])
            for i in range(2)
            for c in range(len(inst.costs))
            if exa.beta.get(i, 0, c) >= inst.costs.vector(c)[0]
        ),
        ZERO,
    )
    assert prophet <= 8 * res.profit
    assert res.profit <= sol.objective


def _matroids(m):
    """Every matroid on m labelled elements, once each, given by its bases."""
    out = []
    for r in range(m + 1):
        sets = [s for s in range(1 << m) if popcount(s) == r]
        for k in range(1, len(sets) + 1):
            for bases in combinations(sets, k):
                try:
                    out.append(BasisMatroid(m, bases))
                except ValueError:  # violates the exchange axiom
                    pass
    return out


MATROIDS = {m: _matroids(m) for m in range(5)}


def test_every_matroid_on_at_most_three_elements_gets_plain_greedy():
    assert {m: len(fams) for m, fams in MATROIDS.items()} == {
        0: 1, 1: 2, 2: 5, 3: 16, 4: 68
    }
    for m in range(4):
        for fam in MATROIDS[m]:
            o = matroid_ocrs(fam, HALF)
            assert (o.constant, o.label) == (HALF, "plain-basis")
            assert o.subfamily((ZERO,) * m) is fam
    # on four elements the six rank-2 matroids with one parallel pair are
    # connected but not uniform, so no partition matroid has their members
    refused = []
    for fam in MATROIDS[4]:
        try:
            matroid_ocrs(fam, HALF)
        except ConstructionError:
            refused.append(fam.bases)
    assert len(refused) == 6
    assert all(len(bases) == 5 and popcount(bases[0]) == 2 for bases in refused)


@st.composite
def _matroid_family(draw, m):
    kind = draw(st.sampled_from(("uniform", "partition", "basis")))
    if kind == "uniform":
        return UniformMatroid(m, draw(st.integers(0, m)))
    if kind == "partition":
        labels = draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
        parts = [
            sum(1 << e for e in range(m) if labels[e] == k) for k in sorted(set(labels))
        ]
        caps = [draw(st.integers(0, popcount(p))) for p in parts]
        return PartitionMatroid(m, parts, caps)
    return draw(st.sampled_from(MATROIDS[m]))


@st.composite
def _membership_cases(draw):
    n = draw(st.sampled_from((1, 2)))
    m = draw(st.sampled_from((1, 2, 3)))
    point = DiscreteDist((1,), (1,))
    inst = Instance(
        n,
        m,
        ((point,) * m,) * n,
        CostModel((((0,) * m, 1),)),
        tuple(draw(_matroid_family(m)) for _ in range(n)),
    )
    shape = draw(st.sampled_from(("family", "auction", "composed")))
    if shape == "family":
        base, ground = inst.families[0], m
    elif shape == "auction":
        base, ground = AuctionFeasibility(inst), n * m
    else:
        base, ground = auction_ocrs(inst).base, n * m
    # the oracle enumerates supports, so the vector lives on at most 4 elements
    window = draw(st.permutations(range(ground)))[:4]
    inside = sum(1 << e for e in window)
    members = [a for a in range(1 << ground) if not a & ~inside and base.contains(a)]
    if draw(st.booleans()):  # maximal members only: the point sits on a face
        members = [a for a in members if not any(a != c and a & c == a for c in members)]
    picks = draw(st.lists(st.sampled_from(members), min_size=1, max_size=3))
    weights = draw(st.lists(st.integers(1, 4), min_size=len(picks), max_size=len(picks)))
    b = draw(st.sampled_from((HALF, Q(1, 3), ONE)))
    scale = draw(st.sampled_from((Q(9, 10), ONE, Q(1001, 1000), Q(11, 10))))
    total = sum(weights)
    y = [
        b * scale * sum(w for a, w in zip(picks, weights) if (a >> e) & 1) / total
        for e in range(ground)
    ]
    nudge = draw(st.sampled_from((ZERO, Q(1, 1000), Q(-1, 1000))))
    y[draw(st.sampled_from(window))] += nudge
    return base, ground, tuple(y), b


@settings(max_examples=150, deadline=None)
@given(_membership_cases())
def test_rank_membership_matches_decomposition(case):
    base, ground, y, b = case
    assert in_scaled_polytope(base, ground, y, b) == in_scaled_polytope_by_decomposition(
        base, ground, y, b
    )


@pytest.mark.parametrize("m", (1, 2, 3))
def test_vertices_are_on_the_boundary(m):
    # b times a maximal member is inside; a little more of it, or a little of
    # an element that cannot join it, is outside, by both tests
    for fam in MATROIDS[m]:
        for a in fam.members():
            if any(fam.contains(a | (1 << e)) for e in range(m) if not (a >> e) & 1):
                continue
            vertex = [HALF * ((a >> e) & 1) for e in range(m)]
            cases = [(vertex, True)]
            if a:
                cases.append(([v * Q(1001, 1000) for v in vertex], False))
            for e in range(m):
                if not (a >> e) & 1 and fam.contains(1 << e):
                    cases.append(([v + Q(1, 1000) * (f == e) for f, v in enumerate(vertex)], False))
            for y, inside in cases:
                assert in_scaled_polytope(fam, m, y, HALF) is inside
                assert in_scaled_polytope_by_decomposition(fam, m, y, HALF) is inside


def test_membership_refuses_what_edmonds_does_not_cover():
    o = matroid_ocrs(UniformMatroid(2, 1), HALF)
    three = compose(compose(o, o), o)
    with pytest.raises(ValueError, match="at most two matroids, not 3"):
        in_scaled_polytope(three.base, 2, (ZERO, ZERO), HALF)
    with pytest.raises(ValueError, match="at most two matroids, not 3"):
        selectability(three, (ZERO, ZERO))
    no_exchange = ExplicitFamily(3, (0b011, 0b001, 0b010, 0b100))  # {2} cannot grow toward {0, 1}
    assert not no_exchange.is_matroid
    with pytest.raises(ValueError, match="not a matroid"):
        in_scaled_polytope(no_exchange, 3, (ZERO,) * 3, HALF)
    point = DiscreteDist((1,), (1,))
    inst = Instance(
        2,
        3,
        ((point,) * 3,) * 2,
        CostModel((((0, 0, 0), 1),)),
        (no_exchange, UniformMatroid(3, 1)),
    )
    with pytest.raises(ValueError, match="not a matroid"):
        in_scaled_polytope(AuctionFeasibility(inst), 6, (ZERO,) * 6, HALF)
    with pytest.raises(ValueError, match="no known matroid factors"):
        in_scaled_polytope(UnitDemandPairs(AuctionFeasibility(inst)), 6, (ZERO,) * 6, HALF)


KNOWN_OVERCLAIMS = (
    "multi-seed6-0003",
    "multi-seed9-0027",
    "multi-seed1009005045-0016",
)


@pytest.mark.parametrize("name", KNOWN_OVERCLAIMS)
def test_basis_family_instances_check_clean(name):
    # build_corpus("multi", seed)'s instance k, on which the constant claimed
    # for basis families once exceeded the exact selectability at use
    inst = instance_from_dict(json.loads((DATA / f"{name}.json").read_text()))
    assert [f.kind for f in inst.families] == ["basis", "basis"]
    rep = suites.check_multi(inst)
    assert rep.failed == []
    assert "ocrs_selectability_at_use" in rep.passed


def test_selectability_detail_names_atom_pair_and_values(monkeypatch):
    real = suites.prophet_csip

    def overclaimed(instance, exa):
        spec, ocrs = real(instance, exa)
        ocrs.constant = Q(1, 2)
        return spec, ocrs

    monkeypatch.setattr(suites, "prophet_csip", overclaimed)
    inst = instance_from_dict(json.loads((DATA / f"{KNOWN_OVERCLAIMS[0]}.json").read_text()))
    failed = dict(suites.check_multi(inst).failed)
    assert failed["ocrs_selectability_at_use"] == (
        "atom 0, pair 0 (buyer 0, item 0): selectability 2809/8100 < claimed 1/2"
    )
