import gc
import weakref
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from permitlab.model import (
    BasisMatroid,
    CostModel,
    DiscreteDist,
    ExplicitFamily,
    Instance,
    PartitionMatroid,
    Thresholds,
    UniformMatroid,
    favorite_set,
    mu,
    stage2_utility,
    supporting_prices,
    surplus_table,
    value,
    vbar,
    vbar_single,
    verify_matroid,
)
from permitlab.rational import Q, ZERO


def make_single(dists, costs, family):
    return Instance(1, len(dists), (tuple(dists),), CostModel(costs), (family,))


def test_distribution_validation():
    with pytest.raises(ValueError):
        DiscreteDist((2, 1), (Q(1, 2), Q(1, 2)))  # not increasing
    with pytest.raises(ValueError):
        DiscreteDist((1, 2), (Q(1, 2), Q(1, 3)))  # does not sum to 1
    with pytest.raises(ValueError):
        DiscreteDist((1,), (Q(0),))  # zero mass


def test_cost_model_validation():
    with pytest.raises(ValueError):
        CostModel((((0,), Q(1, 2)), ((0,), Q(1, 2))))  # duplicate atoms
    with pytest.raises(ValueError):
        CostModel((((0, 1), Q(1, 2)), ((0,), Q(1, 2))))  # ragged vectors


def test_family_membership_and_matroids():
    u = UniformMatroid(3, 2)
    assert u.contains(0b011) and not u.contains(0b111)
    p = PartitionMatroid(3, (0b011, 0b100), (1, 1))
    assert p.contains(0b101) and not p.contains(0b011)
    b = BasisMatroid(2, (0b01, 0b10))
    assert b.contains(0b10) and not b.contains(0b11)
    with pytest.raises(ValueError):
        ExplicitFamily(2, (0b11,))  # not downward closed (missing singletons)
    assert verify_matroid(u) and verify_matroid(p) and verify_matroid(b)
    notm = ExplicitFamily(3, (0b011, 0b100, 0b001, 0b010, 0))
    assert not notm.is_matroid  # {1,2} and {3} violate exchange


def test_value_examples():
    inst = make_single(
        (DiscreteDist((1,), (1,)), DiscreteDist((2,), (1,))),
        (((0, 0), 1),),
        UniformMatroid(2, 2),
    )
    assert value(inst, 0, (Q(1), Q(2)), 0b11) == 3  # additive = sum
    assert value(inst, 0, (Q(1), Q(2)), 0) == 0  # empty set
    rank1 = make_single(
        (DiscreteDist((1,), (1,)), DiscreteDist((2,), (1,))),
        (((0, 0), 1),),
        UniformMatroid(2, 1),
    )
    assert value(rank1, 0, (Q(1), Q(2)), 0b11) == 2


def test_vbar_examples(canonical):
    assert vbar(canonical, 0, (Q(2),), 0b1) == Q(3, 2)
    assert vbar(canonical, 0, (Q(2),), 0) == 0
    ones = Thresholds((((Q(1), Q(1)),),))
    assert vbar(canonical, 0, (Q(2),), 0b1, ones) == 1


def test_vbar_single_examples(canonical):
    assert vbar_single(canonical, 0, 0, Q(2)) == Q(3, 2)
    assert vbar_single(canonical, 0, 0, Q(1)) == Q(1, 2)
    low = make_single(
        (DiscreteDist((1,), (1,)),), (((5,), 1),), UniformMatroid(1, 1)
    )
    assert vbar_single(low, 0, 0, Q(1)) == 0  # value below every cost


def test_vbar_single_matches_vbar_on_singletons(two_iid_items):
    for t in two_iid_items.buyer_types(0):
        for j in range(2):
            assert vbar_single(two_iid_items, 0, j, t[j]) == vbar(
                two_iid_items, 0, t, 1 << j
            )


def test_stage2_utility_examples():
    inst = make_single(
        (DiscreteDist((2,), (1,)), DiscreteDist((1,), (1,))),
        (((0, 0), 1),),
        UniformMatroid(2, 2),
    )
    assert stage2_utility(inst, 0, (Q(2), Q(1)), (Q(1), Q(3)), 0b11) == (1, 0b01)
    assert stage2_utility(inst, 0, (Q(2), Q(1)), (Q(1), Q(3)), 0) == (0, 0)
    rank1 = make_single(
        (DiscreteDist((2,), (1,)), DiscreteDist((3,), (1,))),
        (((0, 0), 1),),
        UniformMatroid(2, 1),
    )
    assert stage2_utility(rank1, 0, (Q(2), Q(3)), (ZERO, ZERO), 0b11) == (3, 0b10)


def test_stage2_tiebreak_smallest_mask():
    inst = make_single(
        (DiscreteDist((1,), (1,)), DiscreteDist((1,), (1,))),
        (((0, 0), 1),),
        UniformMatroid(2, 1),
    )
    # both singletons give surplus 1; the smaller bitmask wins
    assert stage2_utility(inst, 0, (Q(1), Q(1)), (ZERO, ZERO), 0b11)[1] == 0b01


def test_supporting_prices(two_iid_items):
    inst = make_single(
        (DiscreteDist((2,), (1,)), DiscreteDist((1,), (1,))),
        (((0, 0), 1),),
        UniformMatroid(2, 2),
    )
    assert supporting_prices(inst, 0, (Q(2), Q(1)), (Q(1), Q(3)), 0b11) == (1, 0)
    assert supporting_prices(inst, 0, (Q(2), Q(1)), (Q(1), Q(3)), 0) == (0, 0)
    # prices always sum to the stage-2 value
    for t in two_iid_items.buyer_types(0):
        for c_idx, (cvec, _) in enumerate(two_iid_items.costs.atoms):
            for avail in range(4):
                val, _ = stage2_utility(two_iid_items, 0, t, cvec, avail)
                assert sum(supporting_prices(two_iid_items, 0, t, cvec, avail), ZERO) == val


def test_mu_examples(canonical):
    assert mu(canonical, 0, (Q(2),), 0b1, None, Q(1)) == 0  # 3/2 > tau=1
    assert mu(canonical, 0, (Q(2),), 0b1, None, Q(2)) == vbar(canonical, 0, (Q(2),), 0b1)
    assert favorite_set(canonical, 0, (Q(2),), Q(0)) == 0


@st.composite
def small_instances(draw):
    m = draw(st.integers(1, 3))
    dists = []
    for _ in range(m):
        k = draw(st.integers(1, 2))
        vals = draw(
            st.lists(st.integers(0, 6), min_size=k, max_size=k, unique=True)
        )
        dists.append(DiscreteDist(tuple(sorted(vals)), (Q(1, k),) * k))
    n_atoms = draw(st.integers(1, 2))
    vecs = draw(
        st.lists(
            st.tuples(*(st.integers(0, 3) for _ in range(m))),
            min_size=n_atoms,
            max_size=n_atoms,
            unique=True,
        )
    )
    costs = CostModel(tuple((v, Q(1, n_atoms)) for v in vecs))
    rank = draw(st.integers(1, m))
    return Instance(1, m, (tuple(dists),), costs, (UniformMatroid(m, rank),))


@settings(max_examples=60, deadline=None)
@given(small_instances())
def test_vbar_monotone_and_subadditive(inst):
    full = inst.full_mask()
    for t in inst.buyer_types(0):
        vals = {s: vbar(inst, 0, t, s) for s in range(full + 1)}
        for u_set in range(full + 1):
            for v_set in range(full + 1):
                if u_set | v_set == v_set:
                    assert vals[u_set] <= vals[v_set]
                assert vals[u_set | v_set] <= vals[u_set] + vals[v_set]


@settings(max_examples=40, deadline=None)
@given(small_instances())
def test_greedy_matches_exhaustive_on_matroids(inst):
    fam = inst.families[0]
    for t in inst.buyer_types(0):
        for allowed in range(inst.full_mask() + 1):
            assert fam.max_weight_value(t, allowed) == fam.max_weight_set(t, allowed)[0]


def _scanned_table(inst, i, beta):
    """vbar of every (type, permit mask) of buyer i by a scan of all item sets
    through the family's membership test, with max(beta, cost) written out."""
    m = inst.m
    out = []
    for t in product(*(d.support for d in inst.dists[i])):
        row = []
        for pmask in range(1 << m):
            total = ZERO
            for c_idx, (cvec, pc) in enumerate(inst.costs.atoms):
                prices = [
                    max(cvec[j], ZERO if beta is None else beta.values[i][j][c_idx])
                    for j in range(m)
                ]
                best = ZERO
                for s in range(1 << m):
                    if s & ~pmask or not inst.families[i].contains(s):
                        continue
                    w = sum((t[j] - prices[j] for j in range(m) if (s >> j) & 1), ZERO)
                    best = max(best, w)
                total += pc * best
            row.append(total)
        out.append(tuple(row))
    return tuple(out)


def _nonmatroid_family(m):
    """Members {0, 1} and {2} with their subsets (m = 3): {2} cannot grow
    from the larger {0, 1}, so the exchange axiom fails."""
    return ExplicitFamily(m, (0b011, 0b001, 0b010, 0b100))


@st.composite
def table_cases(draw):
    n = draw(st.integers(1, 2))
    m = draw(st.integers(1, 3))
    dists = []
    for _ in range(n):
        row = []
        for _ in range(m):
            k = draw(st.integers(1, 2))
            vals = draw(st.lists(st.integers(0, 6), min_size=k, max_size=k, unique=True))
            row.append(DiscreteDist(tuple(sorted(vals)), (Q(1, k),) * k))
        dists.append(tuple(row))
    n_atoms = draw(st.integers(1, 2))
    vecs = draw(
        st.lists(
            st.tuples(*(st.integers(0, 3) for _ in range(m))),
            min_size=n_atoms, max_size=n_atoms, unique=True,
        )
    )
    costs = CostModel(tuple((v, Q(1, n_atoms)) for v in vecs))
    families = []
    for _ in range(n):
        kind = draw(st.sampled_from(("uniform", "nonmatroid", "explicit")))
        if kind == "uniform":
            families.append(UniformMatroid(m, draw(st.integers(0, m))))
        elif kind == "nonmatroid" and m == 3:
            families.append(_nonmatroid_family(m))
        else:
            top = draw(st.integers(0, (1 << m) - 1))
            families.append(ExplicitFamily(m, [s for s in range(1 << m) if s & ~top == 0]))
    inst = Instance(n, m, tuple(dists), costs, tuple(families))
    beta = None
    if draw(st.booleans()):
        beta = Thresholds(
            tuple(
                tuple(
                    tuple(Q(draw(st.integers(0, 6)), draw(st.integers(1, 2))) for _ in vecs)
                    for _ in range(m)
                )
                for _ in range(n)
            )
        )
    return inst, beta


@settings(max_examples=80, deadline=None)
@given(table_cases())
def test_surplus_table_matches_a_member_scan(case):
    inst, beta = case
    for i in range(inst.n):
        table = surplus_table(inst, i, beta)
        assert table == _scanned_table(inst, i, beta)
        assert surplus_table(inst, i, beta) is table  # built once, then read
        for k, t in enumerate(inst.buyer_types(i)):
            for pmask in range(inst.full_mask() + 1):
                assert vbar(inst, i, t, pmask, beta) == table[k][pmask]


def test_surplus_table_on_a_nonmatroid_family_with_thresholds():
    d = DiscreteDist((1, 3), (Q(1, 2), Q(1, 2)))
    costs = CostModel((((0, 1, 2), Q(1, 3)), ((1, 0, 0), Q(2, 3))))
    inst = Instance(1, 3, ((d, d, d),), costs, (_nonmatroid_family(3),))
    assert not inst.families[0].is_matroid
    beta = Thresholds(((((Q(2), Q(0)), (Q(1, 2), Q(5, 2)), (Q(0), Q(3))),)))
    for b in (None, beta, Thresholds.zero(inst)):
        assert surplus_table(inst, 0, b) == _scanned_table(inst, 0, b)
    # the full set is not a member; at type (3, 3, 3) the best member inside
    # it is {0, 1} on both atoms: weights (3, 2, 1) and (2, 3, 3) at cost, and
    # (1, 2, 1) and (2, 1/2, 0) at max(beta, cost); {2} alone earns less
    top = inst.buyer_types(0)[-1]
    assert vbar(inst, 0, top, 0b111) == 5
    assert vbar(inst, 0, top, 0b111, beta) == Q(1, 3) * 3 + Q(2, 3) * Q(5, 2)
    assert vbar(inst, 0, top, 0b100, beta) == Q(1, 3)
    assert vbar(inst, 0, top, 0b100) == Q(1, 3) + Q(2, 3) * 3


def test_vbar_of_a_vector_outside_the_support():
    # not a type of the buyer: computed afresh, and nothing is cached for it
    d = DiscreteDist((1, 2), (Q(1, 2), Q(1, 2)))
    inst = make_single((d,), (((0,), 1),), UniformMatroid(1, 1))
    assert vbar(inst, 0, (Q(7),), 0b1) == 7
    assert surplus_table(inst, 0) == ((ZERO, Q(1)), (ZERO, Q(2)))


def test_surplus_table_is_freed_with_its_instance():
    # the table lives in the instance's own cache: once the instance goes, the
    # thresholds keying its table go too, so no other cache holds the table
    d = DiscreteDist((1, 2), (Q(1, 2), Q(1, 2)))
    inst = make_single((d, d), (((0, 1), 1),), UniformMatroid(2, 1))
    beta = Thresholds(((((Q(1),), (Q(0),))),))
    assert surplus_table(inst, 0, beta)[-1][0b11] == 1
    refs = weakref.ref(inst), weakref.ref(beta)
    del inst, beta
    gc.collect()
    assert [r() for r in refs] == [None, None]
