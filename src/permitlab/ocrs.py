"""Greedy online contention resolution for the auction's pair constraint.

The joint constraint is the intersection of two matroids over buyer-item
pairs: the item-capacity partition matroid (each item to at most one buyer)
and the direct sum of the buyers' feasibility matroids. Plain greedy is
(b, 1-b)-selectable on a direct sum of uniform matroids, that is a partition
matroid. Uniform and partition families are one by construction; any other
matroid is recognised as one by brute force over the set partitions of its
ground set, or refused. Intersections multiply the constants.

Membership of an activity vector in b * conv(F) follows Edmonds' matroid
intersection theorem (1970): conv(I1 & I2) = P(M1) & P(M2), so y is inside
exactly when y >= 0 and y(S) <= b * r_k(S) for each matroid factor M_k and
each set S. ``oracles.in_scaled_polytope_by_decomposition`` answers the same
question by Caratheodory enumeration and is the tests' independent
cross-check. Selectability and greedy replays are exact enumerations at desk
scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .benchmark import ExAnte
from .mechanisms import ConstructionError, MechanismSpec
from .model import (
    AuctionFeasibility,
    FeasibilityFamily,
    Instance,
    PartitionMatroid,
    UniformMatroid,
    popcount,
)
from .rational import Q, ZERO, ONE, HALF


@dataclass(eq=False)
class GreedyOCRS:
    """A greedy scheme: for each activity vector it restricts the ground
    family to a downward-closed subfamily and selects greedily inside it."""

    ground: int  # number of elements
    base: object  # family over element bitmasks; membership reads its matroid factors
    rule: object  # callable y -> subfamily object with .contains(mask)
    b: Q
    constant: Q  # certified selectability constant at this b
    label: str = ""

    def subfamily(self, y):
        sub = self.rule(y)
        if not _downward_closed(self.ground, sub):
            raise AssertionError("OCRS subfamily is not downward-closed")
        return sub


def _downward_closed(ground: int, fam) -> bool:
    for mask in range(1 << ground):
        if fam.contains(mask):
            t = mask
            while t:
                if not fam.contains(mask & ~(t & -t)):
                    return False
                t &= t - 1
    return True


@dataclass(eq=False)
class SelectabilityReport:
    per_element: dict  # element -> exact probability of the universal event
    worst: Q
    y: tuple
    exact: bool = True


def selectability(ocrs: GreedyOCRS, y) -> SelectabilityReport:
    """Exact per-element selectability at activity vector y, by enumeration of
    all activity patterns and the universal quantifier over feasible subsets."""
    ground = ocrs.ground
    if ground > 12:
        raise ValueError("exact selectability enumeration is limited to 12 elements")
    y = tuple(Q(v) for v in y)
    if not in_scaled_polytope(ocrs.base, ground, y, ocrs.b):
        raise ValueError("activity vector lies outside the scaled polytope")
    sub = ocrs.subfamily(y)
    sub_members = [a for a in range(1 << ground) if sub.contains(a)]
    per = {}
    for e in range(ground):
        if y[e] == 0:
            continue
        good = ZERO
        for active in range(1 << ground):
            w = ONE
            for f in range(ground):
                w *= y[f] if (active >> f) & 1 else 1 - y[f]
            if w == 0:
                continue
            ok = True
            for a in sub_members:
                if a & ~active:
                    continue
                if not sub.contains(a | (1 << e)):
                    ok = False
                    break
            if ok:
                good += w
        per[e] = good
    worst = min(per.values()) if per else ONE
    return SelectabilityReport(per, worst, y)


def greedy_replay_probabilities(ocrs: GreedyOCRS, y):
    """Selection probability of each element under greedy execution, minimized
    over every arrival order (exhaustive; ground size at most 6)."""
    ground = ocrs.ground
    if ground > 6:
        raise ValueError("order enumeration is limited to 6 elements")
    y = tuple(Q(v) for v in y)
    sub = ocrs.subfamily(y)
    worst = {e: None for e in range(ground) if y[e] > 0}
    for order in permutations(range(ground)):
        got = {e: ZERO for e in worst}
        for active in range(1 << ground):
            w = ONE
            for f in range(ground):
                w *= y[f] if (active >> f) & 1 else 1 - y[f]
            if w == 0:
                continue
            sel = 0
            for e in order:
                if (active >> e) & 1 and sub.contains(sel | (1 << e)):
                    sel |= 1 << e
            for e in worst:
                if (sel >> e) & 1:
                    got[e] += w
        for e in worst:
            if worst[e] is None or got[e] < worst[e]:
                worst[e] = got[e]
    return worst


def in_scaled_polytope(base, ground: int, y, b) -> bool:
    """Test y in b * conv{indicators of members of base} by the rank
    inequalities of base's matroid factors: y >= 0 and y(S) <= b * r_k(S).

    Exact for one matroid and, by Edmonds' intersection theorem, for two;
    three or more factors, or a factor that is not a matroid, raise
    ValueError.
    """
    factors = _matroid_factors(base)
    if len(factors) > 2:
        raise ValueError(
            f"rank inequalities decide membership for at most two matroids, not {len(factors)}"
        )
    blocks = [block for factor in factors for block in _blocks(factor, ground)]
    y = tuple(Q(v) for v in y)
    if any(v < 0 for v in y):
        return False
    b = Q(b)
    for positions, family in blocks:
        sums = [ZERO]  # sums[S] = y(S) over the block's positions, S a local mask
        for e in positions:
            sums += [s + y[e] for s in sums]
        for s, r in zip(sums, _rank_table(family, len(positions))):
            if s > b * r:
                return False
    return True


def _matroid_factors(base) -> tuple:
    """The families whose intersection is base: an auction constraint is the
    item-capacity matroid and the buyers' direct sum; a composed base keeps
    its factors; anything else is its own single factor."""
    if isinstance(base, AuctionFeasibility):
        return (_ItemCapacityPairs(base.n, base.m), _BuyerProductPairs(base.instance))
    return getattr(base, "factors", (base,))


def _blocks(factor, ground: int) -> tuple:
    """A factor as a direct sum of matroids: (positions, family) pairs, where
    family's local element k is ground element positions[k]."""
    blocks = getattr(factor, "blocks", None)
    if blocks is None:
        if not isinstance(factor, FeasibilityFamily):
            raise ValueError(f"{type(factor).__name__} has no known matroid factors")
        blocks = ((tuple(range(ground)), factor),)
    for _, family in blocks:
        if not family.is_matroid:
            raise ValueError(f"a {family.kind} factor is not a matroid")
    return blocks


def _rank_table(family, size: int) -> list:
    """r(S) for every local mask S over size elements: |S| when S is a member,
    else the largest rank of S minus one element."""
    rank = [0] * (1 << size)
    for s in range(1, 1 << size):
        if family.contains(s):
            rank[s] = popcount(s)
            continue
        t = s
        while t:
            low = t & -t
            rank[s] = max(rank[s], rank[s ^ low])
            t ^= low
    return rank


# -- Constructors ---------------------------------------------------------------


def matroid_ocrs(family, b, ground: int = None) -> GreedyOCRS:
    """Plain greedy OCRS for one matroid, (b, 1-b)-selectable on a direct sum
    of uniform matroids. Uniform and partition kinds are one by construction;
    any other matroid must be recognised as one, or ConstructionError is
    raised rather than an unproven constant claimed."""
    b = Q(b)
    if not 0 < b < 1:
        raise ValueError("b must lie strictly between 0 and 1")
    ground = ground if ground is not None else family.m
    kind = getattr(family, "kind", None)
    if kind not in ("uniform", "partition"):
        if not getattr(family, "is_matroid", False):
            raise ValueError("matroid_ocrs needs a matroid family")
        if not _is_partition_matroid(family):
            raise ConstructionError(
                f"{kind} matroid {family.describe()} is not a direct sum of uniform "
                "matroids; plain greedy has no proven constant on it"
            )
    return GreedyOCRS(
        ground, family, lambda y: family, b, 1 - b, label=f"plain-{kind}"
    )


def _is_partition_matroid(family) -> bool:
    """Whether some partition matroid has exactly family's members: brute
    force over the set partitions of the ground set, each part capped at the
    family's rank on it."""
    if family.m > 6:
        raise ValueError("partition recognition is limited to 6 elements")
    members = family.members()
    return any(
        PartitionMatroid(
            family.m, parts, [max(popcount(a & p) for a in members) for p in parts]
        ).members()
        == members
        for parts in _set_partitions(family.m)
    )


def _set_partitions(m: int):
    """Every partition of range(m) into non-empty blocks, as bitmask tuples."""
    if m == 0:
        yield ()
        return
    bit = 1 << (m - 1)
    for rest in _set_partitions(m - 1):
        yield rest + (bit,)
        for k in range(len(rest)):
            yield rest[:k] + (rest[k] | bit,) + rest[k + 1 :]


class _Intersection:
    """Sets in every factor family. A composed scheme's base keeps its
    factors, so membership reads their rank inequalities."""

    def __init__(self, *factors):
        self.factors = factors

    def contains(self, mask):
        for f in self.factors:
            if not f.contains(mask):
                return False
        return True


def compose(o1: GreedyOCRS, o2: GreedyOCRS) -> GreedyOCRS:
    """Intersection scheme: joint subfamily is the intersection, the certified
    constant is the product of the parts."""
    if o1.ground != o2.ground or o1.b != o2.b:
        raise ValueError("composed schemes need a common ground set and b")
    return GreedyOCRS(
        o1.ground,
        _Intersection(*_matroid_factors(o1.base), *_matroid_factors(o2.base)),
        lambda y: _Intersection(o1.rule(y), o2.rule(y)),
        o1.b,
        o1.constant * o2.constant,
        label=f"({o1.label}) ^ ({o2.label})",
    )


class _ItemCapacityPairs:
    """Pair sets using each item at most once: a partition matroid over pairs,
    the direct sum over items of a rank-one uniform matroid on its buyers."""

    kind = "partition"

    def __init__(self, n: int, m: int):
        self.n, self.m = n, m
        self.blocks = tuple(
            (tuple(i * m + j for i in range(n)), UniformMatroid(n, 1))
            for j in range(m)
        )

    def contains(self, mask):
        for j in range(self.m):
            bits = 0
            for i in range(self.n):
                if (mask >> (i * self.m + j)) & 1:
                    bits += 1
            if bits > 1:
                return False
        return mask < 1 << (self.n * self.m)


class _BuyerProductPairs:
    """Pair sets whose per-buyer slices are feasible: the direct sum of the
    buyers' families over disjoint pair blocks."""

    def __init__(self, instance: Instance):
        self.instance = instance
        self.n, self.m = instance.n, instance.m
        self.blocks = tuple(
            (tuple(i * self.m + j for j in range(self.m)), family)
            for i, family in enumerate(instance.families)
        )

    def contains(self, mask):
        if mask >= 1 << (self.n * self.m):
            return False
        for i in range(self.n):
            part = (mask >> (i * self.m)) & ((1 << self.m) - 1)
            if not self.instance.families[i].contains(part):
                return False
        return True


def auction_ocrs(instance: Instance, b=HALF) -> GreedyOCRS:
    """Composed greedy OCRS for the full auction constraint: plain greedy on
    the item-capacity matroid and on the direct sum of the buyers' matroids,
    whose constant is the least of the buyers' (see matroid_ocrs)."""
    ground = instance.n * instance.m
    b = Q(b)
    caps = _ItemCapacityPairs(instance.n, instance.m)
    buyers = _BuyerProductPairs(instance)
    return compose(
        GreedyOCRS(ground, caps, lambda y: caps, b, 1 - b, label="item-capacity"),
        GreedyOCRS(
            ground,
            buyers,
            lambda y: buyers,
            b,
            min(matroid_ocrs(f, b).constant for f in instance.families),
            label="buyer-families",
        ),
    )


class _Excluding:
    """A subfamily that never serves the excluded pairs."""

    def __init__(self, inner, excluded: int):
        self.inner, self.excluded = inner, excluded

    def contains(self, mask):
        return not mask & self.excluded and self.inner.contains(mask)


def prophet_csip(instance: Instance, exa: ExAnte, b=HALF):
    """Cost-thresholded item prices with the composed OCRS subfamily as the
    sub-constraint, per cost atom; pairs whose threshold sits below the cost
    are never served. Activity (price eligibility) is exactly q via rationing."""
    n, m = instance.n, instance.m
    ocrs = auction_ocrs(instance, b)
    feas = AuctionFeasibility(instance)
    prices, allow = {}, {}
    sub = {}
    for c_idx in range(len(instance.costs)):
        cvec = instance.costs.vector(c_idx)
        y = []
        excluded = 0
        for i in range(n):
            for j in range(m):
                qv = exa.q[(i, j, c_idx)]
                bta = exa.beta.get(i, j, c_idx)
                prices[(i, j, c_idx)] = bta if bta > cvec[j] else cvec[j]
                allow[(i, j, c_idx)] = exa.rho[(i, j, c_idx)]
                if bta < cvec[j]:
                    excluded |= 1 << (i * m + j)
                    y.append(ZERO)
                else:
                    y.append(qv)
        if not in_scaled_polytope(feas, n * m, y, Q(b)):
            raise ConstructionError(
                f"halved sale probabilities under atom {c_idx} leave the scaled polytope"
            )
        sub[c_idx] = _Excluding(ocrs.subfamily(tuple(y)), excluded)
    spec = MechanismSpec(
        "CSIP" if n > 1 else "IP",
        prices,
        tie_allow=allow,
        sub_constraint=sub,
        order=tuple(range(n)),
        note=f"prophet prices, selectability {ocrs.constant}",
    )
    return spec, ocrs
