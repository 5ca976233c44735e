"""Greedy online contention resolution for the auction's pair constraint.

The joint constraint is the intersection of an item-capacity partition
matroid (each item to at most one buyer) and the direct sum of the buyers'
feasibility matroids. Plain greedy is (b, 1-b)-selectable on uniform and
partition matroids; explicit matroids fall back to a searched cardinality
truncation with an exactly measured constant; intersections multiply the
constants. Everything here is verified by exact enumeration at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

from .benchmark import ExAnte
from .mechanisms import ConstructionError, MechanismSpec
from .model import AuctionFeasibility, Instance, popcount
from .rational import Q, ZERO, ONE, HALF


@dataclass(eq=False)
class GreedyOCRS:
    """A greedy scheme: for each activity vector it restricts the ground
    family to a downward-closed subfamily and selects greedily inside it."""

    ground: int  # number of elements
    base: object  # object with .contains(mask) over element bitmasks
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


class _TruncatedFamily:
    def __init__(self, base, limit):
        self.base = base
        self.limit = limit

    def contains(self, mask):
        return popcount(mask) <= self.limit and self.base.contains(mask)


@dataclass(eq=False)
class SelectabilityReport:
    per_element: dict  # element -> exact probability of the universal event
    worst: Q
    y: tuple
    exact: bool = True


def selectability(ocrs: GreedyOCRS, y, check_membership: bool = True) -> SelectabilityReport:
    """Exact per-element selectability at activity vector y, by enumeration of
    all activity patterns and the universal quantifier over feasible subsets."""
    ground = ocrs.ground
    if ground > 12:
        raise ValueError("exact selectability enumeration is limited to 12 elements")
    y = tuple(Q(v) for v in y)
    if check_membership and not in_scaled_polytope(ocrs.base, ground, y, ocrs.b):
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
    """Test y in b * conv{indicators of members} by exhaustive exact convex
    decomposition over member indicator vertices (no LP).

    Caratheodory: membership implies a decomposition over affinely independent
    vertices, whose coefficients solve a square-rank affine system uniquely;
    enumerating support subsets of size at most ground+1 is therefore complete.
    """
    if b == 0:
        return all(v == 0 for v in y)
    target = tuple(Q(v) / Q(b) for v in y)
    if any(v < 0 for v in target):
        return False
    support = 0
    for e in range(ground):
        if target[e] > 0:
            support |= 1 << e
    members = [
        a
        for a in range(1 << ground)
        if not (a & ~support) and base.contains(a)
    ]
    if ground > 8:
        raise ValueError("decomposition search is limited to 8 elements")
    dim = ground + 1  # affine coordinate appended
    rhs = list(target) + [Q(1)]
    cols = [[Q((a >> e) & 1) for e in range(ground)] + [Q(1)] for a in members]
    for size in range(1, min(len(members), dim) + 1):
        for idx in combinations(range(len(members)), size):
            theta = _solve_unique([cols[k] for k in idx], rhs)
            if theta is not None and all(t >= 0 for t in theta):
                return True
    return False


def _solve_unique(columns, rhs):
    """Solve sum_k theta_k * columns[k] = rhs exactly. Returns the solution when
    the columns have full rank and the system is consistent, else None."""
    rows = len(rhs)
    k = len(columns)
    aug = [[columns[c][r] for c in range(k)] + [rhs[r]] for r in range(rows)]
    piv_rows = []
    r = 0
    for c in range(k):
        sel = next((i for i in range(r, rows) if aug[i][c] != 0), None)
        if sel is None:
            return None  # rank-deficient; covered by a smaller support subset
        aug[r], aug[sel] = aug[sel], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        piv_rows.append(r)
        r += 1
    for i in range(r, rows):
        if aug[i][k] != 0:
            return None  # inconsistent
    return [aug[i][k] for i in range(k)]


# -- Constructors ---------------------------------------------------------------


def matroid_ocrs(family, b, ground: int = None) -> GreedyOCRS:
    """Greedy OCRS for one matroid. Uniform and partition kinds use the family
    itself (plain greedy), which is (b, 1-b)-selectable; explicit matroids get
    a searched cardinality truncation with an exactly certified constant."""
    b = Q(b)
    if not 0 < b < 1:
        raise ValueError("b must lie strictly between 0 and 1")
    ground = ground if ground is not None else family.m
    kind = getattr(family, "kind", None)
    if kind in ("uniform", "partition"):
        return GreedyOCRS(
            ground, family, lambda y: family, b, 1 - b, label=f"plain-{kind}"
        )
    if not getattr(family, "is_matroid", False):
        raise ValueError("matroid_ocrs needs a matroid family")
    rank = max(popcount(s) for s in family.members())
    best = None
    for limit in range(rank, 0, -1):
        sub = _TruncatedFamily(family, limit)
        worst = _probe_selectability(family, sub, ground, b)
        if best is None or worst > best[1]:
            best = (limit, worst)
        if worst >= 1 - b:
            break
    limit, worst = best
    return GreedyOCRS(
        ground,
        family,
        lambda y, lim=limit: _TruncatedFamily(family, lim),
        b,
        worst,
        label=f"truncated<= {limit}",
    )


def _probe_selectability(base, sub, ground: int, b) -> Q:
    """Worst exact selectability over the vertices of the scaled polytope and
    the uniform mixture of all maximal members."""
    probes = []
    members = [a for a in range(1 << ground) if base.contains(a)]
    maximal = [
        a
        for a in members
        if not any(x != a and x & a == a for x in members)
    ]
    for a in maximal:
        probes.append(tuple(b if (a >> e) & 1 else ZERO for e in range(ground)))
    if maximal:
        k = Q(1, len(maximal))
        probes.append(
            tuple(
                b * k * sum(1 for a in maximal if (a >> e) & 1)
                for e in range(ground)
            )
        )
    worst = ONE
    shim = GreedyOCRS(ground, base, lambda y: sub, b, ZERO)
    for y in probes:
        rep = selectability(shim, y, check_membership=False)
        if rep.per_element:
            worst = min(worst, rep.worst)
    return worst


def compose(o1: GreedyOCRS, o2: GreedyOCRS) -> GreedyOCRS:
    """Intersection scheme: joint subfamily is the intersection, the certified
    constant is the product of the parts."""
    if o1.ground != o2.ground or o1.b != o2.b:
        raise ValueError("composed schemes need a common ground set and b")

    class _Base:
        @staticmethod
        def contains(mask):
            return o1.base.contains(mask) and o2.base.contains(mask)

    def rule(y):
        s1, s2 = o1.rule(y), o2.rule(y)

        class _Sub:
            @staticmethod
            def contains(mask):
                return s1.contains(mask) and s2.contains(mask)

        return _Sub()

    return GreedyOCRS(
        o1.ground,
        _Base(),
        rule,
        o1.b,
        o1.constant * o2.constant,
        label=f"({o1.label}) ^ ({o2.label})",
    )


class _ItemCapacityPairs:
    """Pair sets using each item at most once: a partition matroid over pairs."""

    kind = "partition"

    def __init__(self, n: int, m: int):
        self.n, self.m = n, m

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

    def contains(self, mask):
        if mask >= 1 << (self.n * self.m):
            return False
        for i in range(self.n):
            part = (mask >> (i * self.m)) & ((1 << self.m) - 1)
            if not self.instance.families[i].contains(part):
                return False
        return True


def auction_ocrs(instance: Instance, b=HALF) -> GreedyOCRS:
    """Composed greedy OCRS for the full auction constraint."""
    n, m = instance.n, instance.m
    ground = n * m
    o1 = GreedyOCRS(
        ground,
        _ItemCapacityPairs(n, m),
        lambda y, f=_ItemCapacityPairs(n, m): f,
        Q(b),
        1 - Q(b),
        label="item-capacity",
    )
    buyer_fam = _BuyerProductPairs(instance)
    simple = all(f.kind in ("uniform", "partition") for f in instance.families)
    if simple:
        o2 = GreedyOCRS(
            ground, buyer_fam, lambda y, f=buyer_fam: f, Q(b), 1 - Q(b),
            label="buyer-families",
        )
    else:
        comps = [
            matroid_ocrs(instance.families[i], b, ground=instance.m)
            for i in range(n)
        ]

        def rule(y, comps=comps, n=n, m=m):
            subs = [c.rule(None) for c in comps]

            class _Sub:
                @staticmethod
                def contains(mask):
                    for i in range(n):
                        part = (mask >> (i * m)) & ((1 << m) - 1)
                        if not subs[i].contains(part):
                            return False
                    return mask < 1 << (n * m)

            return _Sub()

        o2 = GreedyOCRS(
            ground,
            buyer_fam,
            rule,
            Q(b),
            min(c.constant for c in comps),
            label="buyer-families-truncated",
        )
    return compose(o1, o2)


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
        inner = ocrs.subfamily(tuple(y))

        class _Sub:
            def __init__(self, inner, excluded, feas):
                self.inner, self.excluded, self.feas = inner, excluded, feas

            def contains(self, mask):
                if mask & self.excluded:
                    return False
                return self.feas.contains(mask) and self.inner.contains(mask)

        sub[c_idx] = _Sub(inner, excluded, feas)
    spec = MechanismSpec(
        "CSIP" if n > 1 else "IP",
        prices,
        tie_allow=allow,
        sub_constraint=sub,
        order=tuple(range(n)),
        note=f"prophet prices, selectability {ocrs.constant}",
    )
    return spec, ocrs
