"""Single-dimensional revenue machinery: raw and ironed virtual values from the
quantile-space revenue curve, and copies-setting optimal revenues.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import DiscreteDist, Instance, UnitDemandPairs, AuctionFeasibility
from .rational import Q, ZERO


@dataclass(frozen=True)
class VirtualValueTable:
    """Raw phi and ironed phi_tilde per support value of one distribution."""

    dist: DiscreteDist
    raw: tuple
    ironed: tuple

    def ironed_at(self, v) -> Q:
        return self.ironed[self.dist.support.index(v)]


def _upper_concave_hull(points):
    """Upper concave envelope of points with strictly increasing x, as hull vertices."""
    hull = []
    for p in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            x3, y3 = p
            # drop the middle point when it lies on or below the chord
            if (y2 - y1) * (x3 - x2) <= (y3 - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def virtual_values(dist: DiscreteDist) -> VirtualValueTable:
    """Raw phi(t) = t - (t_next - t) * Pr[T > t] / Pr[T = t] (top type: t itself);
    ironed phi~ is the slope of the concave hull of the revenue curve
    R(q) = q * price(q) over each type's quantile interval."""
    if not isinstance(dist, DiscreteDist):
        raise TypeError("virtual_values expects a DiscreteDist")
    sup, probs = dist.support, dist.probs
    k = len(sup)
    raw = []
    for idx in range(k):
        if idx == k - 1:
            raw.append(sup[idx])
        else:
            raw.append(
                sup[idx] - (sup[idx + 1] - sup[idx]) * dist.pr_gt(sup[idx]) / probs[idx]
            )
    # revenue-curve points: origin, then (Pr[T >= v], v * Pr[T >= v]) for v descending
    pts = [(ZERO, ZERO)]
    for idx in range(k - 1, -1, -1):
        q = dist.pr_geq(sup[idx])
        pts.append((q, sup[idx] * q))
    hull = _upper_concave_hull(pts)
    ironed = []
    for idx in range(k):
        lo, hi = dist.pr_gt(sup[idx]), dist.pr_geq(sup[idx])
        slope = None
        for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
            if x1 <= lo and hi <= x2:
                slope = (y2 - y1) / (x2 - x1)
                break
        if slope is None:  # single-point hull (degenerate) cannot happen: k >= 1
            raise AssertionError("quantile interval not covered by hull")
        ironed.append(slope)
    return VirtualValueTable(dist, tuple(raw), tuple(ironed))


def best_posted_revenue(dist: DiscreteDist, reserve) -> Q:
    """max over posted prices p >= reserve of (p - reserve) * Pr[T >= p]."""
    best = ZERO
    for p in dist.support:
        if p >= reserve:
            rev = (p - reserve) * dist.pr_geq(p)
            if rev > best:
                best = rev
    return best


def ironed_surplus(table: VirtualValueTable, reserve) -> Q:
    """E[(phi~(t) - reserve)^+]; equals best_posted_revenue at every support reserve."""
    return sum(
        (
            p * (v - reserve)
            for v, p in zip(table.ironed, table.dist.probs)
            if v > reserve
        ),
        ZERO,
    )


def virtual_value_tables(instance: Instance, i: int) -> tuple:
    """Buyer i's VirtualValueTable per item, built once per instance and kept
    in its cache."""
    key = ("vvt", i)
    if key not in instance._cache:
        instance._cache[key] = tuple(
            virtual_values(instance.dists[i][j]) for j in range(instance.m)
        )
    return instance._cache[key]


def copies_opt_ud(instance: Instance, c_idx: int) -> Q:
    """Unit-demand copies benchmark E_t[max_j (phi~_j(t_j) - c_j)^+], single buyer.

    Computed from the per-item surplus CDFs, not by profile enumeration.
    """
    if instance.n != 1:
        raise ValueError("copies_opt_ud is a single-buyer quantity")
    cost = instance.costs.vector(c_idx)
    tables = virtual_value_tables(instance, 0)
    per_item = []
    for j in range(instance.m):
        d = {}
        if not instance.families[0].contains(1 << j):
            per_item.append({ZERO: Q(1)})  # a copy that can never be sold
            continue
        for v, p in zip(tables[j].ironed, instance.dists[0][j].probs):
            s = v - cost[j]
            if s < 0:
                s = ZERO
            d[s] = d.get(s, ZERO) + p
        per_item.append(d)
    grid = sorted({s for d in per_item for s in d})
    # E[max] = sum over grid values s>0 of s * (Pr[max <= s] - Pr[max < s])
    out = ZERO
    for s in grid:
        if s <= 0:
            continue
        p_le = Q(1)
        p_lt = Q(1)
        for d in per_item:
            p_le *= sum((p for v, p in d.items() if v <= s), ZERO)
            p_lt *= sum((p for v, p in d.items() if v < s), ZERO)
        out += s * (p_le - p_lt)
    return out


def copies_opt_additive(instance: Instance, c_idx: int) -> Q:
    """Copies benchmark E_t[max feasible sum of (phi~_j(t_j) - c_j)^+], single buyer."""
    if instance.n != 1:
        raise ValueError("copies_opt_additive is a single-buyer quantity")
    cost = instance.costs.vector(c_idx)
    tables = virtual_value_tables(instance, 0)
    fam = instance.families[0]
    if fam.kind == "uniform" and fam.rank == instance.m:
        # additive: linearity of expectation, one item at a time
        out = ZERO
        for j in range(instance.m):
            for v, p in zip(tables[j].ironed, instance.dists[0][j].probs):
                if v > cost[j]:
                    out += p * (v - cost[j])
        return out
    out = ZERO
    for t_i in instance.buyer_types(0):
        pt = instance.type_prob(0, t_i)
        weights = []
        for j in range(instance.m):
            s = tables[j].ironed_at(t_i[j]) - cost[j]
            weights.append(s if s > 0 else ZERO)
        out += pt * fam.max_weight_value(tuple(weights), instance.full_mask())
    return out


def copies_opt_ud_multi(instance: Instance, c_idx: int, guard: int = 12) -> Q:
    """Multi-buyer copies benchmark: expected max feasible sum of positive ironed
    virtual surpluses over pair sets with at most one item per buyer."""
    if instance.n * instance.m > guard:
        raise ValueError(
            f"copies_opt_ud_multi guard exceeded: n*m = {instance.n * instance.m} > {guard}"
        )
    if instance.n == 1:
        return copies_opt_ud(instance, c_idx)
    cost = instance.costs.vector(c_idx)
    tables = [virtual_value_tables(instance, i) for i in range(instance.n)]
    pairs = UnitDemandPairs(AuctionFeasibility(instance)).members()
    out = ZERO
    for combo, pp in instance.profiles():
        weights = {}
        for i in range(instance.n):
            t_i = instance.buyer_types(i)[combo[i]]
            for j in range(instance.m):
                s = tables[i][j].ironed_at(t_i[j]) - cost[j]
                weights[(i, j)] = s if s > 0 else ZERO
        best = ZERO
        for a in pairs:
            v = ZERO
            t = a
            while t:
                bit = (t & -t).bit_length() - 1
                v += weights[(bit // instance.m, bit % instance.m)]
                t &= t - 1
            if v > best:
                best = v
        out += pp * best
    return out
