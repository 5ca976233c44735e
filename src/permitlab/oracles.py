"""Deliberately naive reference oracles: certified grid optima for the
posted-price families, the equal-revenue hard instance, a from-scratch
recomputation of the benchmark sums for cross-validation, and scaled-polytope
membership by convex decomposition.

Nothing here shares evaluation code with the benchmark module or the
mechanisms module; where the same quantity is computed twice, the algorithms
differ on purpose. The item-pricing grid scores each price vector with its own
per-type argmax bundle. The permit-pricing and bundle grids read every
type's expected surplus at cost from their own scans (the family's members
inside each permit set, or sum_c p_c * max(0, t - c_j) for one item of an
additive buyer), where search_best tabulates the surplus valuation vbar.
Membership enumerates Caratheodory supports where ``ocrs.in_scaled_polytope``
reads matroid rank inequalities.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .mechanisms import evaluate  # noqa: F401 -- never called; perfbench/tracing.py wraps it
from .model import CostModel, DiscreteDist, Instance, UniformMatroid, popcount
from .rational import Q, ZERO, ONE


@dataclass(frozen=True)
class OracleResult:
    name: str
    value: Q
    enumerated: int
    method: str


def _grid_iter(values, order: str):
    return sorted(values) if order == "ascending" else sorted(values, reverse=True)


def _is_additive(instance: Instance) -> bool:
    f = instance.families[0]
    return f.kind == "uniform" and f.rank == instance.m


def brute_posted_price_opt(
    instance: Instance, kind: str, guard: int = 1_000_000, order: str = "ascending"
) -> OracleResult:
    """Certified family optimum on the closure price grid by full enumeration.

    Additive single-buyer instances decompose exactly (per item, and by
    convolution for the bundle), which is what makes the large equal-revenue
    instances tractable; everything else walks the full product grid. On the
    permit grid items sell at cost, so a type's stage-1 utility for a permit
    set is its expected surplus, read from one table built per instance
    (``_permit_surplus``; ``_item_surplus`` per item when additive); each grid
    point's profit is the expected permit payment when every type buys the set
    maximizing (surplus - payment, set size, -mask). Neither the evaluator nor
    vbar is called.
    """
    if instance.n != 1:
        raise ValueError("the brute oracle covers the single-buyer families")
    m = instance.m
    additive = _is_additive(instance)

    if kind == "IP":
        if additive:
            total = ZERO
            count = 0
            for c_idx, (cvec, pc) in enumerate(instance.costs.atoms):
                for j in range(m):
                    d = instance.dists[0][j]
                    grid = {ZERO, d.support[-1] + 1} | set(d.support) | {
                        t - cvec[j] for t in d.support if t > cvec[j]
                    }
                    best = ZERO
                    for p in _grid_iter(grid, order):
                        count += 1
                        rev = (p - cvec[j]) * d.pr_geq(p)
                        if rev > best:
                            best = rev
                    total += pc * best
            return OracleResult("IP-Profit", total, count, "additive per-item grid")
        grids = []
        total_candidates = 0
        for c_idx, (cvec, _) in enumerate(instance.costs.atoms):
            per_item = []
            for j in range(m):
                d = instance.dists[0][j]
                # the top candidate never sells; without it grid optima on
                # loss-making instances would dip below the family optimum 0
                vals = {ZERO, d.support[-1] + 1} | set(d.support) | {
                    t - cvec[j] for t in d.support if t > cvec[j]
                }
                per_item.append(tuple(_grid_iter(vals, order)))
            combos = 1
            for g in per_item:
                combos *= len(g)
            total_candidates += combos
            grids.append(per_item)
        if total_candidates > guard:
            raise ValueError(f"IP oracle grid {total_candidates} exceeds guard {guard}")
        total = ZERO
        for (cvec, pc), per_item in zip(instance.costs.atoms, grids):
            best = None
            for combo in product(*per_item):
                pf = _ip_profit_under_atom(instance, combo, cvec)
                if best is None or pf > best:
                    best = pf
            total += pc * best
        return OracleResult("IP-Profit", total, total_candidates, "full price grid")

    if kind == "PP":
        if additive:
            total = ZERO
            count = 0
            for j in range(m):
                d = instance.dists[0][j]
                surplus = {}
                for t, p in zip(d.support, d.probs):
                    v = _item_surplus(instance, j, t)
                    surplus[v] = surplus.get(v, ZERO) + p
                best = ZERO
                for l in _grid_iter(set(surplus) | {ZERO}, order):
                    count += 1
                    if l == 0:
                        continue
                    pr = sum((p for v, p in surplus.items() if v >= l), ZERO)
                    if l * pr > best:
                        best = l * pr
                total += best
            return OracleResult("PP-Profit", total, count, "additive per-permit grid")
        surplus = _permit_surplus(instance, range(1 << m))  # indexed by mask
        grids = []
        for j in range(m):
            bit = 1 << j
            vals = {ZERO}
            for row in surplus:
                for sub in range(1 << m):
                    if not sub & bit:
                        gain = row[sub | bit] - row[sub]
                        if gain > 0:
                            vals.add(gain)
            grids.append(tuple(_grid_iter(vals, order)))
        combos = 1
        for g in grids:
            combos *= len(g)
        if combos > guard:
            raise ValueError(f"PP oracle grid {combos} exceeds guard {guard}")
        fprobs = instance.buyer_type_probs(0)
        best = None
        for combo in product(*grids):
            pay = [
                sum((combo[j] for j in range(m) if (pm >> j) & 1), ZERO) for pm in range(1 << m)
            ]
            pf = ZERO
            for f, row in zip(fprobs, surplus):
                chosen = max(
                    range(1 << m), key=lambda pm: (row[pm] - pay[pm], popcount(pm), -pm)
                )
                pf += f * pay[chosen]
            if best is None or pf > best:
                best = pf
        return OracleResult("PP-Profit", best, combos, "full permit grid")

    if kind == "PB":
        if additive:
            dist = {ZERO: ONE}
            for j in range(m):
                nxt = {}
                d = instance.dists[0][j]
                for t, p in zip(d.support, d.probs):
                    v = _item_surplus(instance, j, t)
                    for tot, q in dist.items():
                        key = tot + v
                        nxt[key] = nxt.get(key, ZERO) + q * p
                dist = nxt
        else:
            dist = {}
            full = _permit_surplus(instance, (instance.full_mask(),))
            for (v,), f in zip(full, instance.buyer_type_probs(0)):
                dist[v] = dist.get(v, ZERO) + f
        best = ZERO
        count = 0
        for delta in _grid_iter(set(dist) | {ZERO}, order):
            count += 1
            if delta == 0:
                continue
            pr = sum((p for v, p in dist.items() if v >= delta), ZERO)
            if delta * pr > best:
                best = delta * pr
        return OracleResult("PB-Profit", best, count, "bundle value grid")

    raise ValueError(f"unknown family kind {kind}")


def _permit_surplus(instance: Instance, masks):
    """Per type of the one buyer, its expected surplus from each permit set P
    in masks (in their order) when items sell at cost: over the cost atoms,
    the best family member inside P, the empty set scoring 0."""
    m = instance.m
    members = instance.families[0].members()
    rows = []
    for t_i in instance.buyer_types(0):
        row = [ZERO] * len(masks)
        for cvec, pc in instance.costs.atoms:
            gain = {}
            for s in members:
                items = [j for j in range(m) if (s >> j) & 1]
                gain[s] = sum((t_i[j] - cvec[j] for j in items), ZERO)
            for k, pm in enumerate(masks):
                top = ZERO
                for s, g in gain.items():
                    if not s & ~pm and g > top:
                        top = g
                row[k] += pc * top
        rows.append(tuple(row))
    return rows


def _ip_profit_under_atom(instance: Instance, prices, cvec) -> Q:
    """Conditional profit of one buyer facing item prices under one cost
    vector. Each type buys, among the family's members (the empty set among
    them) whose every item has value at least its price, the one with the
    highest surplus, then the larger bundle, then the smaller mask."""
    m = instance.m
    total = ZERO
    for t_i, f in zip(instance.buyer_types(0), instance.buyer_type_probs(0)):
        gain = {j: t_i[j] - prices[j] for j in range(m) if t_i[j] >= prices[j]}
        best = None
        for s in instance.families[0].members():
            items = [j for j in range(m) if (s >> j) & 1]
            if not all(j in gain for j in items):
                continue
            key = (sum((gain[j] for j in items), ZERO), len(items), -s)
            if best is None or key > best[0]:
                best = (key, items)
        total += f * sum((prices[j] - cvec[j] for j in best[1]), ZERO)
    return total


def _item_surplus(instance: Instance, j: int, t) -> Q:
    """Expected surplus sum_c p_c * max(0, t - c_j) of item j bought at cost
    by a buyer valuing it at t."""
    return sum(
        (pc * (t - cvec[j]) for cvec, pc in instance.costs.atoms if t > cvec[j]), ZERO
    )


def example_1_1(m: int, truncation: int) -> Instance:
    """Equal-revenue values truncated at 2^K with single-cheap-item cost atoms.

    Every posted price 2^k on one item earns revenue exactly 1; the cost atoms
    put cost 0 on one item and a prohibitively large (finite) cost elsewhere.
    """
    if m < 2 or truncation < 1:
        raise ValueError("need m >= 2 and truncation >= 1")
    support = tuple(Q(2) ** k for k in range(truncation + 1))
    probs = tuple(
        Q(1, 2 ** (k + 1)) if k < truncation else Q(1, 2 ** truncation)
        for k in range(truncation + 1)
    )
    d = DiscreteDist(support, probs)
    big = support[-1] * m + 1
    atoms = []
    for j in range(m):
        vec = tuple(ZERO if k == j else big for k in range(m))
        atoms.append((vec, Q(1, m)))
    return Instance(
        1,
        m,
        ((d,) * m,),
        CostModel(tuple(atoms)),
        (UniformMatroid(m, m),),
        name=f"equal-revenue m={m} K={truncation}",
    )


# -- Independent benchmark recomputation ----------------------------------------


def _hull_height(points, x):
    """Upper concave envelope height at x, brute-forced over point pairs."""
    best = None
    for (x1, y1) in points:
        if x1 == x and (best is None or y1 > best):
            best = y1
    for (x1, y1) in points:
        for (x2, y2) in points:
            if x1 < x < x2:
                y = y1 + (y2 - y1) * (x - x1) / (x2 - x1)
                if best is None or y > best:
                    best = y
    return best


def _ironed_by_chords(dist: DiscreteDist):
    """Ironed virtual values via brute chord maximization (independent of the
    monotone-chain implementation in the myerson module)."""
    pts = [(ZERO, ZERO)]
    for v in dist.support:
        q = dist.pr_geq(v)
        pts.append((q, v * q))
    out = []
    for v, p in zip(dist.support, dist.probs):
        hi = dist.pr_geq(v)
        lo = dist.pr_gt(v)
        out.append((_hull_height(pts, hi) - _hull_height(pts, lo)) / p)
    return tuple(out)


def direct_benchmark_recompute(instance: Instance, mechanism) -> dict:
    """Most-surplus / prophet / less-surplus by literal summation, written
    without reference to the benchmark module's code paths."""
    n, m = instance.n, instance.m
    atoms = instance.costs.atoms
    profiles = list(instance.profiles())

    # interim allocation, straight from the ex-post distributions
    def interim(i, ti_idx, c_idx, j):
        tot = ZERO
        denom = instance.buyer_type_probs(i)[ti_idx]
        for combo, pp in profiles:
            if combo[i] != ti_idx:
                continue
            for mask, pr in mechanism.alloc_dist(combo, c_idx):
                if (mask >> (i * m + j)) & 1:
                    tot += pp * pr
        return tot / denom

    # halved sale probabilities and thresholds, by literal scan
    q = {}
    beta = {}
    for i in range(n):
        for j in range(m):
            d = instance.dists[i][j]
            for c_idx in range(len(atoms)):
                c_j = atoms[c_idx][0][j]
                tot = ZERO
                for ti_idx in range(len(instance.buyer_types(i))):
                    tot += instance.buyer_type_probs(i)[ti_idx] * interim(
                        i, ti_idx, c_idx, j
                    )
                q[(i, j, c_idx)] = tot / 2
                qq = q[(i, j, c_idx)]
                if d.pr_geq(c_j) <= qq:
                    beta[(i, j, c_idx)] = ZERO
                else:
                    # highest threshold with sale probability exactly q after
                    # rationing: the exact-tie support value when one exists,
                    # else the infimum of the qualifying half-line
                    b = None
                    for a in reversed(d.support):
                        if d.pr_geq(a) == qq:
                            b = a
                        if d.pr_geq(a) > qq:
                            if b is None:
                                b = a
                            break
                    beta[(i, j, c_idx)] = b

    def surplus(i, j, t):
        fam = instance.families[i].members()
        tot = ZERO
        for c_idx, (cvec, pc) in enumerate(atoms):
            thr = beta[(i, j, c_idx)]
            price = thr if thr > cvec[j] else cvec[j]
            gain = t - price
            if gain > 0 and (1 << j) in fam:
                tot += pc * gain
        return tot

    def brute_vbar(i, t_i, pmask):
        tot = ZERO
        for c_idx, (cvec, pc) in enumerate(atoms):
            best = ZERO
            for s in instance.families[i].members():
                if s & ~pmask:
                    continue
                v = ZERO
                for j in range(m):
                    if (s >> j) & 1:
                        thr = beta[(i, j, c_idx)]
                        price = thr if thr > cvec[j] else cvec[j]
                        v += t_i[j] - price
                if v > best:
                    best = v
            tot += pc * best
        return tot

    ironed = [
        [_ironed_by_chords(instance.dists[i][j]) for j in range(m)]
        for i in range(n)
    ]

    most = ZERO
    less = ZERO
    for i in range(n):
        types = instance.buyer_types(i)
        fp = instance.buyer_type_probs(i)
        for ti_idx, t_i in enumerate(types):
            vals = [surplus(i, j, t_i[j]) for j in range(m)]
            label = max(range(m), key=lambda j: (vals[j], -j))
            phi = ironed[i][label][instance.dists[i][label].support.index(t_i[label])]
            for c_idx, (cvec, pc) in enumerate(atoms):
                most += (
                    fp[ti_idx]
                    * pc
                    * interim(i, ti_idx, c_idx, label)
                    * (phi - cvec[label])
                )
            less += fp[ti_idx] * brute_vbar(
                i, t_i, instance.full_mask() & ~(1 << label)
            )

    prophet = ZERO
    for i in range(n):
        for j in range(m):
            for c_idx, (cvec, pc) in enumerate(atoms):
                thr = beta[(i, j, c_idx)]
                price = thr if thr > cvec[j] else cvec[j]
                prophet += 2 * pc * q[(i, j, c_idx)] * (price - cvec[j])

    return {"most_surplus": most, "prophet": prophet, "less_surplus": less}


# -- Independent polytope membership ---------------------------------------------


def in_scaled_polytope_by_decomposition(base, ground: int, y, b) -> bool:
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
