"""Ex-ante relaxation, the region flow, the three-term profit benchmark
(most-surplus / prophet / less-surplus), and its core-tail decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lp import DirectMechanism, _check_flow_conservation
from .model import (
    DiscreteDist,
    Instance,
    Thresholds,
    _favorite_item,
    _favorites,
    effective_price,
    surplus_table,
)
from .myerson import virtual_value_tables
from .rational import Q, ZERO, HALF


@dataclass(eq=False)
class ExAnte:
    """Halved interim sale probabilities q, induced thresholds beta, and the
    rationing probability applied at the threshold atom."""

    instance: Instance
    q: dict  # (i, j, c_idx) -> Q
    beta: Thresholds
    rho: dict  # (i, j, c_idx) -> Q

    def sale_probability(self, i: int, j: int, c_idx: int) -> Q:
        """Pr[t > price] + rho * Pr[t = price] at price max(beta, c_j)."""
        d = self.instance.dists[i][j]
        price = effective_price(self.instance, self.beta, i, j, c_idx)
        return d.pr_gt(price) + self.rho[(i, j, c_idx)] * d.pr_eq(price)


def ex_ante(instance: Instance, mechanism: DirectMechanism) -> ExAnte:
    pi = mechanism.interim()
    q = {}
    rho = {}
    beta_vals = []
    for i in range(instance.n):
        fp = instance.buyer_type_probs(i)
        rows = []
        for j in range(instance.m):
            col = []
            d = instance.dists[i][j]
            for c_idx in range(len(instance.costs)):
                qij = HALF * sum(
                    (
                        fp[ti] * pi[i][ti][c_idx][j]
                        for ti in range(len(fp))
                    ),
                    ZERO,
                )
                q[(i, j, c_idx)] = qij
                c_j = instance.costs.vector(c_idx)[j]
                if d.pr_geq(c_j) <= qij:
                    b = ZERO
                    rho[(i, j, c_idx)] = Q(1)
                else:
                    # smallest support value whose tail is at most q, when the
                    # tie is exact; otherwise the infimum (the largest support
                    # value with tail above q) with rationing at its atom, the
                    # only choice that makes the sale probability exactly q
                    b = None
                    for s in d.support:
                        if d.pr_geq(s) == qij:
                            b = s
                            break
                    if b is None:
                        b = max(s for s in d.support if d.pr_geq(s) > qij)
                    rho[(i, j, c_idx)] = (qij - d.pr_gt(b)) / d.pr_eq(b)
                    if not (0 <= rho[(i, j, c_idx)] <= 1):
                        raise AssertionError("rationing probability out of range")
                col.append(b)
            rows.append(tuple(col))
        beta_vals.append(tuple(rows))
    exa = ExAnte(instance, q, Thresholds(tuple(beta_vals)), rho)
    _check_exante(exa)
    return exa


def _check_exante(exa: ExAnte):
    """Effective sale probability is min(q, Pr[t >= c_j]); per item the q's of
    all buyers sum to at most 1/2 (one unit of supply, halved)."""
    inst = exa.instance
    for i in range(inst.n):
        for j in range(inst.m):
            d = inst.dists[i][j]
            for c_idx in range(len(inst.costs)):
                c_j = inst.costs.vector(c_idx)[j]
                got = exa.sale_probability(i, j, c_idx)
                want = min(exa.q[(i, j, c_idx)], d.pr_geq(c_j))
                if got != want:
                    raise AssertionError(
                        f"sale probability {got} != min(q, Pr[t>=c]) = {want}"
                    )
    for c_idx in range(len(inst.costs)):
        for j in range(inst.m):
            tot = sum(
                (exa.q[(i, j, c_idx)] for i in range(inst.n)), ZERO
            )
            if tot > HALF:
                raise AssertionError("per-item halved sale probabilities exceed 1/2")


@dataclass(eq=False)
class FlowSpec:
    """Favorite-item region labels, the induced virtual-value vectors, and the
    explicit edge weights of the region flow (used for conservation checks)."""

    instance: Instance
    beta: Thresholds
    labels: dict  # (i, ti_idx) -> j
    phi: dict  # (i, ti_idx) -> tuple of per-item virtual values
    edges: dict  # (i, from_ti_idx, to_ti_idx or None) -> Q


def surplus_tables(instance: Instance, beta) -> tuple:
    """dists[i][j]: the distribution of buyer i's single-permit surplus
    vbar(t, {j}; beta), summed from the surplus table's singleton column over
    the buyer's types and kept in the instance's cache beside the table."""
    key = ("vbar_singles", beta)
    dists = instance._cache.get(key)
    if dists is None:
        dists = instance._cache[key] = tuple(
            tuple(_singleton_dist(instance, i, beta, j) for j in range(instance.m))
            for i in range(instance.n)
        )
    return dists


def _singleton_dist(instance: Instance, i: int, beta, j: int) -> DiscreteDist:
    mass = {}
    for row, f in zip(surplus_table(instance, i, beta), instance.buyer_type_probs(i)):
        mass[row[1 << j]] = mass.get(row[1 << j], ZERO) + f
    support = sorted(mass)
    return DiscreteDist(tuple(support), tuple(mass[v] for v in support))


def build_flow(instance: Instance, beta: Thresholds) -> FlowSpec:
    labels = {}
    phi = {}
    edges = {}
    for i in range(instance.n):
        types = instance.buyer_types(i)
        index_of = {t: k for k, t in enumerate(types)}
        vvt = virtual_value_tables(instance, i)
        for ti_idx, (t_i, row) in enumerate(zip(types, surplus_table(instance, i, beta))):
            best_j = labels[(i, ti_idx)] = _favorite_item(row, instance.m)
            phi[(i, ti_idx)] = tuple(
                vvt[j].ironed_at(t_i[j]) if j == best_j else t_i[j]
                for j in range(instance.m)
            )
        # flow runs down each labeled coordinate line; region membership along
        # the line is a suffix of the support, so inflow is the mass above
        for ti_idx, t_i in enumerate(types):
            j = labels[(i, ti_idx)]
            d = instance.dists[i][j]
            f_rest = instance.type_prob(i, t_i) / d.pr_eq(t_i[j])
            pos = d.support.index(t_i[j])
            below_idx = None
            if pos > 0:
                below = list(t_i)
                below[j] = d.support[pos - 1]
                bidx = index_of[tuple(below)]
                if labels[(i, bidx)] == j:
                    below_idx = bidx
            weight = f_rest * d.pr_geq(t_i[j])
            edges[(i, ti_idx, below_idx)] = (
                edges.get((i, ti_idx, below_idx), ZERO) + weight
            )
    spec = FlowSpec(instance, beta, labels, phi, edges)
    _check_flow_conservation(instance, edges)
    _check_upward_closed(spec)
    return spec


def _check_upward_closed(spec: FlowSpec):
    inst = spec.instance
    for i in range(inst.n):
        types = inst.buyer_types(i)
        index_of = {t: k for k, t in enumerate(types)}
        for ti_idx, t_i in enumerate(types):
            j = spec.labels[(i, ti_idx)]
            sup = inst.dists[i][j].support
            pos = sup.index(t_i[j])
            if pos + 1 < len(sup):
                up = list(t_i)
                up[j] = sup[pos + 1]
                if spec.labels[(i, index_of[tuple(up)])] != j:
                    raise AssertionError("region is not upward-closed")


@dataclass(eq=False)
class CoreTail:
    tau: tuple  # per buyer
    tail: Q
    core: Q
    less_surplus: Q
    favorite_masks: dict  # (i, ti_idx) -> C_i(t_i) bitmask


def core_tail(instance: Instance, beta: Thresholds) -> CoreTail:
    """Thresholds tau_i (the infimum in the decomposition, evaluated on the
    surplus grid as the smallest value whose strict tail sum is at most 1/2),
    the tail and core sums, and the truncation sets C_i."""
    dists = surplus_tables(instance, beta)
    taus = []
    for row in dists:
        grid = sorted({ZERO}.union(*(d.support for d in row)))
        # the top grid value always qualifies
        taus.append(next(a for a in grid if sum((d.pr_gt(a) for d in row), ZERO) <= HALF))

    tail = ZERO
    for i, row in enumerate(dists):
        for j, d in enumerate(row):
            for x, p in zip(d.support, d.probs):
                if x <= taus[i]:
                    continue
                pr_other = Q(1)
                for k, dk in enumerate(row):
                    if k != j:
                        pr_other *= 1 - dk.pr_geq(x)
                tail += p * x * (1 - pr_other)

    core = ZERO
    less = ZERO
    fav = {}
    full = instance.full_mask()
    for i in range(instance.n):
        table = surplus_table(instance, i, beta)
        for ti_idx, (row, f) in enumerate(zip(table, instance.buyer_type_probs(i))):
            mask = fav[(i, ti_idx)] = _favorites(row, instance.m, taus[i])
            core += f * row[mask]
            less += f * row[full & ~(1 << _favorite_item(row, instance.m))]
    ct = CoreTail(tuple(taus), tail, core, less, fav)
    if less > tail + core:
        raise AssertionError("less-surplus exceeds tail + core")
    return ct


@dataclass(eq=False)
class TailPrices:
    xi: dict  # (i, j) -> Q or None when no candidate exists
    r: dict  # (i, j) -> Q
    r_total: Q


def _tail_argmax(dist: DiscreteDist, candidates):
    """The first candidate price a maximizing a * Pr[surplus >= a] under dist,
    and that revenue; (None, 0) when no candidate earns a positive revenue."""
    best_a, best_r = None, ZERO
    for a in candidates:
        rev = a * dist.pr_geq(a)
        if rev > best_r:
            best_a, best_r = a, rev
    return best_a, best_r


def _willing_total(dists, prices) -> Q:
    """sum_j Pr[surplus_ij >= price_j] over the items that have a price."""
    return sum((d.pr_geq(a) for d, a in zip(dists, prices) if a is not None), ZERO)


def tail_prices(instance: Instance, beta: Thresholds, ct: CoreTail) -> TailPrices:
    """xi_ij = argmax over grid values >= tau_i of a * Pr[surplus >= a] (smallest
    argmax); asserts the tail is at most half the total of the maxima."""
    xi, r = {}, {}
    for i, row in enumerate(surplus_tables(instance, beta)):
        for j, d in enumerate(row):
            xi[(i, j)], r[(i, j)] = _tail_argmax(d, (a for a in d.support if a >= ct.tau[i]))
    total = sum(r.values(), ZERO)
    if ct.tail > HALF * total:
        raise AssertionError("tail exceeds half the single-permit revenue total")
    return TailPrices(xi, r, total)


def rspp_tail_thresholds(instance: Instance, beta: Thresholds, ct: CoreTail):
    """Per-buyer permit thresholds for the tail construction, guaranteed to
    satisfy sum_j Pr[surplus_ij >= xi_ij] <= 1/2.

    Uses the grid argmax at or above tau when that already satisfies the sum
    condition, and otherwise moves to candidates strictly above tau (always
    valid because tau's strict tail sum is at most 1/2).
    """
    base = tail_prices(instance, beta, ct)
    xi = {}
    for i, row in enumerate(surplus_tables(instance, beta)):
        cand = [base.xi[(i, j)] for j in range(instance.m)]
        if _willing_total(row, cand) > HALF:
            cand = [_tail_argmax(d, (a for a in d.support if a > ct.tau[i]))[0] for d in row]
            if _willing_total(row, cand) > HALF:
                raise AssertionError("strict-tail thresholds violate the sum bound")
        for j, a in enumerate(cand):
            xi[(i, j)] = a
    return xi


def lower_median(pairs) -> Q:
    """Lower median of a finite distribution given as (value, prob) pairs."""
    total = sum((p for _, p in pairs), ZERO)
    acc = ZERO
    for v, p in sorted(pairs):
        acc += p
        if 2 * acc >= total:
            return v
    raise ValueError("empty distribution")


def core_deltas(instance: Instance, beta: Thresholds, ct: CoreTail) -> tuple:
    """delta_i = half the (lower) median of the truncated surplus v(t, C(t))."""
    out = []
    for i in range(instance.n):
        pairs = zip(_truncated_surplus(instance, i, beta, ct), instance.buyer_type_probs(i))
        out.append(HALF * lower_median(list(pairs)))
    return tuple(out)


def _truncated_surplus(instance: Instance, i: int, beta: Thresholds, ct: CoreTail) -> list:
    """v(t, C(t)) = mu_i(t, full set) per type of buyer i."""
    return [
        row[ct.favorite_masks[(i, ti_idx)]]
        for ti_idx, row in enumerate(surplus_table(instance, i, beta))
    ]


def core_concentration_check(
    instance: Instance, beta: Thresholds, ct: CoreTail, deltas: tuple
):
    """Exact check of E[mu_i(t, full set)] <= 4 delta_i + (5/2) tau_i per
    buyer, for the deltas core_deltas gives."""
    out = []
    for i in range(instance.n):
        truncated = _truncated_surplus(instance, i, beta, ct)
        mean = sum((f * v for f, v in zip(instance.buyer_type_probs(i), truncated)), ZERO)
        bound = 4 * deltas[i] + Q(5, 2) * ct.tau[i]
        out.append(
            {
                "buyer": i,
                "mean_truncated_surplus": mean,
                "bound": bound,
                "delta": deltas[i],
                "tau": ct.tau[i],
                "holds": mean <= bound,
            }
        )
    return out


@dataclass(eq=False)
class BenchmarkReport:
    most_surplus: Q
    prophet: Q
    less_surplus: Q
    core_tail: CoreTail  # at the mechanism's thresholds
    delta: tuple  # core_deltas of core_tail

    @property
    def total(self) -> Q:
        return self.most_surplus + self.prophet + self.less_surplus

    @property
    def tail(self) -> Q:
        return self.core_tail.tail

    @property
    def core(self) -> Q:
        return self.core_tail.core

    @property
    def tau(self) -> tuple:
        return self.core_tail.tau


def benchmark_terms(
    instance: Instance, mechanism: DirectMechanism, exa: ExAnte = None
) -> BenchmarkReport:
    """Exact evaluation of the three benchmark sums for the mechanism's own
    ex-ante thresholds; verifies Profit(M) <= most + prophet + less."""
    if exa is None:
        exa = ex_ante(instance, mechanism)
    beta = exa.beta
    flow = build_flow(instance, beta)
    pi = mechanism.interim()

    most = ZERO
    for i in range(instance.n):
        fp = instance.buyer_type_probs(i)
        for ti_idx in range(len(fp)):
            j = flow.labels[(i, ti_idx)]
            phi_j = flow.phi[(i, ti_idx)][j]
            for c_idx, (cvec, pc) in enumerate(instance.costs.atoms):
                x = pi[i][ti_idx][c_idx][j]
                if x:
                    most += fp[ti_idx] * pc * x * (phi_j - cvec[j])

    prophet = ZERO
    for (i, j, c_idx), qv in exa.q.items():
        if qv == 0:
            continue
        price = effective_price(instance, beta, i, j, c_idx)
        prophet += 2 * instance.costs.prob(c_idx) * qv * (price - instance.costs.vector(c_idx)[j])

    ct = core_tail(instance, beta)
    deltas = core_deltas(instance, beta, ct)
    report = BenchmarkReport(most, prophet, ct.less_surplus, ct, deltas)
    profit = mechanism.profit()
    if profit > report.total:
        raise AssertionError(
            f"benchmark violated: profit {profit} > {report.total}"
        )
    return report
