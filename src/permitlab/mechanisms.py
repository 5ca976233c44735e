"""Posted-price and permit-selling mechanism families and their evaluation.

Six kinds: IP (item pricing, one buyer), PP (permit pricing, one buyer),
PB (permit bundling, one buyer), and the sequential multi-buyer variants
CSIP / RSPP / SPB. One exact evaluator drives all of them: it tracks the
distribution over sold buyer-item pairs cost atom by cost atom, enumerates
hiding and rationing coins exactly, and lets each buyer best-respond.

Buyers buy on ties (zero-surplus purchases happen, larger bundles win ties);
rationing at a price boundary is a seller-side coin granting eligibility
with the stored probability, which never changes buyer surplus.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, product

from .benchmark import ExAnte, surplus_tables
from .model import Instance, vbar
from .rational import Q, ZERO, ONE, HALF

KINDS = ("IP", "PP", "PB", "CSIP", "RSPP", "SPB")


class ConstructionError(Exception):
    """A construction's stated precondition fails on this instance."""


@dataclass(eq=False)
class MechanismSpec:
    kind: str
    item_prices: dict  # (i, j, c_idx) -> Q
    tie_allow: dict = field(default_factory=dict)  # (i, j, c_idx) -> Q, default 1
    permit_prices: dict = field(default_factory=dict)  # (i, j) -> Q or None
    bundle_prices: dict = field(default_factory=dict)  # i -> Q
    sub_constraint: dict = None  # c_idx -> PairFamily (CSIP only)
    order: tuple = None  # buyer arrival order, default 0..n-1
    hide_to_half: bool = False  # RSPP canonical hiding
    hiding_probs: dict = field(default_factory=dict)  # (i, j, c_idx) -> keep prob
    note: str = ""

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown mechanism kind {self.kind!r}")
        for v in self.tie_allow.values():
            if not (0 <= v <= 1):
                raise ValueError("tie_allow probabilities must lie in [0, 1]")
        for v in self.hiding_probs.values():
            if not (0 <= v <= 1):
                raise ValueError("hiding probabilities must lie in [0, 1]")

    def price(self, i, j, c_idx) -> Q:
        return self.item_prices[(i, j, c_idx)]

    def allow(self, i, j, c_idx) -> Q:
        return self.tie_allow.get((i, j, c_idx), ONE)

    def buyer_order(self, n: int) -> tuple:
        return self.order if self.order is not None else tuple(range(n))


@dataclass(eq=False)
class EvalResult:
    profit: Q = None  # exact mode
    estimate: float = None  # Monte-Carlo mode
    half_width: float = None
    samples: int = 0
    revenue: tuple = ()
    cost: tuple = ()
    atom_profit: tuple = ()  # conditional profit per cost atom
    permit_buy_prob: dict = field(default_factory=dict)  # (i, j) -> Q
    bundle_pay_prob: dict = field(default_factory=dict)  # i -> Q
    serve_prob: dict = field(default_factory=dict)  # (i, j, c_idx) -> conditional Q
    stage1: dict = field(default_factory=dict)  # i -> ((permit mask, payment) per type)
    keep_probs: dict = field(default_factory=dict)  # (i, j, c_idx) -> keep prob used
    lower_bound_only: bool = False


@dataclass(eq=False)
class AvailabilityModel:
    """Joint availability seen by one arriving buyer: per cost atom, a
    distribution over available item masks and per-item keep probabilities."""

    instance: Instance
    states: list  # per c_idx: dict avail_item_mask -> Q
    keep: list  # per c_idx: list of keep probabilities per item

    def usable_prob(self, j: int, c_idx: int) -> Q:
        p = sum(
            (pr for mask, pr in self.states[c_idx].items() if (mask >> j) & 1),
            ZERO,
        )
        return p * self.keep[c_idx][j]


def _item_bits(n: int, m: int, j: int) -> int:
    out = 0
    for i in range(n):
        out |= 1 << (i * m + j)
    return out


def _pairs_mask(i: int, m: int, item_mask: int) -> int:
    return item_mask << (i * m)


def _coin_split(candidates):
    """candidates: list of (j, prob usable). Yields (usable_mask, weight)."""
    certain = 0
    rand = []
    for j, u in candidates:
        if u >= 1:
            certain |= 1 << j
        elif u > 0:
            rand.append((j, u))
    for bits in range(1 << len(rand)):
        mask = certain
        w = ONE
        for k, (j, u) in enumerate(rand):
            if (bits >> k) & 1:
                mask |= 1 << j
                w *= u
            else:
                w *= 1 - u
        yield mask, w


def _choose_bundle(instance, i, t_i, prices, usable, sold_mask, sub_fam):
    """Surplus-maximizing feasible bundle; ties go to larger bundles, then to
    the smallest bitmask (so zero-surplus items are taken)."""
    best = None
    m = instance.m
    for s in instance.families[i].members():
        if s & ~usable:
            continue
        if sub_fam is not None and not sub_fam.contains(
            sold_mask | _pairs_mask(i, m, s)
        ):
            continue
        v = ZERO
        t = s
        while t:
            j = (t & -t).bit_length() - 1
            v += t_i[j] - prices[j]
            t &= t - 1
        key = (v, bin(s).count("1"), -s)
        if best is None or key > best[0]:
            best = (key, s, v)
    if best is None:
        return 0, ZERO
    return best[1], best[2]


def _expected_utility(instance, i, t_i, permit_mask, avail: AvailabilityModel, prices_by_atom):
    """Expected second-stage surplus given the permit set, over costs,
    availability, and hiding coins. Zero-surplus items never affect it."""
    total = ZERO
    for c_idx, (_, pc) in enumerate(instance.costs.atoms):
        prices = prices_by_atom[c_idx]
        keep = avail.keep[c_idx]
        pos = [
            j
            for j in range(instance.m)
            if (permit_mask >> j) & 1 and t_i[j] > prices[j]
        ]
        if not pos:
            continue
        weights = tuple(t_i[j] - prices[j] for j in range(instance.m))
        for amask, p_state in avail.states[c_idx].items():
            cands = [(j, keep[j]) for j in pos if (amask >> j) & 1]
            for umask, w in _coin_split(cands):
                if w == 0:
                    continue
                u = instance.families[i].max_weight_value(weights, umask)
                total += pc * p_state * w * u
    return total


def best_response_permits(instance, i, t_i, spec: MechanismSpec, avail: AvailabilityModel):
    """Utility-maximizing permit purchase for one buyer. Returns (permit mask,
    stage-1 payment). Ties favor buying: larger sets first, then the smaller mask."""
    prices_by_atom = [
        tuple(spec.price(i, j, c) for j in range(instance.m))
        for c in range(len(instance.costs))
    ]
    if spec.kind in ("PB", "SPB"):
        delta = spec.bundle_prices.get(i, ZERO)
        full = instance.full_mask()
        u = _expected_utility(instance, i, t_i, full, avail, prices_by_atom)
        return (full, delta) if u >= delta else (0, ZERO)
    if spec.kind in ("CSIP", "IP"):
        return instance.full_mask(), ZERO
    if spec.kind == "RSPP":
        cands = [0] + [
            1 << j
            for j in range(instance.m)
            if spec.permit_prices.get((i, j)) is not None
        ]
    else:  # PP: all permit subsets
        cands = list(range(1 << instance.m))
    best = None
    for pm in cands:
        pay = ZERO
        ok = True
        t = pm
        while t:
            j = (t & -t).bit_length() - 1
            l = spec.permit_prices.get((i, j))
            if l is None:
                ok = False
                break
            pay += l
            t &= t - 1
        if not ok:
            continue
        u = _expected_utility(instance, i, t_i, pm, avail, prices_by_atom) - pay
        key = (u, bin(pm).count("1"), -pm)
        if best is None or key > best[0]:
            best = (key, pm, pay)
    return best[1], best[2]


def evaluate(
    instance: Instance, spec: MechanismSpec, guard: int = 1_000_000
) -> EvalResult:
    """Exact expected profit of a mechanism, plus event probabilities."""
    n, m = instance.n, instance.m
    if spec.kind in ("IP", "PP", "PB") and n != 1:
        raise ValueError(f"{spec.kind} is a single-buyer mechanism")
    if instance.n_profiles() * len(instance.costs) > guard:
        raise ValueError("instance too large for exact mechanism evaluation")
    n_atoms = len(instance.costs)
    item_bits = [_item_bits(n, m, j) for j in range(m)]
    states = [{0: ONE} for _ in range(n_atoms)]
    revenue = [ZERO] * n
    cost = [ZERO] * n
    atom_profit = [ZERO] * n_atoms
    permit_buy = {}
    bundle_pay = {}
    serve = {}
    stage1 = {}
    keep_probs = {}

    for i in spec.buyer_order(n):
        avail_states = []
        keep_rows = []
        for c_idx in range(n_atoms):
            amasks = {}
            for mask, p in states[c_idx].items():
                am = 0
                for j in range(m):
                    if not (mask & item_bits[j]):
                        am |= 1 << j
                amasks[am] = amasks.get(am, ZERO) + p
            avail_states.append(amasks)
            row = [ONE] * m
            if spec.kind == "RSPP" and spec.hide_to_half:
                for j in range(m):
                    a = sum(
                        (p for am, p in amasks.items() if (am >> j) & 1), ZERO
                    )
                    if a < HALF:
                        raise ConstructionError(
                            f"item {j} available to buyer {i} with probability {a} < 1/2"
                        )
                    row[j] = HALF / a
            elif spec.hiding_probs:
                for j in range(m):
                    row[j] = spec.hiding_probs.get((i, j, c_idx), ONE)
            keep_rows.append(row)
            for j in range(m):
                keep_probs[(i, j, c_idx)] = row[j]
        avail = AvailabilityModel(instance, avail_states, keep_rows)

        types = instance.buyer_types(i)
        fprobs = instance.buyer_type_probs(i)
        prices_by_atom = [
            tuple(spec.price(i, j, c) for j in range(m)) for c in range(n_atoms)
        ]
        next_states = [dict() for _ in range(n_atoms)]
        decisions = []
        for ti_idx, t_i in enumerate(types):
            f = fprobs[ti_idx]
            permits, stage1_pay = best_response_permits(instance, i, t_i, spec, avail)
            decisions.append((permits, stage1_pay))
            if spec.kind == "RSPP" and permits:
                j = permits.bit_length() - 1
                permit_buy[(i, j)] = permit_buy.get((i, j), ZERO) + f
            elif spec.kind == "PP" and permits:
                t = permits
                while t:
                    j = (t & -t).bit_length() - 1
                    permit_buy[(i, j)] = permit_buy.get((i, j), ZERO) + f
                    t &= t - 1
            if spec.kind in ("PB", "SPB") and permits:
                bundle_pay[i] = bundle_pay.get(i, ZERO) + f
            revenue[i] += f * stage1_pay
            for c_idx in range(n_atoms):
                atom_profit[c_idx] += f * stage1_pay
            for c_idx, (cvec, pc) in enumerate(instance.costs.atoms):
                prices = prices_by_atom[c_idx]
                keep = keep_rows[c_idx]
                sub_fam = (
                    spec.sub_constraint.get(c_idx)
                    if spec.sub_constraint is not None
                    else None
                )
                for mask, p_state in states[c_idx].items():
                    cands = []
                    for j in range(m):
                        if not ((permits >> j) & 1) or (mask & item_bits[j]):
                            continue
                        if t_i[j] > prices[j]:
                            elig = ONE
                        elif t_i[j] == prices[j]:
                            elig = spec.allow(i, j, c_idx)
                        else:
                            continue
                        u = keep[j] * elig
                        if u > 0:
                            cands.append((j, u))
                    for umask, w in _coin_split(cands):
                        if w == 0:
                            continue
                        bundle, _ = _choose_bundle(
                            instance, i, t_i, prices, umask, mask, sub_fam
                        )
                        wgt = f * p_state * w
                        if bundle:
                            pay = ZERO
                            cc = ZERO
                            t = bundle
                            while t:
                                j = (t & -t).bit_length() - 1
                                pay += prices[j]
                                cc += cvec[j]
                                serve[(i, j, c_idx)] = (
                                    serve.get((i, j, c_idx), ZERO) + wgt
                                )
                                t &= t - 1
                            revenue[i] += pc * wgt * pay
                            cost[i] += pc * wgt * cc
                            atom_profit[c_idx] += wgt * (pay - cc)
                        nmask = mask | _pairs_mask(i, m, bundle)
                        next_states[c_idx][nmask] = (
                            next_states[c_idx].get(nmask, ZERO) + wgt
                        )
        states = next_states
        stage1[i] = tuple(decisions)

    profit = sum(revenue, ZERO) - sum(cost, ZERO)
    check = sum(
        (instance.costs.prob(c) * atom_profit[c] for c in range(n_atoms)), ZERO
    )
    if profit != check:
        raise AssertionError("per-atom profit does not re-sum to total profit")
    return EvalResult(
        profit=profit,
        revenue=tuple(revenue),
        cost=tuple(cost),
        atom_profit=tuple(atom_profit),
        permit_buy_prob=permit_buy,
        bundle_pay_prob=bundle_pay,
        serve_prob=serve,
        stage1=stage1,
        keep_probs=keep_probs,
    )


def monte_carlo_eval(
    instance: Instance, spec: MechanismSpec, samples: int, seed: int
) -> EvalResult:
    """Unbiased sampled profit with a 99% normal-approximation half-width.

    Stage-1 decisions depend on distributions, not draws, so the permit
    choices, stage-1 payments and keep probabilities come from one exact
    evaluate() pass, which brings its size guard; only the realized dynamics
    are sampled. A buyer's outcome is fixed by (buyer, type, cost atom,
    usable items, sold pairs), so it is computed once per key and call and
    looked up afterwards. Every draw, and the order in which floats are
    summed, is that of the plain per-sample loop.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    exact = evaluate(instance, spec)
    rng = random.Random(seed)
    n, m = instance.n, instance.m
    n_atoms = len(instance.costs)
    order = spec.buyer_order(n)
    atom_cum = _cumulative(instance.costs.prob(c) for c in range(n_atoms))
    type_cums = [_cumulative(instance.buyer_type_probs(i)) for i in range(n)]

    # plans[i][t][c]: float stage-1 payment, and (item, its pair bits, float
    # usable probability) per eligible item in coin-draw order
    plans = {}
    for i in order:
        plans[i] = []
        for t_idx, t_i in enumerate(instance.buyer_types(i)):
            permits, pay = exact.stage1[i][t_idx]
            per_atom = []
            for c_idx in range(n_atoms):
                coins = []
                for j in range(m):
                    if not (permits >> j) & 1:
                        continue
                    p = spec.price(i, j, c_idx)
                    if t_i[j] > p:
                        elig = 1.0
                    elif t_i[j] == p:
                        elig = float(spec.allow(i, j, c_idx))
                    else:
                        continue
                    u = float(exact.keep_probs[(i, j, c_idx)]) * elig
                    if u > 0:
                        coins.append((j, _item_bits(n, m, j), u))
                per_atom.append((float(pay), tuple(coins)))
            plans[i].append(per_atom)

    outcomes = {}  # (i, t, c, usable, sold) -> (pairs bought, float gains)
    total = 0.0
    total_sq = 0.0
    for _ in range(samples):
        c_idx = _draw(rng, atom_cum)
        t_idx = [_draw(rng, type_cums[i]) for i in range(n)]
        sold = 0
        profit = 0.0
        for i in order:
            t = t_idx[i]
            pay, coins = plans[i][t][c_idx]
            profit += pay
            usable = 0
            for j, bits, u in coins:
                if not (sold & bits) and rng.random() < u:
                    usable |= 1 << j
            key = (i, t, c_idx, usable, sold)
            out = outcomes.get(key)
            if out is None:
                out = outcomes[key] = _sampled_outcome(instance, spec, key)
            pairs, gains = out
            for g in gains:
                profit += g
            sold |= pairs
        total += profit
        total_sq += profit * profit
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    half = 2.5758293035489004 * (var / samples) ** 0.5  # 99% two-sided normal
    return EvalResult(estimate=mean, half_width=half, samples=samples)


def _cumulative(probs) -> list:
    """Running float sums of the probabilities, in order."""
    return list(accumulate(float(p) for p in probs))


def _draw(rng, cum):
    """First index whose cumulative probability exceeds a uniform draw; the
    last index when rounding leaves the draw above them all."""
    k = bisect_right(cum, rng.random())
    return k if k < len(cum) else len(cum) - 1


def _sampled_outcome(instance, spec, key):
    """Pairs a buyer buys, and the float price - cost per bought item in
    ascending item order, at one realized (type, atom, usable, sold) key."""
    i, t_idx, c_idx, usable, sold = key
    m = instance.m
    prices = tuple(spec.price(i, j, c_idx) for j in range(m))
    cvec = instance.costs.vector(c_idx)
    sub_fam = spec.sub_constraint.get(c_idx) if spec.sub_constraint is not None else None
    t_i = instance.buyer_types(i)[t_idx]
    bundle, _ = _choose_bundle(instance, i, t_i, prices, usable, sold, sub_fam)
    gains = tuple(float(prices[j] - cvec[j]) for j in range(m) if (bundle >> j) & 1)
    return _pairs_mask(i, m, bundle), gains


# -- Constructions from the approximation proofs -------------------------------


def _csip_profit_under_atom(instance, prices, c_idx, sub_fam, order):
    """Exact conditional profit of item pricing under one cost atom."""
    n, m = instance.n, instance.m
    item_bits = [_item_bits(n, m, j) for j in range(m)]
    cvec = instance.costs.vector(c_idx)
    states = {0: ONE}
    profit = ZERO
    for i in order:
        nxt = {}
        types = instance.buyer_types(i)
        fprobs = instance.buyer_type_probs(i)
        for ti_idx, t_i in enumerate(types):
            f = fprobs[ti_idx]
            row = prices[i]
            for mask, p_state in states.items():
                usable = 0
                for j in range(m):
                    if mask & item_bits[j]:
                        continue
                    if t_i[j] >= row[j]:
                        usable |= 1 << j
                bundle, _ = _choose_bundle(instance, i, t_i, row, usable, mask, sub_fam)
                w = f * p_state
                t = bundle
                while t:
                    j = (t & -t).bit_length() - 1
                    profit += w * (row[j] - cvec[j])
                    t &= t - 1
                nmask = mask | _pairs_mask(i, m, bundle)
                nxt[nmask] = nxt.get(nmask, ZERO) + w
        states = nxt
    return profit


def construct_csip_from_copies(instance: Instance, markup_rule: str = "auto"):
    """Item prices cost-plus-markup targeting the copies benchmark.

    Additive single buyer: per-item monopoly markups (profit equals the copies
    optimum). Otherwise: per cost atom, the best of virtual-surplus threshold
    price vectors and per-item monopoly vectors, under a unit-demand
    sub-constraint when there are several buyers.
    """
    from .model import AuctionFeasibility, UnitDemandPairs
    from .myerson import virtual_values

    n, m = instance.n, instance.m
    order = tuple(range(n))
    additive = (
        n == 1
        and instance.families[0].kind == "uniform"
        and instance.families[0].rank == m
    )
    prices = {}
    if additive and markup_rule in ("auto", "monopoly"):
        for c_idx, (cvec, _) in enumerate(instance.costs.atoms):
            for j in range(m):
                d = instance.dists[0][j]
                best_p, best_rev = d.support[-1] + 1, ZERO  # unsold fallback
                for p in d.support:
                    if p < cvec[j]:
                        continue
                    rev = (p - cvec[j]) * d.pr_geq(p)
                    if rev >= best_rev and rev > 0:
                        best_p, best_rev = p, rev
                prices[(0, j, c_idx)] = best_p
        return MechanismSpec("IP", prices, order=order, note="per-item monopoly markup")

    sub = None
    kind = "IP" if n == 1 else "CSIP"
    if n > 1:
        ud = UnitDemandPairs(AuctionFeasibility(instance))
        sub = {c: ud for c in range(len(instance.costs))}
    tables = [
        [virtual_values(instance.dists[i][j]) for j in range(m)] for i in range(n)
    ]
    for c_idx, (cvec, _) in enumerate(instance.costs.atoms):
        sub_fam = sub[c_idx] if sub else None
        thresholds = sorted(
            {
                tables[i][j].ironed[k] - cvec[j]
                for i in range(n)
                for j in range(m)
                for k in range(len(instance.dists[i][j]))
                if tables[i][j].ironed[k] - cvec[j] > 0
            }
        )
        candidates = []
        for theta in thresholds:
            vec = []
            for i in range(n):
                row = []
                for j in range(m):
                    d = instance.dists[i][j]
                    p = None
                    for k, t in enumerate(d.support):
                        if tables[i][j].ironed[k] - cvec[j] >= theta:
                            p = t
                            break
                    row.append(p if p is not None else d.support[-1] + 1)
                vec.append(tuple(row))
            candidates.append(tuple(vec))
        # per-item monopoly vector as a further candidate
        vec = []
        for i in range(n):
            row = []
            for j in range(m):
                d = instance.dists[i][j]
                best_p, best_rev = d.support[-1] + 1, ZERO
                for p in d.support:
                    if p < cvec[j]:
                        continue
                    rev = (p - cvec[j]) * d.pr_geq(p)
                    if rev >= best_rev and rev > 0:
                        best_p, best_rev = p, rev
                row.append(best_p)
            vec.append(tuple(row))
        candidates.append(tuple(vec))
        best_vec, best_profit = None, None
        for vec in candidates:
            pf = _csip_profit_under_atom(instance, vec, c_idx, sub_fam, order)
            if best_profit is None or pf > best_profit:
                best_vec, best_profit = vec, pf
        for i in range(n):
            for j in range(m):
                prices[(i, j, c_idx)] = best_vec[i][j]
    return MechanismSpec(
        kind, prices, sub_constraint=sub, order=order, note="copies threshold markup"
    )


def _beta_price_table(instance: Instance, exa: ExAnte):
    prices, allow = {}, {}
    for i in range(instance.n):
        for j in range(instance.m):
            for c_idx in range(len(instance.costs)):
                c_j = instance.costs.vector(c_idx)[j]
                b = exa.beta.get(i, j, c_idx)
                prices[(i, j, c_idx)] = b if b > c_j else c_j
                allow[(i, j, c_idx)] = exa.rho[(i, j, c_idx)]
    return prices, allow


def construct_rspp_tail(instance: Instance, exa: ExAnte, xi: dict) -> MechanismSpec:
    """Permit price half of xi_ij with cost-thresholded item prices; hides items
    down to availability exactly one half. Requires the willingness sums
    sum_j Pr[surplus_ij >= xi_ij] <= 1/2 per buyer."""
    tables = surplus_tables(instance, exa.beta)
    for i in range(instance.n):
        tot = ZERO
        for j in range(instance.m):
            a = xi.get((i, j))
            if a is None:
                continue
            d = instance.dists[i][j]
            tot += sum(
                (p for t, p in zip(d.support, d.probs) if tables[i][j][t] >= a),
                ZERO,
            )
        if tot > HALF:
            raise ConstructionError(
                f"buyer {i} willingness sum {tot} exceeds 1/2 for the tail prices"
            )
    prices, allow = _beta_price_table(instance, exa)
    permit = {
        (i, j): (None if xi.get((i, j)) is None else HALF * xi[(i, j)])
        for i in range(instance.n)
        for j in range(instance.m)
    }
    return MechanismSpec(
        "RSPP",
        prices,
        tie_allow=allow,
        permit_prices=permit,
        hide_to_half=True,
        order=tuple(range(instance.n)),
        note="tail permit prices",
    )


def construct_rspp_tau(instance: Instance, exa: ExAnte, tau) -> MechanismSpec:
    """Every permit of buyer i priced at tau_i / 2 (cost-thresholded item prices,
    canonical hiding). Whenever any single-permit surplus reaches tau_i the buyer
    pays tau_i / 2, which pins the total threshold sum to the mechanism's profit."""
    prices, allow = _beta_price_table(instance, exa)
    permit = {
        (i, j): HALF * tau[i]
        for i in range(instance.n)
        for j in range(instance.m)
    }
    return MechanismSpec(
        "RSPP",
        prices,
        tie_allow=allow,
        permit_prices=permit,
        hide_to_half=True,
        order=tuple(range(instance.n)),
        note="threshold permit prices",
    )


def construct_spb_core(instance: Instance, exa: ExAnte, delta) -> MechanismSpec:
    """Permit bundle at delta_i (half the lower median of the truncated surplus)
    with cost-thresholded item prices."""
    prices, allow = _beta_price_table(instance, exa)
    kind = "PB" if instance.n == 1 else "SPB"
    return MechanismSpec(
        kind,
        prices,
        tie_allow=allow,
        bundle_prices={i: delta[i] for i in range(instance.n)},
        order=tuple(range(instance.n)),
        note="median bundle price",
    )


# -- Reduction from auxiliary revenue mechanisms --------------------------------


@dataclass(eq=False)
class AuxMechanism:
    """A direct mechanism selling permit sets against the surplus valuation:
    per buyer type, a distribution over permit masks and a payment. The
    posted-price ones also keep their per-permit or bundle price."""

    instance: Instance
    alloc: dict  # ti_idx -> tuple of (mask, prob)
    payment: dict  # ti_idx -> Q
    permit_prices: tuple = None  # per item, when permits are sold separately
    bundle_price: Q = None  # when only the grand bundle is sold

    def revenue(self) -> Q:
        fp = self.instance.buyer_type_probs(0)
        return sum(
            (fp[k] * self.payment.get(k, ZERO) for k in range(len(fp))), ZERO
        )


def aux_sell_separately(instance: Instance, permit_prices) -> AuxMechanism:
    """Best-response permit purchases at the given per-permit prices (n = 1)."""
    alloc, payment = {}, {}
    for ti_idx, t_i in enumerate(instance.buyer_types(0)):
        best = None
        for pm in range(1 << instance.m):
            pay = ZERO
            t = pm
            while t:
                j = (t & -t).bit_length() - 1
                pay += permit_prices[j]
                t &= t - 1
            u = vbar(instance, 0, t_i, pm) - pay
            key = (u, bin(pm).count("1"), -pm)
            if best is None or key > best[0]:
                best = (key, pm, pay)
        alloc[ti_idx] = ((best[1], ONE),)
        payment[ti_idx] = best[2]
    return AuxMechanism(instance, alloc, payment, permit_prices=tuple(permit_prices))


def aux_grand_bundle(instance: Instance, delta) -> AuxMechanism:
    alloc, payment = {}, {}
    full = instance.full_mask()
    for ti_idx, t_i in enumerate(instance.buyer_types(0)):
        if vbar(instance, 0, t_i, full) >= delta:
            alloc[ti_idx] = ((full, ONE),)
            payment[ti_idx] = delta
        else:
            alloc[ti_idx] = ((0, ONE),)
            payment[ti_idx] = ZERO
    return AuxMechanism(instance, alloc, payment, bundle_price=delta)


def check_aux_truthful(aux: AuxMechanism):
    """Exhaustive one-buyer truthfulness and IR of the auxiliary mechanism
    under the surplus valuation."""
    inst = aux.instance
    types = inst.buyer_types(0)

    def util(ti_idx, rep_idx):
        t_i = types[ti_idx]
        u = -aux.payment.get(rep_idx, ZERO)
        for mask, pr in aux.alloc.get(rep_idx, ((0, ONE),)):
            u += pr * vbar(inst, 0, t_i, mask)
        return u

    for ti_idx in range(len(types)):
        truth = util(ti_idx, ti_idx)
        if truth < 0:
            raise ConstructionError(f"auxiliary mechanism violates IR at type {ti_idx}")
        for rep in range(len(types)):
            if rep != ti_idx and util(ti_idx, rep) > truth:
                raise ConstructionError(
                    f"auxiliary mechanism not truthful: {ti_idx} gains reporting {rep}"
                )


def convert_revenue_to_permit(instance: Instance, aux: AuxMechanism) -> MechanismSpec:
    """Lift a posted-price auxiliary permit mechanism to the two-stage profit
    mechanism: stage 1 sells the same permits at the same prices, stage 2
    sells every permitted item at cost. Checks truthfulness first. The
    reduction claims that the exact profit of the returned PP or PB spec
    equals the auxiliary revenue; callers check that through evaluate()."""
    if instance.n != 1:
        raise ValueError("the permit reduction is a single-buyer construction")
    check_aux_truthful(aux)
    if aux.permit_prices is not None:
        return _pp_spec(
            instance, {(0, j): p for j, p in enumerate(aux.permit_prices)}
        )
    if aux.bundle_price is not None:
        return _pb_spec(instance, aux.bundle_price)
    raise ValueError("only posted permit or bundle prices lift to a mechanism spec")


# -- Family search ---------------------------------------------------------------


def _additive_family(instance):
    f = instance.families[0]
    return f.kind == "uniform" and f.rank == instance.m


def default_grid(instance: Instance, kind: str):
    """Candidate price grids: support values and their differences with costs
    (plus zero) for item prices; achievable surplus values for permit prices."""
    if kind == "IP":
        grids = {}
        for c_idx, (cvec, _) in enumerate(instance.costs.atoms):
            for j in range(instance.m):
                vals = {ZERO}
                top = ZERO
                for i in range(instance.n):
                    for t in instance.dists[i][j].support:
                        vals.add(t)
                        top = max(top, t)
                        if t - cvec[j] > 0:
                            vals.add(t - cvec[j])
                vals.add(top + 1)  # never-sell price
                grids[(j, c_idx)] = tuple(sorted(vals))
        return grids
    if kind == "PP":
        grids = {}
        for j in range(instance.m):
            vals = {ZERO}
            for t_i in instance.buyer_types(0):
                base = instance.full_mask() & ~(1 << j)
                for sub in (0, base):
                    gain = vbar(instance, 0, t_i, sub | (1 << j)) - vbar(
                        instance, 0, t_i, sub
                    )
                    if gain > 0:
                        vals.add(gain)
            grids[j] = tuple(sorted(vals))
        return grids
    if kind == "PB":
        vals = {ZERO}
        for t_i in instance.buyer_types(0):
            vals.add(vbar(instance, 0, t_i, instance.full_mask()))
        return tuple(sorted(vals))
    raise ValueError(f"no default grid for kind {kind}")


def search_best(instance: Instance, kind: str, grid=None, guard: int = 1_000_000):
    """Best mechanism of the family on the candidate grid. Exact family optimum
    for PB and for additive IP / PP; a certified grid optimum (lower bound on
    the family optimum) otherwise."""
    if instance.n != 1:
        raise ValueError("search_best covers the single-buyer families")
    if kind not in ("IP", "PP", "PB"):
        raise ValueError(f"search_best does not handle kind {kind}")
    if grid is None:
        grid = default_grid(instance, kind)
    m = instance.m
    additive = _additive_family(instance)

    if kind == "PB":
        if not grid:
            raise ValueError("empty candidate grid")
        best_delta, best_profit = ZERO, ZERO
        fp = instance.buyer_type_probs(0)
        vals = [
            vbar(instance, 0, t_i, instance.full_mask())
            for t_i in instance.buyer_types(0)
        ]
        for delta in grid:
            rev = delta * sum(
                (fp[k] for k in range(len(fp)) if vals[k] >= delta), ZERO
            )
            if rev > best_profit:
                best_delta, best_profit = delta, rev
        spec = _pb_spec(instance, best_delta)
        res = evaluate(instance, spec)
        if res.profit != best_profit:
            raise AssertionError("PB search disagrees with evaluator")
        res.lower_bound_only = False
        return spec, res

    if kind == "IP":
        prices = {}
        if additive:
            for c_idx, (cvec, _) in enumerate(instance.costs.atoms):
                for j in range(m):
                    d = instance.dists[0][j]
                    best_p, best_r = d.support[-1] + 1, ZERO
                    for p in grid[(j, c_idx)]:
                        r = (p - cvec[j]) * d.pr_geq(p)
                        if r > best_r:
                            best_p, best_r = p, r
                    prices[(0, j, c_idx)] = best_p
            spec = MechanismSpec("IP", prices, order=(0,))
            return spec, evaluate(instance, spec)
        total = 1
        for c_idx in range(len(instance.costs)):
            for j in range(m):
                total *= len(grid[(j, c_idx)])
        if total > guard:
            raise ValueError(f"IP grid size {total} exceeds guard {guard}")
        for c_idx in range(len(instance.costs)):
            jgrids = [grid[(j, c_idx)] for j in range(m)]
            best_vec, best_profit = None, None
            for combo in product(*jgrids):
                pf = _csip_profit_under_atom(instance, (combo,), c_idx, None, (0,))
                if best_profit is None or pf > best_profit:
                    best_vec, best_profit = combo, pf
            for j in range(m):
                prices[(0, j, c_idx)] = best_vec[j]
        spec = MechanismSpec("IP", prices, order=(0,))
        res = evaluate(instance, spec)
        res.lower_bound_only = True
        return spec, res

    # PP
    if additive:
        permit = {}
        tables = surplus_tables(instance, None)
        for j in range(m):
            d = instance.dists[0][j]
            best_l, best_r = ZERO, ZERO
            for l in grid[j]:
                r = l * sum(
                    (
                        p
                        for t, p in zip(d.support, d.probs)
                        if tables[0][j][t] >= l
                    ),
                    ZERO,
                )
                if r > best_r:
                    best_l, best_r = l, r
            permit[(0, j)] = best_l
        spec = _pp_spec(instance, permit)
        return spec, evaluate(instance, spec)
    total = 1
    for j in range(m):
        total *= len(grid[j])
    if total > guard:
        raise ValueError(f"PP grid size {total} exceeds guard {guard}")
    best_spec, best_res = None, None
    for combo in product(*(grid[j] for j in range(m))):
        spec = _pp_spec(instance, {(0, j): combo[j] for j in range(m)})
        res = evaluate(instance, spec)
        if best_res is None or res.profit > best_res.profit:
            best_spec, best_res = spec, res
    best_res.lower_bound_only = True
    return best_spec, best_res


def _cost_price_table(instance):
    return {
        (i, j, c_idx): instance.costs.vector(c_idx)[j]
        for i in range(instance.n)
        for j in range(instance.m)
        for c_idx in range(len(instance.costs))
    }


def _pp_spec(instance, permit_prices):
    return MechanismSpec(
        "PP",
        _cost_price_table(instance),
        permit_prices=permit_prices,
        order=tuple(range(instance.n)),
    )


def _pb_spec(instance, delta):
    return MechanismSpec(
        "PB",
        _cost_price_table(instance),
        bundle_prices={0: delta},
        order=tuple(range(instance.n)),
    )
