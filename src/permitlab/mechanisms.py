"""Posted-price and permit-selling mechanism families and their evaluation.

Six kinds: IP (item pricing, one buyer), PP (permit pricing, one buyer),
PB (permit bundling, one buyer), and the sequential multi-buyer variants
CSIP / RSPP / SPB. One exact evaluator drives all of them: it tracks the
distribution over sold buyer-item pairs cost atom by cost atom, enumerates
hiding and rationing coins exactly, and lets each buyer best-respond. Its
first stage is one permit chooser: ``_permit_cands`` lists the (permit set,
payment) pairs a buyer may buy and ``_choose_permits`` picks one by one tie
rule; the auxiliary revenue mechanisms and search_best's permit grids reuse
both with the surplus valuation vbar as the utility, read from the instance's
one surplus table (``model.surplus_table``), never recomputed per call. Its
second stage is one step per (buyer, cost atom), which the item-pricing
searches reuse; Monte-Carlo reuses its eligibility rule and its stage-1 plan,
without a full evaluation. The evaluator's own stage-1 utility
(``_expected_utility``) keeps its availability and coin enumeration, so that
the permit reduction and search_best's final evaluate call compare the table
with an independent path.

Buyers buy on ties (zero-surplus purchases happen, larger bundles win ties);
rationing at a price boundary is a seller-side coin granting eligibility
with the stored probability, which never changes buyer surplus.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, product

from .benchmark import ExAnte, surplus_tables, willingness
from .model import Instance, effective_price, iter_subsets, popcount, surplus_table
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


def _item_bits(n: int, m: int, j: int) -> int:
    out = 0
    for i in range(n):
        out |= 1 << (i * m + j)
    return out


def _pairs_mask(i: int, m: int, item_mask: int) -> int:
    return item_mask << (i * m)


def _coin_split(candidates, weight):
    """candidates: list of (j, prob usable). Yields (usable_mask, weight times
    the mask's probability)."""
    certain = 0
    rand = []
    for j, u in candidates:
        if u >= 1:
            certain |= 1 << j
        elif u > 0:
            rand.append((j, u))
    for bits in range(1 << len(rand)):
        mask = certain
        w = weight
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
            for umask, w in _coin_split(cands, pc * p_state):
                total += w * instance.families[i].max_weight_value(weights, umask)
    return total


def _permit_cands(instance, i, spec: MechanismSpec):
    """The (permit mask, stage-1 payment) pairs buyer i may buy: nothing or
    the grand bundle (PB, SPB), every permit for free (CSIP, IP), nothing or
    one priced permit (RSPP), or any set of priced permits (PP)."""
    if spec.kind in ("PB", "SPB"):
        return ((0, ZERO), (instance.full_mask(), spec.bundle_prices.get(i, ZERO)))
    if spec.kind in ("CSIP", "IP"):
        return ((instance.full_mask(), ZERO),)
    price = [spec.permit_prices.get((i, j)) for j in range(instance.m)]
    priced = [j for j, l in enumerate(price) if l is not None]
    if spec.kind == "RSPP":
        return ((0, ZERO),) + tuple((1 << j, price[j]) for j in priced)
    return tuple(
        (pm, sum((price[j] for j in priced if (pm >> j) & 1), ZERO))
        for pm in iter_subsets(sum(1 << j for j in priced))
    )


def _choose_permits(cands, utility):
    """The candidate maximizing utility(permit mask) - payment. Ties favor
    buying: larger sets first, then the smaller mask. A lone candidate is
    returned without calling utility."""
    if len(cands) == 1:
        return cands[0]
    return max(cands, key=lambda c: (utility(c[0]) - c[1], popcount(c[0]), -c[0]))


def best_response_permits(instance, i, t_i, spec: MechanismSpec, avail: AvailabilityModel):
    """Utility-maximizing permit purchase for one buyer against the expected
    second-stage surplus. Returns (permit mask, stage-1 payment)."""
    prices_by_atom = [
        tuple(spec.price(i, j, c) for j in range(instance.m))
        for c in range(len(instance.costs))
    ]
    return _choose_permits(
        _permit_cands(instance, i, spec),
        lambda pm: _expected_utility(instance, i, t_i, pm, avail, prices_by_atom),
    )


def _eligible(t_i, permits, prices, allow, keep):
    """(j, keep_j, elig_j) per permitted item the buyer may receive: items
    priced below the value always, items priced at it with the tie coin's
    probability; items that could never be received are left out."""
    out = []
    for j, p in enumerate(prices):
        if not (permits >> j) & 1:
            continue
        if t_i[j] > p:
            elig = ONE
        elif t_i[j] == p:
            elig = allow[j]
        else:
            continue
        if keep[j] and elig:
            out.append((j, keep[j], elig))
    return tuple(out)


def _second_stage(instance, i, decisions, prices, cvec, allow, keep, sub_fam, states):
    """One buyer's second stage under one cost atom: each type, with its
    stage-1 (permit mask, payment), sees the unsold items of every state,
    receives the eligible ones after the hiding and tie coins, and buys a best
    bundle. Returns the next distribution over sold pairs and the atom's
    expected revenue (stage-1 payments included) and cost."""
    n, m = instance.n, instance.m
    item_bits = [_item_bits(n, m, j) for j in range(m)]
    fprobs = instance.buyer_type_probs(i)
    nxt = {}
    bought = {}  # bundle -> probability
    for t_i, f, (permits, _) in zip(instance.buyer_types(i), fprobs, decisions):
        elig = [(j, k * e) for j, k, e in _eligible(t_i, permits, prices, allow, keep)]
        for mask, p_state in states.items():
            cands = [(j, u) for j, u in elig if not mask & item_bits[j]]
            for umask, w in _coin_split(cands, f * p_state):
                bundle, _ = _choose_bundle(instance, i, t_i, prices, umask, mask, sub_fam)
                bought[bundle] = bought.get(bundle, ZERO) + w
                nmask = mask | _pairs_mask(i, m, bundle)
                nxt[nmask] = nxt.get(nmask, ZERO) + w
    rev = sum((f * pay for f, (_, pay) in zip(fprobs, decisions) if pay), ZERO)
    cost = ZERO
    for bundle, w in bought.items():
        items = [j for j in range(m) if (bundle >> j) & 1]
        if items:
            rev += w * sum((prices[j] for j in items), ZERO)
            cost += w * sum((cvec[j] for j in items), ZERO)
    return nxt, rev, cost


def evaluate(
    instance: Instance, spec: MechanismSpec, guard: int = 1_000_000, *, _plan: bool = False
) -> EvalResult:
    """Exact expected profit of a mechanism, plus event probabilities. With
    _plan, only stage1 and keep_probs, running a buyer's second stage only when
    a later buyer's stage 1 reads availability (several permit candidates, or
    RSPP hiding down to 1/2)."""
    n, m = instance.n, instance.m
    if spec.kind in ("IP", "PP", "PB") and n != 1:
        raise ValueError(f"{spec.kind} is a single-buyer mechanism")
    if instance.n_profiles() * len(instance.costs) > guard:
        raise ValueError("instance too large for exact mechanism evaluation")
    n_atoms = len(instance.costs)
    order = spec.buyer_order(n)
    hides = spec.kind == "RSPP" and spec.hide_to_half
    # with _plan: per position, whether that buyer's stage 1 reads availability
    reads = [hides or len(_permit_cands(instance, i, spec)) > 1 for i in order] if _plan else ()
    item_bits = [_item_bits(n, m, j) for j in range(m)]
    states = [{0: ONE} for _ in range(n_atoms)]
    revenue = [ZERO] * n
    cost = [ZERO] * n
    atom_profit = [ZERO] * n_atoms
    permit_buy = {}
    bundle_pay = {}
    stage1 = {}
    keep_probs = {}

    for pos, i in enumerate(order):
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
            if hides:
                for j in range(m):
                    a = sum((p for am, p in amasks.items() if (am >> j) & 1), ZERO)
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

        decisions = stage1[i] = tuple(
            best_response_permits(instance, i, t_i, spec, avail)
            for t_i in instance.buyer_types(i)
        )
        if _plan and not any(reads[pos + 1:]):
            continue
        for f, (permits, _) in zip(instance.buyer_type_probs(i), decisions):
            if spec.kind in ("PP", "RSPP"):
                t = permits
                while t:
                    j = (t & -t).bit_length() - 1
                    permit_buy[(i, j)] = permit_buy.get((i, j), ZERO) + f
                    t &= t - 1
            if spec.kind in ("PB", "SPB") and permits:
                bundle_pay[i] = bundle_pay.get(i, ZERO) + f
        for c_idx, (cvec, pc) in enumerate(instance.costs.atoms):
            states[c_idx], rev, cc = _second_stage(
                instance,
                i,
                decisions,
                tuple(spec.price(i, j, c_idx) for j in range(m)),
                cvec,
                tuple(spec.allow(i, j, c_idx) for j in range(m)),
                keep_rows[c_idx],
                spec.sub_constraint.get(c_idx) if spec.sub_constraint is not None else None,
                states[c_idx],
            )
            revenue[i] += pc * rev
            cost[i] += pc * cc
            atom_profit[c_idx] += rev - cc

    if _plan:
        return EvalResult(stage1=stage1, keep_probs=keep_probs)
    profit = sum(revenue, ZERO) - sum(cost, ZERO)
    check = sum((pc * a for (_, pc), a in zip(instance.costs.atoms, atom_profit)), ZERO)
    if profit != check:
        raise AssertionError("per-atom profit does not re-sum to total profit")
    return EvalResult(
        profit=profit,
        revenue=tuple(revenue),
        cost=tuple(cost),
        atom_profit=tuple(atom_profit),
        permit_buy_prob=permit_buy,
        bundle_pay_prob=bundle_pay,
        stage1=stage1,
        keep_probs=keep_probs,
    )


def monte_carlo_eval(
    instance: Instance, spec: MechanismSpec, samples: int, seed: int
) -> EvalResult:
    """Unbiased sampled profit with a 99% normal-approximation half-width.

    Stage-1 decisions depend on distributions, not draws, so the permit
    choices, payments and keep probabilities come from evaluate()'s recursion
    run as a plan, with its size guard and ConstructionError but no full
    evaluation (see evaluate's _plan). The atom and each type are drawn by one
    bisection of a cumulative list. A buyer's outcome is fixed by (buyer, type,
    atom, usable items, sold pairs), so it is computed once per key and call.
    Every draw, and the order in which floats are summed, is that of the plain
    per-sample loop.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    plan = evaluate(instance, spec, _plan=True)
    rand = random.Random(seed).random
    n, m = instance.n, instance.m
    n_atoms = len(instance.costs)
    order = spec.buyer_order(n)
    atom_cum = list(accumulate(float(pc) for _, pc in instance.costs.atoms))
    type_cums = [list(accumulate(map(float, instance.buyer_type_probs(i)))) for i in range(n)]

    # plans[i][t][c]: float stage-1 payment, and (item, its pair bits, float
    # usable probability) per eligible item in coin-draw order
    plans = {}
    for i in order:
        rows = [  # per atom: prices, tie coins and keep probabilities
            (
                tuple(spec.price(i, j, c_idx) for j in range(m)),
                tuple(spec.allow(i, j, c_idx) for j in range(m)),
                tuple(plan.keep_probs[(i, j, c_idx)] for j in range(m)),
            )
            for c_idx in range(n_atoms)
        ]
        plans[i] = []
        for t_idx, t_i in enumerate(instance.buyer_types(i)):
            permits, pay = plan.stage1[i][t_idx]
            per_atom = []
            for prices, allow, keep in rows:
                elig = _eligible(t_i, permits, prices, allow, keep)
                coins = tuple(
                    (j, _item_bits(n, m, j), float(k) * float(e)) for j, k, e in elig
                )
                per_atom.append((float(pay), coins))
            plans[i].append(per_atom)

    outcomes = {}  # (i, t, c, usable, sold) -> (pairs bought, float gains)
    total = 0.0
    total_sq = 0.0
    for _ in range(samples):
        c_idx = bisect_right(atom_cum, rand())
        if c_idx == n_atoms:  # rounding left the draw above every sum
            c_idx -= 1
        t_idx = []
        for cum in type_cums:
            t = bisect_right(cum, rand())
            t_idx.append(t if t < len(cum) else len(cum) - 1)
        sold = 0
        profit = 0.0
        for i in order:
            t = t_idx[i]
            pay, coins = plans[i][t][c_idx]
            profit += pay
            usable = 0
            for j, bits, u in coins:
                if not (sold & bits) and rand() < u:
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


def _sampled_outcome(instance, spec, key):
    """Pairs a buyer buys, and the float price - cost per bought item in
    ascending item order, at one realized (buyer, type, atom, usable, sold) key."""
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


def _ip_atom_profit(instance, prices, c_idx, sub_fam):
    """Exact conditional profit of item prices (one row per buyer) under one
    cost atom: the shared second stage with every item permitted, no stage-1
    payment and no hiding or tie coins, where eligibility is t_ij >= price."""
    m = instance.m
    cvec = instance.costs.vector(c_idx)
    ones = (ONE,) * m
    states = {0: ONE}
    profit = ZERO
    for i in range(instance.n):
        decisions = ((instance.full_mask(), ZERO),) * len(instance.buyer_types(i))
        states, rev, cost = _second_stage(
            instance, i, decisions, prices[i], cvec, ones, ones, sub_fam, states
        )
        profit += rev - cost
    return profit


def _monopoly_price(dist, c_j):
    """Support price maximizing (p - c_j) Pr[t >= p] over p >= c_j, the
    highest such price on ties; the never-sell price support[-1] + 1 when no
    price makes a profit."""
    best_p, best_rev = dist.support[-1] + 1, ZERO
    for p in dist.support:
        if p < c_j:
            continue
        rev = (p - c_j) * dist.pr_geq(p)
        if rev >= best_rev and rev > 0:
            best_p, best_rev = p, rev
    return best_p


def construct_csip_from_copies(instance: Instance):
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
    additive = n == 1 and _additive_family(instance)
    prices = {}
    if additive:
        for c_idx, (cvec, _) in enumerate(instance.costs.atoms):
            for j in range(m):
                prices[(0, j, c_idx)] = _monopoly_price(instance.dists[0][j], cvec[j])
        return MechanismSpec("IP", prices, order=order, note="per-item monopoly markup")

    sub = None
    kind = "IP" if n == 1 else "CSIP"
    if n > 1:
        ud = UnitDemandPairs(AuctionFeasibility(instance))
        sub = {c: ud for c in range(len(instance.costs))}
    tables = [
        [virtual_values(instance.dists[i][j]) for j in range(m)] for i in range(n)
    ]
    for c_idx in range(len(instance.costs)):
        sub_fam = sub[c_idx] if sub else None
        best_vec, best_profit = None, None
        # a repeated vector is scored once: the first best is kept on ties,
        # so dropping its later copies leaves the choice as it was
        for vec in dict.fromkeys(_copies_candidates(instance, tables, c_idx)):
            pf = _ip_atom_profit(instance, vec, c_idx, sub_fam)
            if best_profit is None or pf > best_profit:
                best_vec, best_profit = vec, pf
        for i in range(n):
            for j in range(m):
                prices[(i, j, c_idx)] = best_vec[i][j]
    return MechanismSpec(
        kind, prices, sub_constraint=sub, order=order, note="copies threshold markup"
    )


def _copies_candidates(instance: Instance, tables, c_idx: int) -> list:
    """The candidate price vectors (one row per buyer) of one cost atom, in
    scoring order, repeats included: for each positive ironed virtual surplus
    theta, ascending, every item priced at the lowest support value whose
    ironed virtual surplus reaches theta (never-sell when none does); then the
    per-item monopoly vector."""
    n, m = instance.n, instance.m
    cvec = instance.costs.vector(c_idx)
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
    candidates.append(
        tuple(
            tuple(_monopoly_price(instance.dists[i][j], cvec[j]) for j in range(m))
            for i in range(n)
        )
    )
    return candidates


def _beta_price_table(instance: Instance, exa: ExAnte):
    prices, allow = {}, {}
    for i in range(instance.n):
        for j in range(instance.m):
            for c_idx in range(len(instance.costs)):
                prices[(i, j, c_idx)] = effective_price(instance, exa.beta, i, j, c_idx)
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
            if xi.get((i, j)) is not None:
                tot += willingness(instance, tables, i, j, xi[(i, j)])
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


def _aux_posted(instance: Instance, spec: MechanismSpec, **prices) -> AuxMechanism:
    """Each type buys the permits that the spec's stage 1 sells it when its
    surplus valuation vbar is the second-stage utility (n = 1)."""
    cands = _permit_cands(instance, 0, spec)
    alloc, payment = {}, {}
    for ti_idx, row in enumerate(surplus_table(instance, 0)):
        pm, pay = _choose_permits(cands, row.__getitem__)
        alloc[ti_idx] = ((pm, ONE),)
        payment[ti_idx] = pay
    return AuxMechanism(instance, alloc, payment, **prices)


def aux_sell_separately(instance: Instance, permit_prices) -> AuxMechanism:
    """Best-response permit purchases at the given per-permit prices (n = 1)."""
    prices = tuple(permit_prices)
    spec = _pp_spec(instance, {(0, j): p for j, p in enumerate(prices)})
    return _aux_posted(instance, spec, permit_prices=prices)


def aux_grand_bundle(instance: Instance, delta) -> AuxMechanism:
    """Best-response purchases of the grand bundle at price delta (n = 1)."""
    return _aux_posted(instance, _pb_spec(instance, delta), bundle_price=delta)


def check_aux_truthful(aux: AuxMechanism):
    """Exhaustive one-buyer truthfulness and IR of the auxiliary mechanism
    under the surplus valuation."""
    vb = surplus_table(aux.instance, 0)

    def util(ti_idx, rep_idx):
        u = -aux.payment.get(rep_idx, ZERO)
        for mask, pr in aux.alloc.get(rep_idx, ((0, ONE),)):
            u += pr * vb[ti_idx][mask]
        return u

    for ti_idx in range(len(vb)):
        truth = util(ti_idx, ti_idx)
        if truth < 0:
            raise ConstructionError(f"auxiliary mechanism violates IR at type {ti_idx}")
        for rep in range(len(vb)):
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
    if kind not in ("PP", "PB"):
        raise ValueError(f"no default grid for kind {kind}")
    table = surplus_table(instance, 0)
    if kind == "PP":
        grids = {}
        for j in range(instance.m):
            vals = {ZERO}
            for row in table:
                for sub in (0, instance.full_mask() & ~(1 << j)):
                    gain = row[sub | (1 << j)] - row[sub]
                    if gain > 0:
                        vals.add(gain)
            grids[j] = tuple(sorted(vals))
        return grids
    return tuple(sorted({ZERO} | {row[instance.full_mask()] for row in table}))


def search_best(instance: Instance, kind: str, guard: int = 1_000_000):
    """Best mechanism of the family on the default candidate grid. Exact family
    optimum for PB and for additive IP / PP; a certified grid optimum (lower
    bound on the family optimum) otherwise.

    The PP and PB grids are scored from the instance's surplus table (items
    sell at cost, so a spec's profit is the stage-1 revenue of each type's
    best permit set under vbar); the winner is evaluated once, and evaluate
    must agree with its score."""
    if instance.n != 1:
        raise ValueError("search_best covers the single-buyer families")
    if kind not in ("IP", "PP", "PB"):
        raise ValueError(f"search_best does not handle kind {kind}")
    grid = default_grid(instance, kind)
    m = instance.m
    additive = _additive_family(instance)

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
                pf = _ip_atom_profit(instance, (combo,), c_idx, None)
                if best_profit is None or pf > best_profit:
                    best_vec, best_profit = combo, pf
            for j in range(m):
                prices[(0, j, c_idx)] = best_vec[j]
        spec = MechanismSpec("IP", prices, order=(0,))
        res = evaluate(instance, spec)
        res.lower_bound_only = True
        return spec, res

    if kind == "PP" and additive:
        permit = {}
        tables = surplus_tables(instance, None)
        for j in range(m):
            best_l, best_r = ZERO, ZERO
            for l in grid[j]:
                r = l * willingness(instance, tables, 0, j, l)
                if r > best_r:
                    best_l, best_r = l, r
            permit[(0, j)] = best_l
        spec = _pp_spec(instance, permit)
        return spec, evaluate(instance, spec)
    if kind == "PB":
        specs = (_pb_spec(instance, delta) for delta in grid)
    else:
        total = 1
        for j in range(m):
            total *= len(grid[j])
        if total > guard:
            raise ValueError(f"PP grid size {total} exceeds guard {guard}")
        specs = (
            _pp_spec(instance, {(0, j): combo[j] for j in range(m)})
            for combo in product(*(grid[j] for j in range(m)))
        )
    # items sell at cost, so each type's utility for a permit set is vbar
    # whatever the permit prices, and a spec's profit is its stage-1 revenue
    utility = surplus_table(instance, 0)
    best_profit, best_spec = max(
        ((_stage1_revenue(instance, utility, s), s) for s in specs), key=lambda x: x[0]
    )
    res = evaluate(instance, best_spec)
    if res.profit != best_profit:
        raise AssertionError(f"{kind} search disagrees with evaluator")
    res.lower_bound_only = kind == "PP"
    return best_spec, res


def _stage1_revenue(instance, utility, spec):
    """Expected stage-1 payment of the one buyer when type k's utility for
    permit mask P is utility[k][P]."""
    cands = _permit_cands(instance, 0, spec)
    return sum(
        (
            f * _choose_permits(cands, u.__getitem__)[1]
            for f, u in zip(instance.buyer_type_probs(0), utility)
        ),
        ZERO,
    )


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
