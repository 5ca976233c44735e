"""The optimal-profit linear program over direct, BIC, interim-IR mechanisms.

Allocations are parameterized by probabilities over feasible joint pair sets
per (type profile, cost atom), so feasibility is exact by construction.
Payments enter the constraints and objective only through their cost-atom
expectation, so one payment variable per (buyer, type) suffices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .model import AuctionFeasibility, Instance
from .rational import Q, ONE, ZERO
from .simplex import LinearProgram, SimplexResult, solve


class SizeGuardExceeded(Exception):
    pass


@dataclass(eq=False)
class DirectMechanism:
    """Ex-post allocation distributions and payments per (type profile, cost atom)."""

    instance: Instance
    alloc: dict  # (profile combo, c_idx) -> tuple of (pair_mask, prob); rest on empty
    payments: dict  # (profile combo, c_idx) -> tuple of per-buyer payments

    def __post_init__(self):
        self._interim = None
        feas = AuctionFeasibility(self.instance)
        for key, dist in self.alloc.items():
            tot = sum((p for _, p in dist), ZERO)
            if tot > 1 or any(p < 0 for _, p in dist):
                raise ValueError(f"allocation distribution invalid at {key}")
            for mask, _ in dist:
                if not feas.contains(mask):
                    raise ValueError(f"infeasible allocation {mask:b} at {key}")

    @staticmethod
    def zero(instance: Instance) -> "DirectMechanism":
        return DirectMechanism(instance, {}, {})

    def alloc_dist(self, combo, c_idx):
        return self.alloc.get((combo, c_idx), ())

    def payment(self, combo, c_idx, i) -> Q:
        row = self.payments.get((combo, c_idx))
        return row[i] if row is not None else ZERO

    def interim(self):
        """pi[i][ti_idx][c_idx][j]: interim allocation probabilities."""
        if self._interim is not None:
            return self._interim
        inst = self.instance
        pi = [
            [
                [[ZERO] * inst.m for _ in inst.costs.atoms]
                for _ in inst.buyer_types(i)
            ]
            for i in range(inst.n)
        ]
        fprobs = [inst.buyer_type_probs(i) for i in range(inst.n)]
        for combo, pp in inst.profiles():
            for c_idx in range(len(inst.costs)):
                dist = self.alloc_dist(combo, c_idx)
                if not dist:
                    continue
                for mask, pr_a in dist:
                    if pr_a == 0:
                        continue
                    t = mask
                    while t:
                        bit = (t & -t).bit_length() - 1
                        i, j = divmod(bit, inst.m)
                        pi[i][combo[i]][c_idx][j] += (
                            pp / fprobs[i][combo[i]] * pr_a
                        )
                        t &= t - 1
        self._interim = pi
        return pi

    def profit(self) -> Q:
        """Expected revenue minus realized production cost, recomputed ex post."""
        inst = self.instance
        out = ZERO
        for combo, pp in inst.profiles():
            for c_idx, (cvec, pc) in enumerate(inst.costs.atoms):
                w = pp * pc
                pay = self.payments.get((combo, c_idx))
                if pay is not None:
                    out += w * sum(pay, ZERO)
                for mask, pr_a in self.alloc_dist(combo, c_idx):
                    t = mask
                    while t:
                        bit = (t & -t).bit_length() - 1
                        out -= w * pr_a * cvec[bit % inst.m]
                        t &= t - 1
        return out

    def bic_violations(self):
        """All (i, true type, report, gain) where misreporting strictly gains;
        the report None is non-participation (checks interim IR)."""
        inst = self.instance
        pi = self.interim()
        out = []
        for i in range(inst.n):
            types = inst.buyer_types(i)
            # c-expected interim payment per type

            pays = [ZERO] * len(types)
            fp = inst.buyer_type_probs(i)
            for combo, pp in inst.profiles():
                for c_idx, (_, pc) in enumerate(inst.costs.atoms):
                    pays[combo[i]] += pp / fp[combo[i]] * pc * self.payment(combo, c_idx, i)
            def util(ti_idx, rep_idx):
                t_i = types[ti_idx]
                u = -pays[rep_idx]
                for c_idx, (_, pc) in enumerate(inst.costs.atoms):
                    u += pc * sum(
                        (t_i[j] * pi[i][rep_idx][c_idx][j] for j in range(inst.m)),
                        ZERO,
                    )
                return u
            for ti_idx in range(len(types)):
                truth = util(ti_idx, ti_idx)
                if truth < 0:
                    out.append((i, ti_idx, None, -truth))
                for rep in range(len(types)):
                    if rep != ti_idx and util(ti_idx, rep) > truth:
                        out.append((i, ti_idx, rep, util(ti_idx, rep) - truth))
        return out


@dataclass(eq=False)
class ProfitLP:
    instance: Instance
    lp: LinearProgram
    feas_members: tuple  # nonempty members of the joint constraint
    z_index: dict  # (profile_pos, c_idx, member_pos) -> col
    pay_index: dict  # (i, ti_idx) -> (col_plus, col_minus)
    bic_rows: dict  # (i, ti_idx, target) -> row; target is ti'_idx or None for opt-out
    profile_list: tuple  # combos in enumeration order


@dataclass(eq=False)
class LPSolution:
    objective: Q
    mechanism: DirectMechanism
    lam: dict  # (i, from_ti_idx, to) -> Q, to = ti'_idx or None for the sink
    iterations: int
    path: str  # how the simplex proved the optimum: "certified" or "exact"


def build_profit_lp(instance: Instance, guard: int = 200_000) -> ProfitLP:
    feas = AuctionFeasibility(instance)
    members = tuple(a for a in feas.members() if a)
    profiles = tuple(combo for combo, _ in instance.profiles())
    n_z = len(profiles) * len(instance.costs) * len(members)
    if n_z > guard:
        raise SizeGuardExceeded(
            f"{len(profiles)} profiles x {len(instance.costs)} atoms x "
            f"{len(members)} allocations = {n_z} variables exceeds guard {guard}"
        )
    lp = LinearProgram()
    prof_probs = dict(instance.profiles())
    atom_cost = []  # cost of member under atom
    for _, (cvec, _) in enumerate(instance.costs.atoms):
        row = []
        for a in members:
            tot = ZERO
            t = a
            while t:
                bit = (t & -t).bit_length() - 1
                tot += cvec[bit % instance.m]
                t &= t - 1
            row.append(tot)
        atom_cost.append(row)

    z_index = {}
    for p_pos, combo in enumerate(profiles):
        pp = prof_probs[combo]
        for c_idx, (_, pc) in enumerate(instance.costs.atoms):
            cols = lp.add_cols(len(members))
            row = {}
            for a_pos, col in enumerate(cols):
                z_index[(p_pos, c_idx, a_pos)] = col
                cost = atom_cost[c_idx][a_pos]
                if cost:
                    lp.set_obj(col, -pp * pc * cost)
                row[col] = Q(1)
            lp.add_row(row, 1)

    pay_index = {}
    for i in range(instance.n):
        fp = instance.buyer_type_probs(i)
        for ti_idx in range(len(instance.buyer_types(i))):
            cp = lp.add_col(fp[ti_idx])
            cm = lp.add_col(-fp[ti_idx])
            pay_index[(i, ti_idx)] = (cp, cm)

    # value of member a to buyer i with type t_i: sum of t_ij over i's pairs in a
    member_ipart = [
        [(feas.buyer_part(a, i)) for a in members] for i in range(instance.n)
    ]

    profile_pos = {combo: p for p, combo in enumerate(profiles)}
    bic_rows = {}
    for i in range(instance.n):
        types = instance.buyer_types(i)
        others = [
            list(range(len(instance.buyer_types(k))))
            for k in range(instance.n)
            if k != i
        ]
        other_probs = [
            instance.buyer_type_probs(k) for k in range(instance.n) if k != i
        ]
        other_combos = []
        for rest in product(*others):
            w = Q(1)
            for pos, tk in enumerate(rest):
                w *= other_probs[pos][tk]
            other_combos.append((rest, w))

        def full_combo(ti_idx, rest):
            c = list(rest)
            c.insert(i, ti_idx)
            return tuple(c)

        for ti_idx, t_i in enumerate(types):
            # value to true type t_i of each member's i-part (shared across rows)
            val = []
            for a_pos in range(len(members)):
                part = member_ipart[i][a_pos]
                tot = ZERO
                t = part
                while t:
                    j = (t & -t).bit_length() - 1
                    tot += t_i[j]
                    t &= t - 1
                val.append(tot)

            def alloc_terms(rep_idx, sign):
                # t_i's expected value, times sign, when reporting rep_idx
                out = {}
                for rest, w in other_combos:
                    p_pos = profile_pos[full_combo(rep_idx, rest)]
                    for c_idx, (_, pc) in enumerate(instance.costs.atoms):
                        scale = sign * w * pc
                        for a_pos in range(len(members)):
                            if val[a_pos]:
                                out[z_index[(p_pos, c_idx, a_pos)]] = scale * val[a_pos]
                return out

            truthful = alloc_terms(ti_idx, -ONE)  # shared by every row below
            cp, cm = pay_index[(i, ti_idx)]
            for target in list(range(len(types))) + [None]:
                # row: [deviation utility] - [truthful utility] <= 0
                if target == ti_idx:
                    bic_rows[(i, ti_idx, target)] = lp.add_row({}, 0)  # vacuous
                    continue
                coeffs = dict(truthful)
                coeffs[cp], coeffs[cm] = ONE, -ONE
                if target is not None:
                    # other reports occupy other profiles, so other columns
                    coeffs.update(alloc_terms(target, ONE))
                    tp, tm = pay_index[(i, target)]
                    coeffs[tp], coeffs[tm] = -ONE, ONE
                bic_rows[(i, ti_idx, target)] = lp.add_row(coeffs, 0)

    return ProfitLP(instance, lp, members, z_index, pay_index, bic_rows, profiles)


def solve_lp(model: ProfitLP) -> LPSolution:
    res: SimplexResult = solve(model.lp)
    inst = model.instance
    alloc = {}
    for (p_pos, c_idx, a_pos), col in model.z_index.items():
        v = res.primal.get(col)
        if v:
            key = (model.profile_list[p_pos], c_idx)
            alloc.setdefault(key, []).append((model.feas_members[a_pos], v))
    alloc = {k: tuple(v) for k, v in alloc.items()}
    payments = {}
    pay_by_type = {}
    for (i, ti_idx), (cp, cm) in model.pay_index.items():
        pay_by_type[(i, ti_idx)] = res.primal.get(cp, ZERO) - res.primal.get(cm, ZERO)
    for combo in model.profile_list:
        row = tuple(pay_by_type[(i, combo[i])] for i in range(inst.n))
        if any(row):
            for c_idx in range(len(inst.costs)):
                payments[(combo, c_idx)] = row
    mech = DirectMechanism(inst, alloc, payments)
    lam = {}
    for (i, ti_idx, target), r in model.bic_rows.items():
        y = res.duals[r]
        if y < 0:
            raise AssertionError("negative dual multiplier on a BIC row")
        if target == ti_idx:
            continue  # vacuous self-report row
        lam[(i, ti_idx, target)] = y
    sol = LPSolution(res.objective, mech, lam, res.iterations, res.path)
    if mech.profit() != res.objective:
        raise AssertionError("re-evaluated mechanism profit differs from LP objective")
    _check_flow_conservation(inst, lam)
    _check_complementary_slackness(model, res)
    return sol


def solve_profit_lp(instance: Instance, guard: int = 200_000) -> LPSolution:
    return solve_lp(build_profit_lp(instance, guard))


def _check_flow_conservation(instance: Instance, lam: dict):
    """Optimal BIC/IR multipliers form a flow: f(t) + inflow = outflow per node."""
    for i in range(instance.n):
        fp = instance.buyer_type_probs(i)
        k = len(instance.buyer_types(i))
        for ti in range(k):
            inflow = sum(
                (lam.get((i, s, ti), ZERO) for s in range(k) if s != ti), ZERO
            )
            outflow = sum(
                (lam.get((i, ti, t), ZERO) for t in list(range(k)) + [None] if t != ti),
                ZERO,
            )
            if fp[ti] + inflow != outflow:
                raise AssertionError(
                    f"flow conservation fails at buyer {i} type {ti}: "
                    f"{fp[ti]} + {inflow} != {outflow}"
                )


def _check_complementary_slackness(model: ProfitLP, res: SimplexResult):
    """Rows with positive multiplier must be tight."""
    for r, y in enumerate(res.duals):
        if y == 0:
            continue
        activity = sum(
            (v * res.primal.get(j, ZERO) for j, v in model.lp.rows[r].items()),
            ZERO,
        )
        if activity != model.lp.rhs[r]:
            raise AssertionError(f"row {r} has positive dual but positive slack")


def virtual_value_vector(instance: Instance, lam: dict, i: int, ti_idx: int):
    """Phi_i(t_i) = t_i - (1/f(t_i)) * sum_t' lam(t', t_i) (t' - t_i), per coordinate."""
    types = instance.buyer_types(i)
    t_i = types[ti_idx]
    f = instance.buyer_type_probs(i)[ti_idx]
    phi = list(t_i)
    for s, t_s in enumerate(types):
        if s == ti_idx:
            continue
        w = lam.get((i, s, ti_idx), ZERO)
        if w:
            for j in range(instance.m):
                phi[j] -= w * (t_s[j] - t_i[j]) / f
    return tuple(phi)


def verify_virtual_bound(instance: Instance, mechanism: DirectMechanism, lam: dict):
    """Check Profit(M) <= E[sum_i pi_i . (Phi_i - c)] for a conserved flow lam."""
    _check_flow_conservation(instance, lam)
    pi = mechanism.interim()
    bound = ZERO
    for i in range(instance.n):
        fp = instance.buyer_type_probs(i)
        for ti_idx in range(len(instance.buyer_types(i))):
            phi = virtual_value_vector(instance, lam, i, ti_idx)
            for c_idx, (cvec, pc) in enumerate(instance.costs.atoms):
                for j in range(instance.m):
                    x = pi[i][ti_idx][c_idx][j]
                    if x:
                        bound += fp[ti_idx] * pc * x * (phi[j] - cvec[j])
    profit = mechanism.profit()
    return {
        "profit": profit,
        "virtual_welfare_bound": bound,
        "holds": profit <= bound,
    }


def dump_lp_text(model: ProfitLP, path: str):
    """Write the program in CPLEX LP text format (floats; for external cross-checks)."""
    lp = model.lp
    def term(coef, j):
        return f"{'+' if coef >= 0 else '-'} {abs(float(coef))} x{j} "
    lines = ["Maximize", " obj: "]
    for j, c in sorted(lp.obj.items()):
        lines.append(term(c, j))
    lines.append("\nSubject To\n")
    for r, row in enumerate(lp.rows):
        lines.append(f" r{r}: ")
        for j, c in sorted(row.items()):
            lines.append(term(c, j))
        lines.append(f"<= {float(lp.rhs[r])}\n")
    lines.append("End\n")
    with open(path, "w") as fh:
        fh.write("".join(lines))
