"""Reference computations made apart from permitlab, and the checks that use them.

Everything here reads an instance as its JSON payload (the format
``suites.build_corpus`` emits, rationals as "p/q" strings) and shares no code
with the package: feasibility, type distributions, the profit LP, first-best
welfare and the additive item-pricing formula are derived from the payload
alone. Each ``check_*`` function returns a list of problems; an empty list
means the check passed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import prod

# A HiGHS optimum and the exact optimum agree to this share of max(1, |opt|).
# HiGHS works to feasibility tolerances of 1e-7, so this is its accuracy, not
# slack chosen to pass: observed gaps are below 1e-14.
HIGHS_RTOL = 1e-7
# The 99% intervals must cover the exact profit on at least this share of pairs.
COVERAGE_SHARE = Fraction(9, 10)
# Absolute slack for comparing a float estimate with an exact value.
FLOAT_SLACK = 1e-12


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def family_predicate(fam: dict):
    """Membership test of one buyer's feasibility family, from its description."""
    kind = fam["kind"]
    if kind == "uniform":
        rank = fam["rank"]
        return lambda s: bin(s).count("1") <= rank
    if kind == "partition":
        blocks = list(zip(fam["parts"], fam["caps"]))
        return lambda s: all(bin(s & p).count("1") <= c for p, c in blocks)
    if kind == "basis":
        bases = list(fam["bases"])
        return lambda s: any(s & ~b == 0 for b in bases)
    if kind == "explicit":
        members = set(fam["members"]) | {0}
        return lambda s: s in members
    raise ValueError(f"unknown family kind {kind!r}")


def joint_allocations(payload: dict) -> list:
    """Nonempty buyer-item pair masks giving each item to at most one buyer and
    each buyer a set in its family (pair bit i * m + j)."""
    n, m = payload["n"], payload["m"]
    full = (1 << m) - 1
    preds = [family_predicate(f) for f in payload["families"]]
    out = []
    for a in range(1, 1 << (n * m)):
        seen = 0
        ok = True
        for i in range(n):
            part = (a >> (i * m)) & full
            if part & seen or not preds[i](part):
                ok = False
                break
            seen |= part
        if ok:
            out.append(a)
    return out


def family_size(payload: dict, i: int) -> int:
    """Number of item sets (the empty set included) in buyer i's family."""
    pred = family_predicate(payload["families"][i])
    return sum(1 for s in range(1 << payload["m"]) if pred(s))


def is_additive_single(payload: dict) -> bool:
    fam = payload["families"][0]
    return (
        payload["n"] == 1
        and fam["kind"] == "uniform"
        and fam["rank"] == payload["m"]
    )


class Parsed:
    """An instance payload with rationals parsed and types enumerated."""

    def __init__(self, payload: dict):
        self.n, self.m = payload["n"], payload["m"]
        self.dists = [
            [
                (
                    tuple(Fraction(v) for v in d["support"]),
                    tuple(Fraction(p) for p in d["probs"]),
                )
                for d in row
            ]
            for row in payload["dists"]
        ]
        self.atoms = [
            (tuple(Fraction(c) for c in a["vector"]), Fraction(a["prob"]))
            for a in payload["costs"]
        ]
        # types[i]: list of (value vector, probability)
        self.types = []
        for row in self.dists:
            per_item = [list(zip(sup, pr)) for sup, pr in row]
            self.types.append(
                [
                    (tuple(v for v, _ in combo), prod(p for _, p in combo))
                    for combo in product(*per_item)
                ]
            )
        self.allocs = joint_allocations(payload)
        self.profiles = [
            (combo, prod(self.types[i][t][1] for i, t in enumerate(combo)))
            for combo in product(*(range(len(ts)) for ts in self.types))
        ]

    def part(self, a: int, i: int) -> int:
        return (a >> (i * self.m)) & ((1 << self.m) - 1)


def first_best(payload: dict) -> Fraction:
    """E over types and costs of max over feasible S of sum (t_ij - c_j)."""
    inst = Parsed(payload)
    total = Fraction(0)
    for combo, pp in inst.profiles:
        vals = [inst.types[i][t][0] for i, t in enumerate(combo)]
        for cvec, pc in inst.atoms:
            best = Fraction(0)
            for a in inst.allocs:
                w = sum(
                    (vals[b // inst.m][b % inst.m] - cvec[b % inst.m] for b in _bits(a)),
                    Fraction(0),
                )
                if w > best:
                    best = w
            total += pp * pc * best
    return total


def highs_optimum(payload: dict) -> float:
    """Optimal profit over BIC, interim-IR direct mechanisms, as a float LP
    solved by HiGHS.

    Variables: z[p, c, a], the probability of joint allocation a at type
    profile p and cost atom c; and pay[i, t], buyer i's interim payment at
    report t. Constraints: sum_a z[p, c, a] <= 1; for every buyer, true type t
    and report s, U(t -> s) <= U(t -> t); and U(t -> t) >= 0.
    """
    import numpy as np
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    inst = Parsed(payload)
    n_atoms, n_alloc = len(inst.atoms), len(inst.allocs)

    def zcol(p, c, k):
        return (p * n_atoms + c) * n_alloc + k

    pay0 = []
    ncols = len(inst.profiles) * n_atoms * n_alloc
    for ts in inst.types:
        pay0.append(ncols)
        ncols += len(ts)

    obj = np.zeros(ncols)
    rows, cols, vals, rhs = [], [], [], []

    def add_row(terms: dict, bound: float):
        r = len(rhs)
        for col, v in terms.items():
            if v:
                rows.append(r)
                cols.append(col)
                vals.append(float(v))
        rhs.append(bound)

    alloc_cost = [
        [sum((cvec[b % inst.m] for b in _bits(a)), Fraction(0)) for a in inst.allocs]
        for cvec, _ in inst.atoms
    ]
    for p, (_, pp) in enumerate(inst.profiles):
        for c, (_, pc) in enumerate(inst.atoms):
            for k in range(n_alloc):
                obj[zcol(p, c, k)] = float(pp * pc * alloc_cost[c][k])
            add_row({zcol(p, c, k): 1 for k in range(n_alloc)}, 1.0)
    for i, ts in enumerate(inst.types):
        for t, (_, f) in enumerate(ts):
            obj[pay0[i] + t] = -float(f)

    for i, ts in enumerate(inst.types):
        # per report s: (column, weight of the others' types and the atom, i's part)
        entries = []
        for s, (_, fs) in enumerate(ts):
            rows_s = []
            for p, (combo, pp) in enumerate(inst.profiles):
                if combo[i] != s:
                    continue
                for c, (_, pc) in enumerate(inst.atoms):
                    w = pp / fs * pc
                    for k, a in enumerate(inst.allocs):
                        part = inst.part(a, i)
                        if part:
                            rows_s.append((zcol(p, c, k), w, part))
            entries.append(rows_s)

        def utility(t, s):
            tv = ts[t][0]
            terms = {}
            for col, w, part in entries[s]:
                v = sum((tv[j] for j in _bits(part)), Fraction(0))
                if v:
                    terms[col] = terms.get(col, 0) + w * v
            terms[pay0[i] + s] = terms.get(pay0[i] + s, 0) - 1
            return terms

        for t in range(len(ts)):
            truth = utility(t, t)
            add_row({col: -v for col, v in truth.items()}, 0.0)
            for s in range(len(ts)):
                if s == t:
                    continue
                row = utility(t, s)
                for col, v in truth.items():
                    row[col] = row.get(col, 0) - v
                add_row(row, 0.0)

    a_ub = csr_matrix((vals, (rows, cols)), shape=(len(rhs), ncols))
    n_z = len(inst.profiles) * n_atoms * n_alloc
    bounds = [(0, None)] * n_z + [(None, None)] * (ncols - n_z)
    res = linprog(obj, A_ub=a_ub, b_ub=np.array(rhs), bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not solve {payload.get('name')}: {res.message}")
    return -float(res.fun)


def additive_item_pricing(payload: dict, prices: dict) -> Fraction:
    """Profit of item prices for one additive buyer:
    sum over atoms c and items j of Pr[c] (p_jc - c_j) Pr[t_j >= p_jc]."""
    inst = Parsed(payload)
    total = Fraction(0)
    for c, (cvec, pc) in enumerate(inst.atoms):
        for j in range(inst.m):
            sup, pr = inst.dists[0][j]
            p = Fraction(prices[(0, j, c)])
            total += pc * (p - cvec[j]) * sum(
                (q for v, q in zip(sup, pr) if v >= p), Fraction(0)
            )
    return total


# -- checks ----------------------------------------------------------------------


def check_suite_report(name: str, failed: list, excused=()) -> list:
    """Every inequality the suite check evaluated holds, except the named
    ones excused because they fail on some seeds only."""
    return [
        f"{name}: suite check {chk} failed {detail}".rstrip()
        for chk, detail in failed
        if chk not in excused
    ]


def check_lp_optimum(name: str, opt, highs: float, best_mechanism, welfare) -> list:
    """The exact LP optimum matches HiGHS, dominates every constructed
    mechanism and stays within first-best welfare."""
    problems = []
    if abs(float(opt) - highs) > HIGHS_RTOL * max(1.0, abs(highs)):
        problems.append(f"{name}: LP optimum {opt} differs from HiGHS {highs!r}")
    if opt < best_mechanism:
        problems.append(f"{name}: LP optimum {opt} below mechanism profit {best_mechanism}")
    if opt > welfare:
        problems.append(f"{name}: LP optimum {opt} above first-best welfare {welfare}")
    return problems


def check_coverage(pairs: list) -> list:
    """pairs: (name, estimate, half_width, exact). The 99% intervals cover the
    exact profit on at least COVERAGE_SHARE of the pairs."""
    missed = [
        name
        for name, est, half, exact in pairs
        if abs(est - float(exact)) > half + FLOAT_SLACK
    ]
    if not pairs or len(pairs) - len(missed) < COVERAGE_SHARE * len(pairs):
        return [f"99% intervals miss the exact profit on {len(missed)}/{len(pairs)}: {missed}"]
    return []


def check_reproducible(name: str, draws: list) -> list:
    """draws: (estimate, half_width) of repeated runs with one seed; all must
    be bit-identical."""
    keys = {(float(e).hex(), float(h).hex()) for e, h in draws}
    if len(keys) != 1:
        return [f"{name}: the same seed gave {len(keys)} different estimates"]
    return []


def check_additive_ip(name: str, evaluated, formula) -> list:
    if evaluated != formula:
        return [f"{name}: evaluate gives {evaluated}, the additive formula {formula}"]
    return []
