"""Primal simplex with exact answers for problems of the form

    max  c . x   subject to   A x <= b,  x >= 0,  b >= 0,

which is the shape the profit program takes after eliminating the trivial
empty-allocation variable (the slack basis is then feasible, so no phase 1).
Rows are sparse dicts held once, in integers: row r keeps its coefficients and
its rhs times its scale L_r, the lcm of their denominators, so the rational
entry is a / L_r. Entering variable: Dantzig rule, switching to Bland's rule
after a run of degenerate pivots so termination is guaranteed.

``solve`` certifies, then trusts. One tableau loop, written over a number
type and its tolerances, first runs on floats, reading each entry as the
correctly rounded int division a / L_r (the float of the rational entry).
Floats only propose a solution: its primal x and row duals y are rounded to
nearby rationals and checked exactly against the program's own data, in
integers (x over its common denominator, the multipliers y_r / L_r of the
integer rows over theirs): x >= 0, Ax <= b, y >= 0, A^T y >= c and
c.x = b.y, which proves optimality. When the proof fails, or the float loop
stalls or finds a ray, the same loop runs again on exact rationals Q(a, L_r)
with zero tolerance, so unboundedness is only ever decided exactly. Every
number returned is exact and carries a checked certificate: the dual proof on
the certified path, the exact pivoting itself on the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import truediv

from .rational import Q, ZERO

STALL_LIMIT = 40
FLOAT_TOL = 1e-9  # smallest pivot and reduced cost the float loop acts on
FLOAT_DROP = 1e-12  # float tableau entries this close to zero become zero
FLOAT_PASS_CAP = 10  # float loop passes allowed per tableau row and column
DENOMINATOR_CAP = 10**6  # largest denominator a rounded float may take


class Unbounded(Exception):
    pass


@dataclass
class LinearProgram:
    ncols: int = 0
    rows: list = field(default_factory=list)  # list[dict[col, int]]: row r times scale[r]
    rhs: list = field(default_factory=list)  # list[int]: b_r times scale[r], >= 0
    scale: list = field(default_factory=list)  # list[int]: L_r, lcm of row r's denominators
    obj: dict = field(default_factory=dict)  # col -> Q

    def add_cols(self, k: int) -> range:
        r = range(self.ncols, self.ncols + k)
        self.ncols += k
        return r

    def add_col(self, obj_coef=ZERO) -> int:
        j = self.ncols
        self.ncols += 1
        if obj_coef:
            self.obj[j] = Q(obj_coef)
        return j

    def set_obj(self, col: int, coef):
        coef = Q(coef)
        if coef:
            self.obj[col] = coef
        else:
            self.obj.pop(col, None)

    def add_row(self, coeffs: dict, rhs) -> int:
        """Add sum_j coeffs[j] x_j <= rhs, for int or rational coefficients."""
        rhs = Q(rhs)
        if rhs < 0:
            raise ValueError("rhs must be non-negative for the slack start")
        b, e = _parts(rhs)
        terms = [(j, *_parts(v)) for j, v in coeffs.items() if v]
        scale = lcm(e, *{d for _, _, d in terms})
        self.rows.append({j: p * (scale // d) for j, p, d in terms})
        self.rhs.append(b * (scale // e))
        self.scale.append(scale)
        return len(self.rows) - 1

    def row(self, r: int, ratio):
        """Row r's entries and rhs in the number type of ratio(p, q), which
        reads integer entry a as a / L_r: operator.truediv gives the correctly
        rounded float of the rational entry, Q gives Q(a, L_r)."""
        scale = self.scale[r]
        return {j: ratio(a, scale) for j, a in self.rows[r].items()}, ratio(self.rhs[r], scale)


def _parts(v) -> tuple:
    """(numerator, denominator) of rational v as Python ints. gmpy2.mpq's parts
    are mpz, whose true division gives an mpfr rather than a float."""
    return int(v.numerator), int(v.denominator)


@dataclass
class SimplexResult:
    objective: Q
    primal: dict  # structural col -> value (zeros omitted)
    duals: list  # one multiplier per row, >= 0
    iterations: int  # passes of every tableau loop run, float and exact
    path: str  # "certified" (float proposal, exact proof) or "exact"


class _Stalled(Exception):
    """The float loop used up its passes."""


def solve(lp: LinearProgram) -> SimplexResult:
    proposal = _propose(lp)
    iters = 0
    if proposal is not None:
        primal, duals, iters = proposal
        objective = _certified_optimum(lp, primal, duals)
        if objective is not None:
            return SimplexResult(objective, primal, duals, iters, "certified")
    objective, primal, duals, n = _simplex(lp, Q, 0, 0)
    return SimplexResult(objective, primal, duals, iters + n, "exact")


def _propose(lp: LinearProgram):
    """Solve in floats and round to rationals: (primal, duals, passes), or
    None when the float loop stalls or reports unboundedness."""
    cap = FLOAT_PASS_CAP * (len(lp.rows) + lp.ncols) + 1
    try:
        _, primal, duals, iters = _simplex(lp, truediv, FLOAT_TOL, FLOAT_DROP, cap)
    except (Unbounded, _Stalled):
        return None
    primal = {j: q for j, v in primal.items() if (q := _rational(v))}
    return primal, [_rational(v) for v in duals], iters


def _rational(v: float) -> Q:
    return Q(Fraction(v).limit_denominator(DENOMINATOR_CAP))


def common_denominator(values: dict):
    """(D, {k: v * D}) with D the lcm of the rationals' denominators."""
    parts = {k: _parts(v) for k, v in values.items()}
    d = lcm(*{q for _, q in parts.values()})
    return d, {k: p * (d // q) for k, (p, q) in parts.items()}


def row_slacks(lp: LinearProgram, d: int, xs: dict, rows) -> list:
    """D * L_r * (b_r - A_r x) for each listed row r, where xs holds x * D:
    integers with the sign of each row's slack, zero exactly on a tight row."""
    out = []
    for r in rows:
        activity = 0
        for j, a in lp.rows[r].items():
            x = xs.get(j)
            if x:
                activity += a * x
        out.append(lp.rhs[r] * d - activity)
    return out


def _certified_optimum(lp: LinearProgram, primal: dict, duals: list):
    """c.x when x and y are feasible for the primal and the dual with equal
    objectives, which proves both optimal; otherwise None. Exact throughout, in
    integers: x = X / D, c = C' / C and the multiplier y_r / L_r of integer
    row r is U_r / E, so A^T y = A_int^T U / E, c.x = C'.X / (C D) and
    b.y = b_int.U / E."""
    d, xs = common_denominator(primal)
    if any(x < 0 for x in xs.values()) or any(y < 0 for y in duals):
        return None
    if any(s < 0 for s in row_slacks(lp, d, xs, range(len(lp.rows)))):
        return None
    us = []  # y_r / L_r in lowest terms
    for y, scale in zip(duals, lp.scale):
        p, q = _parts(y)
        g = gcd(p, scale)
        us.append((p // g, q * (scale // g)))
    e = lcm(*{den for _, den in us})
    us = [p * (e // den) for p, den in us]
    aty = {}  # col -> (A^T y)_col * E
    for row, u in zip(lp.rows, us):
        if u:
            for j, a in row.items():
                aty[j] = aty.get(j, 0) + a * u
    c, cs = common_denominator(lp.obj)  # c_j = cs[j] / C
    for j in range(lp.ncols):
        if aty.get(j, 0) * c < cs.get(j, 0) * e:
            return None
    cx = sum(cs[j] * x for j, x in xs.items() if j in cs)  # c.x * C * D
    by = sum(b * u for b, u in zip(lp.rhs, us))  # b.y * E
    if cx * e != by * c * d:
        return None
    return Q(cx, c * d)


def _tableau(lp: LinearProgram, ratio):
    """The program's rows, rhs and objective in the number type of ratio(p, q)
    (see LinearProgram.row). Rows run over structural cols and slack cols
    (ncols + r)."""
    ncols = lp.ncols
    one = ratio(1, 1)
    rows, rhs = [], []
    for r in range(len(lp.rows)):
        t, b = lp.row(r, ratio)
        t[ncols + r] = one
        rows.append(t)
        rhs.append(b)
    obj = {j: ratio(*_parts(v)) for j, v in lp.obj.items() if v}
    return rows, rhs, obj


def _simplex(lp: LinearProgram, ratio, tol, drop, max_iters=None):
    """The tableau loop over the number type of ratio (see _tableau):
    (objective, primal, duals, passes). Reduced costs and pivots must exceed
    tol, and entries within drop of zero become zero; with rationals and both 0
    every step is exact. Raises Unbounded on a ray and _Stalled after
    max_iters passes."""
    nrows = len(lp.rows)
    ncols = lp.ncols
    zero = ratio(0, 1)
    ndrop = -drop
    rows, rhs, obj = _tableau(lp, ratio)
    objval = zero
    basis = [ncols + r for r in range(nrows)]
    stall = 0
    iters = 0
    while True:
        iters += 1
        if max_iters is not None and iters > max_iters:
            raise _Stalled(f"no optimum after {max_iters} passes")
        use_bland = stall >= STALL_LIMIT
        enter = -1
        if use_bland:
            for j, rc in sorted(obj.items()):
                if rc > tol:
                    enter = j
                    break
        else:
            best = tol
            for j, rc in obj.items():
                if rc > best or (rc == best and rc > tol and j < enter):
                    best = rc
                    enter = j
        if enter < 0:
            break
        # ratio test; ties by smallest basis index (Bland-compatible)
        leave = -1
        best_ratio = None
        for r in range(nrows):
            a = rows[r].get(enter)
            if a is not None and a > tol:
                row_ratio = rhs[r] / a
                if (
                    best_ratio is None
                    or row_ratio < best_ratio
                    or (row_ratio == best_ratio and basis[r] < basis[leave])
                ):
                    best_ratio = row_ratio
                    leave = r
        if leave < 0:
            raise Unbounded(f"objective unbounded along column {enter}")
        if best_ratio <= tol:
            stall += 1
        else:
            stall = 0
        # pivot on (leave, enter)
        prow = rows[leave]
        piv = prow[enter]
        if piv != 1:
            inv = 1 / piv
            prow = {j: v * inv for j, v in prow.items()}
            rows[leave] = prow
            rhs[leave] *= inv
        prhs = rhs[leave]
        for r in range(nrows):
            if r == leave:
                continue
            row = rows[r]
            f = row.get(enter)
            if f is None or f == 0:
                continue
            for j, v in prow.items():
                nv = row.get(j, zero) - f * v
                if nv > drop or nv < ndrop:
                    row[j] = nv
                else:
                    row.pop(j, None)
            nrhs = rhs[r] - f * prhs
            rhs[r] = nrhs if nrhs > drop or nrhs < ndrop else zero
        f = obj.get(enter)
        if f:
            for j, v in prow.items():
                nv = obj.get(j, zero) - f * v
                if nv > drop or nv < ndrop:
                    obj[j] = nv
                else:
                    obj.pop(j, None)
            objval += f * prhs
        basis[leave] = enter
    primal = {}
    for r in range(nrows):
        if basis[r] < ncols and rhs[r] != 0:
            primal[basis[r]] = rhs[r]
    duals = [-obj.get(ncols + r, zero) for r in range(nrows)]
    return objval, primal, duals, iters
