"""Primal simplex with exact answers for problems of the form

    max  c . x   subject to   A x <= b,  x >= 0,  b >= 0,

which is the shape the profit program takes after eliminating the trivial
empty-allocation variable (the slack basis is then feasible, so no phase 1).
Rows are sparse dicts. Entering variable: Dantzig rule, switching to Bland's
rule after a run of degenerate pivots so termination is guaranteed.

``solve`` certifies, then trusts. One tableau loop, written over a number
type and its tolerances, first runs on floats. Floats only propose a solution:
its primal x and row duals y are rounded to nearby rationals and checked
exactly against the program's own rational data (x >= 0, Ax <= b, y >= 0,
A^T y >= c and c.x = b.y), which proves optimality. When the proof fails, or
the float loop stalls or finds a ray, the same loop runs again on exact
rationals with zero tolerance, so unboundedness is only ever decided exactly.
Every number returned is exact and carries a checked certificate: the dual
proof on the certified path, the exact pivoting itself on the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

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
    rows: list = field(default_factory=list)  # list[dict[col, Q]]
    rhs: list = field(default_factory=list)
    obj: dict = field(default_factory=dict)

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
        rhs = Q(rhs)
        if rhs < 0:
            raise ValueError("rhs must be non-negative for the slack start")
        self.rows.append({j: Q(v) for j, v in coeffs.items() if v != 0})
        self.rhs.append(rhs)
        return len(self.rows) - 1


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
        _, primal, duals, iters = _simplex(lp, float, FLOAT_TOL, FLOAT_DROP, cap)
    except (Unbounded, _Stalled):
        return None
    primal = {j: q for j, v in primal.items() if (q := _rational(v))}
    return primal, [_rational(v) for v in duals], iters


def _rational(v: float) -> Q:
    return Q(Fraction(v).limit_denominator(DENOMINATOR_CAP))


def _certified_optimum(lp: LinearProgram, primal: dict, duals: list):
    """c.x when x and y are feasible for the primal and the dual with equal
    objectives, which proves both optimal; otherwise None. Exact throughout."""
    if any(v < 0 for v in primal.values()) or any(y < 0 for y in duals):
        return None
    aty = {}  # col -> (A^T y)_col
    for row, b, y in zip(lp.rows, lp.rhs, duals):
        activity = ZERO
        for j, a in row.items():
            x = primal.get(j)
            if x is not None:
                activity += a * x
            if y:
                aty[j] = aty.get(j, ZERO) + a * y
        if activity > b:
            return None
    for j in range(lp.ncols):
        if aty.get(j, ZERO) < lp.obj.get(j, ZERO):
            return None
    objective = sum((lp.obj.get(j, ZERO) * x for j, x in primal.items()), ZERO)
    if objective != sum((b * y for b, y in zip(lp.rhs, duals)), ZERO):
        return None
    return objective


def _simplex(lp: LinearProgram, num, tol, drop, max_iters=None):
    """The tableau loop over number type num: (objective, primal, duals,
    passes). Reduced costs and pivots must exceed tol, and entries within
    drop of zero become zero; with rationals and both 0 every step is exact.
    Raises Unbounded on a ray and _Stalled after max_iters passes."""
    nrows = len(lp.rows)
    ncols = lp.ncols
    zero = num(0)
    ndrop = -drop
    # tableau rows over structural cols + slack cols (ncols + r)
    rows = []
    for r, row in enumerate(lp.rows):
        t = {j: num(v) for j, v in row.items()}
        t[ncols + r] = num(1)
        rows.append(t)
    rhs = [num(v) for v in lp.rhs]
    obj = {j: num(v) for j, v in lp.obj.items() if v != 0}
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
                ratio = rhs[r] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[leave])
                ):
                    best_ratio = ratio
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
