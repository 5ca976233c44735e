from decimal import Decimal
from fractions import Fraction
from math import lcm
from operator import truediv

import pytest
from hypothesis import given, settings, strategies as st

from permitlab import simplex
from permitlab.rational import Q, ZERO
from permitlab.simplex import LinearProgram, Unbounded, solve


def test_basic_max():
    lp = LinearProgram()
    x = lp.add_col(3)
    y = lp.add_col(2)
    lp.add_row({x: 1, y: 1}, 4)
    lp.add_row({x: 1, y: 3}, 6)
    res = solve(lp)
    assert res.objective == 12
    assert res.primal == {x: 4}
    # strong duality
    assert sum(d * b for d, b in zip(res.duals, (Q(4), Q(6)))) == 12


def test_degenerate_start():
    lp = LinearProgram()
    a = lp.add_col(1)
    b = lp.add_col(1)
    lp.add_row({a: 1}, 0)
    lp.add_row({a: -1, b: 1}, 2)
    res = solve(lp)
    assert res.objective == 2


def test_unbounded_detected():
    lp = LinearProgram()
    x = lp.add_col(1)
    lp.add_row({x: -1}, 1)
    with pytest.raises(Unbounded):
        solve(lp)


def test_exact_rationals():
    lp = LinearProgram()
    x = lp.add_col(Q(1, 3))
    y = lp.add_col(Q(1, 7))
    lp.add_row({x: Q(2, 5), y: 1}, Q(1, 2))
    res = solve(lp)
    assert res.objective == Q(1, 3) * Q(5, 4)  # x = 5/4


def test_zero_objective():
    lp = LinearProgram()
    lp.add_col(0)
    lp.add_row({0: 1}, 3)
    res = solve(lp)
    assert res.objective == 0 and res.primal == {}


# -- certify-then-trust -----------------------------------------------------------

# mixed denominators in one row (1/3 with 7/4) and a large one (1/10^7), so
# row scales differ from row to row and from 1
_coef = st.sampled_from(
    [Q(0), Q(0), Q(1), Q(-1), Q(2), Q(1, 3), Q(-5, 2), Q(7, 4), Q(1, 10**7), Q(-3, 10)]
)
_rhs = st.sampled_from([Q(0), Q(0), Q(1), Q(3, 2), Q(5), Q(2, 3)])  # zeros: degenerate pivots


@st.composite
def drawn_lps(draw, coef=_coef, rhs=_rhs):
    """(lp, rows, rhs): the program and the rationals its rows were drawn as."""
    lp = LinearProgram()
    ncols = draw(st.integers(1, 4))
    for _ in range(ncols):
        lp.add_col(draw(coef))
    rows, rhss = [], []
    for _ in range(draw(st.integers(0, 4))):
        row = {j: draw(coef) for j in range(ncols)}
        b = abs(draw(rhs))
        lp.add_row(row, b)
        rows.append(row)
        rhss.append(b)
    return lp, rows, rhss


def small_lps():
    return drawn_lps().map(lambda drawn: drawn[0])


# any rational up to 10^20 with a denominator up to 10^8: numerators of the
# integer rows pass 2^53, where a float numerator over a float scale would
# round twice
_wide = st.fractions(min_value=-(10**20), max_value=10**20, max_denominator=10**8)


@settings(max_examples=200, deadline=None)
@given(st.one_of(drawn_lps(), drawn_lps(_wide, _wide)))
def test_rows_are_integers_over_their_scale(drawn):
    lp, rows, rhss = drawn
    assert len(lp.rows) == len(lp.rhs) == len(lp.scale) == len(rows)
    for r, (row, b) in enumerate(zip(rows, rhss)):
        scale = lp.scale[r]
        assert scale == lcm(b.denominator, *(v.denominator for v in row.values()))
        assert type(lp.rhs[r]) is int and Q(lp.rhs[r], scale) == b
        assert list(lp.rows[r]) == [j for j, v in row.items() if v]
        for j, a in lp.rows[r].items():
            assert type(a) is int and Q(a, scale) == row[j]
    # the float pass reads each entry as the float of the drawn rational and
    # the exact loop as the rational itself
    for ratio, num in ((truediv, float), (Q, Q)):
        t_rows, t_rhs, t_obj = simplex._tableau(lp, ratio)
        for r, (row, b) in enumerate(zip(rows, rhss)):
            expect = {j: num(v) for j, v in row.items() if v}
            expect[lp.ncols + r] = num(1)
            assert t_rows[r] == expect and t_rhs[r] == num(b)
            assert all(type(v) is type(num(1)) for v in t_rows[r].values())
        assert t_obj == {j: num(c) for j, c in lp.obj.items()}


def _reference_certificate(lp, primal, duals):
    """The rational certificate the integer one replaced, over the rational
    rows Q(a, L_r): c.x when x >= 0, Ax <= b, y >= 0, A^T y >= c and
    c.x = b.y, else None."""
    rows = [{j: Q(a, s) for j, a in row.items()} for row, s in zip(lp.rows, lp.scale)]
    rhs = [Q(b, s) for b, s in zip(lp.rhs, lp.scale)]
    if any(v < 0 for v in primal.values()) or any(y < 0 for y in duals):
        return None
    aty = {}  # col -> (A^T y)_col
    for row, b, y in zip(rows, rhs, duals):
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
    if objective != sum((b * y for b, y in zip(rhs, duals)), ZERO):
        return None
    return objective


_nudge = st.sampled_from([Q(0), Q(0), Q(0), Q(1, 10**6), Q(-1, 10**6), Q(1, 3), Q(-2, 7)])


@settings(max_examples=200, deadline=None)
@given(small_lps(), st.data())
def test_integer_certificate_matches_rational_reference(lp, data):
    proposal = simplex._propose(lp)
    if proposal is None:
        return
    primal, duals, _ = proposal
    cert = simplex._certified_optimum(lp, primal, duals)
    assert cert == _reference_certificate(lp, primal, duals)
    assert cert is None or type(cert) is type(Q(0))
    # nudged proposals: most fail some condition, and both must say which way
    primal = {j: x + data.draw(_nudge) for j, x in primal.items()}
    primal.update({j: data.draw(_nudge) for j in range(lp.ncols) if j not in primal})
    duals = [y + data.draw(_nudge) for y in duals]
    assert simplex._certified_optimum(lp, primal, duals) == _reference_certificate(
        lp, primal, duals
    )


def _row_slack_reference(lp, primal, r):
    activity = sum((Q(a, lp.scale[r]) * primal.get(j, ZERO) for j, a in lp.rows[r].items()), ZERO)
    return Q(lp.rhs[r], lp.scale[r]) - activity


@settings(max_examples=100, deadline=None)
@given(drawn_lps(), st.data())
def test_row_slacks_have_the_sign_of_the_rational_slack(drawn, data):
    lp = drawn[0]
    primal = {j: data.draw(_coef) for j in range(lp.ncols)}
    d, xs = simplex.common_denominator(primal)
    assert all(Q(xs[j], d) == x for j, x in primal.items())
    rows = range(len(lp.rows))
    for r, slack in zip(rows, simplex.row_slacks(lp, d, xs, rows)):
        assert Q(slack, d * lp.scale[r]) == _row_slack_reference(lp, primal, r)


def _basic_lp():
    lp = LinearProgram()
    x = lp.add_col(3)
    y = lp.add_col(2)
    lp.add_row({x: 1, y: 1}, 4)
    lp.add_row({x: 1, y: 3}, 6)
    return lp


@settings(max_examples=200, deadline=None)
@given(small_lps())
def test_certified_path_matches_exact_loop(lp):
    try:
        objective, _, _, _ = simplex._simplex(lp, Q, 0, 0)
    except Unbounded:
        with pytest.raises(Unbounded):
            solve(lp)
        return
    res = solve(lp)
    assert res.objective == objective
    if res.path == "certified":
        assert simplex._certified_optimum(lp, res.primal, res.duals) == objective


def test_float_proposal_is_certified():
    res = solve(_basic_lp())
    assert res.path == "certified"
    assert res.objective == 12 and res.primal == {0: 4} and res.duals == [3, 0]


def test_stalled_float_loop_falls_back(monkeypatch):
    monkeypatch.setattr(simplex, "FLOAT_PASS_CAP", 0)  # one pass, no pivot
    res = solve(_basic_lp())
    assert res.path == "exact"
    assert res.objective == 12 and res.primal == {0: 4}


_T = Q(1, 10**6)
# Each tampered certificate of _basic_lp's optimum x = (4, 0), y = (3, 0)
# breaks one condition; the ones marked so keep c.x = b.y = 12.
TAMPERED = {
    "primal_nudged": ({0: 4 + _T}, [Q(3), Q(0)]),
    "dual_nudged": ({0: Q(4)}, [3 + _T, Q(0)]),  # only the gap opens
    "x_negative": ({0: 4 + 2 * _T, 1: -3 * _T}, [Q(3), Q(0)]),  # gap closed
    "row_violated": ({0: 4 - 2 * _T, 1: 3 * _T}, [Q(3), Q(0)]),  # gap closed
    "y_negative": ({0: Q(4)}, [3 + 3 * _T / 2, -_T]),  # gap closed
    "column_violated": ({0: Q(4)}, [3 - 3 * _T / 2, _T]),  # gap closed
}


@pytest.mark.parametrize("tamper", sorted(TAMPERED))
def test_tampered_certificate_falls_back(monkeypatch, tamper):
    lp = _basic_lp()
    primal, duals, passes = simplex._propose(lp)
    assert simplex._certified_optimum(lp, primal, duals) == 12
    primal, duals = TAMPERED[tamper]
    assert simplex._certified_optimum(lp, primal, duals) is None
    assert _reference_certificate(lp, primal, duals) is None
    monkeypatch.setattr(simplex, "_propose", lambda _: (primal, duals, passes))
    res = solve(lp)
    assert res.path == "exact"
    assert res.objective == 12 and res.primal == {0: 4}


# -- a rational type whose parts are not Python ints ------------------------------


class _Mpz(int):
    """An int-like whose arithmetic stays in its own type and whose true
    division is not a Python float, as gmpy2.mpz's gives an mpfr."""

    def __truediv__(self, other):
        return Decimal(int(self)) / int(other)

    def __rtruediv__(self, other):
        return Decimal(int(other)) / int(self)


for _name in ("add", "sub", "mul", "floordiv"):
    for _op in (f"__{_name}__", f"__r{_name}__"):
        setattr(_Mpz, _op, lambda self, other, _f=getattr(int, _op): _Mpz(_f(self, other)))
setattr(_Mpz, "__neg__", lambda self: _Mpz(-int(self)))


class _Mpq(Fraction):
    """A rational whose numerator and denominator are _Mpz, as gmpy2.mpq's are mpz."""

    @property
    def numerator(self):
        return _Mpz(self._numerator)

    @property
    def denominator(self):
        return _Mpz(self._denominator)


def test_rational_parts_are_read_as_python_ints(monkeypatch):
    monkeypatch.setattr(simplex, "Q", _Mpq)
    lp = LinearProgram()
    x = lp.add_col(_Mpq(1, 3))
    y = lp.add_col(_Mpq(1, 7))
    lp.add_row({x: _Mpq(2, 5), y: _Mpq(7, 4)}, _Mpq(1, 2))
    lp.add_row({x: _Mpq(1), y: _Mpq(-1, 3)}, _Mpq(3, 10))
    assert all(type(v) is int for v in lp.scale + lp.rhs)
    assert all(type(a) is int for row in lp.rows for a in row.values())
    t_rows, t_rhs, t_obj = simplex._tableau(lp, truediv)
    floats = [*t_rhs, *t_obj.values(), *(v for row in t_rows for v in row.values())]
    assert all(type(v) is float for v in floats)
    d, xs = simplex.common_denominator({0: _Mpq(5, 6), 1: _Mpq(-1, 4)})
    assert (d, xs) == (12, {0: 10, 1: -3}) and all(type(v) is int for v in (d, *xs.values()))
    res = solve(lp)
    assert res.path == "certified"
    assert res.objective == simplex._simplex(lp, Fraction, 0, 0)[0]
