import pytest
from hypothesis import given, settings, strategies as st

from permitlab import simplex
from permitlab.rational import Q
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

_coef = st.sampled_from([Q(0), Q(0), Q(1), Q(-1), Q(2), Q(1, 3), Q(-5, 2), Q(7, 4)])
_rhs = st.sampled_from([Q(0), Q(0), Q(1), Q(3, 2), Q(5)])  # zeros make pivots degenerate


@st.composite
def small_lps(draw):
    lp = LinearProgram()
    ncols = draw(st.integers(1, 4))
    for _ in range(ncols):
        lp.add_col(draw(_coef))
    for _ in range(draw(st.integers(0, 4))):
        lp.add_row({j: draw(_coef) for j in range(ncols)}, draw(_rhs))
    return lp


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
    monkeypatch.setattr(simplex, "_propose", lambda _: (primal, duals, passes))
    res = solve(lp)
    assert res.path == "exact"
    assert res.objective == 12 and res.primal == {0: 4}
