import dataclasses
from pathlib import Path

import pytest

from permitlab import lp as lp_module
from permitlab.cli import main
from permitlab.lp import (
    DirectMechanism,
    SizeGuardExceeded,
    build_profit_lp,
    solve_lp,
    solve_profit_lp,
    verify_virtual_bound,
)
from permitlab.model import CostModel, DiscreteDist, Instance, UniformMatroid
from permitlab.rational import Q, ZERO
from permitlab.serialize import save_instance
from permitlab.simplex import solve

DATA = Path(__file__).parent / "data"


def test_optimum_three_quarters(canonical):
    sol = solve_profit_lp(canonical)
    assert sol.objective == Q(3, 4)
    assert sol.mechanism.profit() == Q(3, 4)
    assert not sol.mechanism.bic_violations()
    assert all(v >= 0 for v in sol.lam.values())


def test_row_and_block_counts(canonical):
    model = build_profit_lp(canonical)
    # 2 types x 2 atoms allocation blocks, BIC/IR rows 2 x |T ∪ {opt-out}| = 6
    assert sum(1 for k in model.z_index) == 2 * 2 * 1
    assert len(model.bic_rows) == 2 * 3


def test_all_costs_above_values():
    d = DiscreteDist((1, 2), (Q(1, 2), Q(1, 2)))
    inst = Instance(
        1, 1, ((d,),), CostModel((((5,), 1),)), (UniformMatroid(1, 1),)
    )
    sol = solve_profit_lp(inst)
    assert sol.objective == 0


def test_permutation_invariance():
    d1 = DiscreteDist((1, 3), (Q(1, 4), Q(3, 4)))
    d2 = DiscreteDist((2,), (1,))
    costs = CostModel((((0, 1), Q(1, 2)), ((1, 0), Q(1, 2))))
    a = Instance(1, 2, ((d1, d2),), costs, (UniformMatroid(2, 1),))
    costs_sw = CostModel((((1, 0), Q(1, 2)), ((0, 1), Q(1, 2))))
    b = Instance(1, 2, ((d2, d1),), costs_sw, (UniformMatroid(2, 1),))
    assert solve_profit_lp(a).objective == solve_profit_lp(b).objective


def test_size_guard():
    d = DiscreteDist((1, 2), (Q(1, 2), Q(1, 2)))
    inst = Instance(
        1, 2, ((d, d),), CostModel((((0, 0), 1),)), (UniformMatroid(2, 2),)
    )
    with pytest.raises(SizeGuardExceeded):
        build_profit_lp(inst, guard=3)


def test_flow_conservation_and_virtual_bound(canonical):
    sol = solve_profit_lp(canonical)
    rep = verify_virtual_bound(canonical, sol.mechanism, sol.lam)
    assert rep["holds"]
    # sink-only flow: every node sends its own mass to the sink, so the
    # virtual value equals the type and the bound is expected welfare - cost
    sink = {}
    for i in range(canonical.n):
        fp = canonical.buyer_type_probs(i)
        for k in range(len(fp)):
            sink[(i, k, None)] = fp[k]
    rep2 = verify_virtual_bound(canonical, sol.mechanism, sink)
    assert rep2["holds"] and rep2["virtual_welfare_bound"] >= sol.objective


def test_bad_flow_rejected(canonical):
    sol = solve_profit_lp(canonical)
    with pytest.raises(AssertionError):
        verify_virtual_bound(canonical, sol.mechanism, {})


def test_lp_dominates_simple_mechanisms(canonical):
    from permitlab.mechanisms import construct_csip_from_copies, evaluate

    sol = solve_profit_lp(canonical)
    res = evaluate(canonical, construct_csip_from_copies(canonical))
    assert res.profit <= sol.objective


def test_zero_mechanism_and_profit_evaluator(canonical):
    zero = DirectMechanism.zero(canonical)
    assert zero.profit() == 0
    assert not zero.bic_violations()
    pi = zero.interim()
    assert pi[0][0][0][0] == 0


def test_zero_item_instance():
    from permitlab.model import CostModel, Instance, UniformMatroid
    from permitlab.rational import Q

    inst = Instance(1, 0, ((),), CostModel((((), Q(1)),)), (UniformMatroid(0, 0),))
    assert solve_profit_lp(inst).objective == 0


def test_slackness_check_fails_on_a_positive_dual_at_a_slack_row(canonical):
    model = build_profit_lp(canonical)
    res = solve(model.lp)
    lp_module._check_complementary_slackness(model, res)  # the optimum passes

    def slack(r):
        scale = model.lp.scale[r]
        activity = sum(
            (Q(a, scale) * res.primal.get(j, ZERO) for j, a in model.lp.rows[r].items()),
            ZERO,
        )
        return Q(model.lp.rhs[r], scale) - activity

    loose = [r for r, y in enumerate(res.duals) if y == 0 and slack(r) > 0]
    assert loose
    for r in loose:
        duals = list(res.duals)
        duals[r] = Q(1, 7)
        tampered = dataclasses.replace(res, duals=duals)
        with pytest.raises(AssertionError, match=f"row {r} has positive dual"):
            lp_module._check_complementary_slackness(model, tampered)


@pytest.mark.parametrize("name", ["canonical", "multi-seed6-0003"])
def test_dump_lp_text_matches_golden(canonical, name, tmp_path):
    # the golden texts were written before the rows were held as integers, so
    # the float rendering a / L_r must match the rational rows' float exactly
    if name == "canonical":
        inst_path = tmp_path / "canonical.json"
        save_instance(canonical, str(inst_path))
    else:
        inst_path = DATA / f"{name}.json"
    out = tmp_path / "model.lp"
    assert main(["verify", "--instance", str(inst_path), "--dump-lp", str(out)]) == 0
    assert out.read_text() == (DATA / f"{name}.lp").read_text()
