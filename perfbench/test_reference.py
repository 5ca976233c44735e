"""Tests of the benchmark's own checks: each is fed a wrong value and must fail.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import copy
from fractions import Fraction

import pytest

import reference
from run import import_program
from workloads import OCRS_CHECK, McSampling, MultiChain, SingleFamilies, ocrs_excused

# one item, value uniform on {1, 2}, cost uniform on {0, 1}: the optimal
# profit is 3/4 and first-best welfare is E[(t - c)+] = 1
CANONICAL = {
    "name": "canonical",
    "n": 1,
    "m": 1,
    "dists": [[{"support": ["1", "2"], "probs": ["1/2", "1/2"]}]],
    "costs": [{"vector": ["0"], "prob": "1/2"}, {"vector": ["1"], "prob": "1/2"}],
    "families": [{"kind": "uniform", "rank": 1}],
}


def test_reference_values_on_the_canonical_instance():
    assert reference.highs_optimum(CANONICAL) == pytest.approx(0.75, abs=1e-9)
    assert reference.first_best(CANONICAL) == 1
    prices = {(0, 0, 0): Fraction(1), (0, 0, 1): Fraction(2)}
    assert reference.additive_item_pricing(CANONICAL, prices) == Fraction(3, 4)
    assert reference.is_additive_single(CANONICAL)


def test_joint_allocations_respect_items_and_families():
    two = copy.deepcopy(CANONICAL)
    two.update(n=2, m=2)
    two["dists"] = [[CANONICAL["dists"][0][0]] * 2] * 2
    two["costs"] = [{"vector": ["0", "0"], "prob": "1"}]
    two["families"] = [{"kind": "uniform", "rank": 1}] * 2
    # four single pairs, and two ways to give each buyer a different item
    assert len(reference.joint_allocations(two)) == 6
    two["families"][1] = {"kind": "explicit", "members": [0]}
    assert len(reference.joint_allocations(two)) == 2


def test_suite_report_check_fails_on_a_failed_inequality():
    assert reference.check_suite_report("x", []) == []
    assert reference.check_suite_report("x", [("composed_44", "9 > 8")])


def test_lp_optimum_check_fails_on_each_wrong_value():
    opt = Fraction(3, 4)
    assert reference.check_lp_optimum("x", opt, 0.75, Fraction(1, 2), Fraction(1)) == []
    assert reference.check_lp_optimum("x", opt + Fraction(1, 1000), 0.75, 0, 1)
    assert reference.check_lp_optimum("x", opt, 0.75 + 1e-6, 0, 1)
    assert reference.check_lp_optimum("x", opt, 0.75, Fraction(4, 5), 1)
    assert reference.check_lp_optimum("x", opt, 0.75, 0, Fraction(7, 10))


def test_coverage_check_fails_below_nine_in_ten():
    good = [(f"p{k}", 1.0, 0.1, Fraction(1)) for k in range(9)]
    assert reference.check_coverage(good + [("p9", 2.0, 0.1, Fraction(1))]) == []
    assert reference.check_coverage(good[:8] + [("p8", 2.0, 0.1, Fraction(1))] * 2)
    assert reference.check_coverage([])


def test_reproducibility_check_fails_on_one_differing_bit():
    same = [(0.5, 0.01), (0.5, 0.01)]
    assert reference.check_reproducible("x", same) == []
    nudged = 0.5 + 2.0 ** -53
    assert reference.check_reproducible("x", same + [(nudged, 0.01)])


def test_additive_ip_check_fails_on_a_wrong_profit():
    assert reference.check_additive_ip("x", Fraction(3, 4), Fraction(3, 4)) == []
    assert reference.check_additive_ip("x", Fraction(3, 4), Fraction(2, 3))


def test_single_families_check_rejects_a_tampered_optimum():
    workload = SingleFamilies(import_program(), seed=1)
    record = workload.run(workload.ops(0)[-1])  # the smallest slot
    assert workload.check([record]) == []
    record[1].values["opt_profit"] += Fraction(1, 100)
    assert workload.check([record])


def test_mc_check_rejects_a_changed_estimate():
    workload = McSampling(import_program(), seed=1)
    workload.samples = 200
    workload.setup(workload.payloads(0))
    records = [workload.run(pair) for pair in workload.ops(0)[:10]]
    assert workload.check(records) == []
    pair, (est, half) = records[0]
    records.append((pair, (est + 1e-9, half)))
    assert workload.check(records)


def test_ocrs_excuse_holds_only_for_basis_families_above_one_quarter():
    assert ocrs_excused(["basis", "uniform"], lambda: Fraction(13, 40))
    assert not ocrs_excused(["basis", "uniform"], lambda: Fraction(1, 5))
    assert not ocrs_excused(["uniform", "partition"], lambda: Fraction(13, 40))


def test_ocrs_excuse_on_the_known_instance_and_not_elsewhere():
    program = import_program()
    workload = MultiChain(program, seed=1)
    # multi-0016 of this corpus: two basis families, worst selectability 13/40
    payload = program["suites"].build_corpus("multi", 1009005045, 17)[16][1]
    assert workload.ocrs_worst(payload) == Fraction(13, 40)
    assert workload.excused(payload, [OCRS_CHECK]) == (OCRS_CHECK,)
    assert workload.excused(payload, ["prophet_eight_csip"]) == ()
    uniform = dict(payload, families=[{"kind": "uniform", "rank": 1}] * 2)
    assert workload.excused(uniform, [OCRS_CHECK]) == ()
