"""Acceptance suite: every criterion is an exact rational inequality checked on
100% of its corpus (the Monte-Carlo criterion allows 2 of 20 misses by design).

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import pytest

from permitlab.rational import Q
from permitlab.suites import run_suite

SEED = 20260808
WORKERS = 2


def _line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} [{status}] {name} {detail}".rstrip())


def _check_names(summary):
    return [
        name for f in summary["failures"] for (name, _) in f["checks"]
    ]


@pytest.fixture(scope="module")
def s_benchmark():
    return run_suite("benchmark", seed=SEED, count=200, workers=WORKERS)


@pytest.fixture(scope="module")
def s_additive():
    return run_suite("single_additive", seed=SEED, count=100, workers=WORKERS)


@pytest.fixture(scope="module")
def s_constrained():
    return run_suite("single_constrained", seed=SEED, count=100, workers=WORKERS)


@pytest.fixture(scope="module")
def s_properties():
    return run_suite("properties", seed=SEED, count=50, workers=WORKERS)


@pytest.fixture(scope="module")
def s_multi():
    return run_suite("multi", seed=SEED, count=50, workers=WORKERS)


@pytest.fixture(scope="module")
def s_multi_2x3():
    return run_suite("multi_2x3", seed=SEED, count=40, workers=WORKERS)


@pytest.fixture(scope="module")
def s_single_item():
    return run_suite("single_item", seed=SEED, count=50, workers=WORKERS)


@pytest.fixture(scope="module")
def s_monte_carlo():
    return run_suite(
        "monte_carlo", seed=SEED, count=20, workers=WORKERS,
        min_pass_fraction=Q(18, 20),
    )


def test_criterion_01_benchmark_validity(s_benchmark):
    ok = s_benchmark["all_passed"] and s_benchmark["instances"] >= 200
    _line(1, "profit bounded by the three-term benchmark (200 instances)", ok,
          f"- {s_benchmark['passed_instances']}/{s_benchmark['instances']} clean")
    assert ok, s_benchmark["failures"][:5]


def test_criterion_02_single_additive(s_additive):
    bad = [
        n for n in _check_names(s_additive)
        if n in ("profit_vs_families", "six_approx")
    ]
    ok = not bad and s_additive["instances"] >= 100
    _line(2, "additive: OPT <= IP + 3 PP + 2 PB (oracle optima)", ok)
    assert ok, s_additive["failures"][:5]


def test_criterion_03_single_constrained(s_constrained):
    bad = [
        n for n in _check_names(s_constrained)
        if n in ("profit_vs_families", "eleven_approx")
    ]
    ok = not bad and s_constrained["instances"] >= 100
    _line(3, "constrained: OPT <= 2 IP + 5 PP + 4 PB (oracle optima)", ok)
    assert ok, s_constrained["failures"][:5]


def test_criterion_04_copies_chain(s_additive, s_constrained):
    prefixes = (
        "copies_dominates_most_surplus",
        "copies_within_twice_item_pricing",
        "additive_item_pricing_covers",
        "additive_copies_equality",
    )
    bad = [
        n
        for s in (s_additive, s_constrained)
        for n in _check_names(s)
        if n in prefixes
    ]
    ok = not bad
    _line(4, "copies bound: most-surplus <= copies <= 2 x item pricing", ok)
    assert ok, bad


def test_criterion_05_permit_reduction_equalities(s_additive, s_constrained):
    bad = [
        n
        for s in (s_additive, s_constrained)
        for n in _check_names(s)
        if n.startswith("permit_reduction")
    ]
    ok = not bad
    _line(5, "permit reduction: lifted profit equals auxiliary revenue", ok)
    assert ok, bad


def test_criterion_06_valuation_properties(s_properties):
    ok = s_properties["all_passed"] and s_properties["instances"] >= 50
    _line(6, "surplus valuations: monotone, subadditive, local, Lipschitz", ok)
    assert ok, s_properties["failures"][:5]


def test_criterion_07_multi_buyer_chain(s_multi, s_multi_2x3):
    # two items (multi) and three items (multi_2x3) per buyer
    ok = (
        s_multi["all_passed"] and s_multi["instances"] >= 50
        and s_multi_2x3["all_passed"] and s_multi_2x3["instances"] >= 40
    )
    _line(7, "two-buyer chain: 6x / 8x / 2x / (8,20)x and composed 44x", ok,
          f"- {s_multi['passed_instances']}/{s_multi['instances']} (2 items), "
          f"{s_multi_2x3['passed_instances']}/{s_multi_2x3['instances']} (3 items) clean")
    assert ok, (s_multi["failures"] + s_multi_2x3["failures"])[:5]


def test_criterion_08_ocrs_certification():
    summary = run_suite("ocrs", seed=SEED, workers=1)
    ok = summary["all_passed"]
    _line(8, "composed greedy scheme certified (1/2, 1/4)-selectable", ok)
    assert ok, summary["failures"]


def test_criterion_09_equal_revenue_reproduction():
    summary = run_suite("example", seed=SEED, workers=1)
    ok = summary["all_passed"]
    _line(9, "equal-revenue family: revelation earns 1, bundling pulls ahead", ok)
    assert ok, summary["failures"]


def test_criterion_10_single_item_exactness(s_single_item):
    ok = s_single_item["all_passed"] and s_single_item["instances"] >= 50
    _line(10, "single item: LP optimum equals E[(phi~ - c)^+] exactly", ok)
    assert ok, s_single_item["failures"][:5]


def test_criterion_11_monte_carlo_consistency(s_monte_carlo):
    ok = (
        s_monte_carlo["all_passed"]
        and s_monte_carlo["instances"] >= 20
        and s_monte_carlo["passed_instances"] >= 18
    )
    _line(
        11,
        "Monte-Carlo: 99% interval covers the exact profit",
        ok,
        f"- {s_monte_carlo['passed_instances']}/20 covered",
    )
    assert ok, s_monte_carlo["failures"]
