import importlib
import importlib.util
import json
from pathlib import Path

from permitlab.rational import Q
from permitlab.suites import (
    CSV_COLUMNS,
    build_corpus,
    check_benchmark,
    check_multi,
    run_suite,
)
from permitlab.serialize import instance_from_dict


def test_corpus_is_deterministic():
    a = build_corpus("benchmark", seed=4, count=6)
    b = build_corpus("benchmark", seed=4, count=6)
    assert a == b
    c = build_corpus("benchmark", seed=5, count=6)
    assert a != c


def test_multi_recipe_shapes():
    for _, payload, _ in build_corpus("multi", seed=1, count=5):
        inst = instance_from_dict(payload)
        assert inst.n == 2 and inst.m == 2
        assert all(f.is_matroid for f in inst.families)


def test_empty_suite():
    summary = run_suite("single_item", seed=0, count=0, workers=1)
    assert summary["all_passed"] and summary["instances"] == 0


def test_reports_written(tmp_path):
    out = tmp_path / "r"
    summary = run_suite("benchmark", seed=6, count=4, workers=1, out_dir=str(out))
    assert summary["all_passed"]
    rows = (out / "benchmark.csv").read_text().splitlines()
    assert rows[0] == ",".join(CSV_COLUMNS)
    assert len(rows) == 5
    blob = json.loads((out / "benchmark.json").read_text())
    assert blob["suite"] == "benchmark" and blob["all_passed"]
    assert sum(blob["lp_paths"].values()) == 4  # one profit LP per instance


def test_reports_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run_suite("single_item", seed=9, count=5, workers=1, out_dir=str(out))
    assert (a / "single_item.csv").read_bytes() == (b / "single_item.csv").read_bytes()


def test_check_functions_run_standalone():
    tasks = build_corpus("benchmark", seed=12, count=1)
    inst = instance_from_dict(tasks[0][1])
    rep = check_benchmark(inst)
    assert not rep.failed
    tasks = build_corpus("multi", seed=12, count=1)
    inst = instance_from_dict(tasks[0][1])
    rep = check_multi(inst)
    assert not rep.failed
    assert rep.values["opt_profit"] >= rep.values["spb"]


def test_failure_replay(tmp_path, monkeypatch):
    # an instance that trips the LP size guard aborts the run and is saved;
    # the saved file reloads to the same instance and replays the error
    import pytest

    from permitlab import lp, suites

    def tight_guard(instance):
        return lp.solve_profit_lp(instance, guard=1)

    monkeypatch.setattr(suites, "solve_profit_lp", tight_guard)
    out = tmp_path / "r"
    with pytest.raises(RuntimeError, match="exceeds guard 1"):
        run_suite("single_item", seed=9, count=2, workers=1, out_dir=str(out))
    saved = sorted(out.glob("failing-*.json"))
    assert [p.name for p in saved] == ["failing-single_item-0000.json"]
    payload = json.loads(saved[0].read_text())
    assert payload == build_corpus("single_item", seed=9, count=1)[0][1]

    replay = suites._worker(("single_item", payload, {}))
    assert replay["instance_id"] == "single_item-0000"
    assert "exceeds guard 1" in replay["error"]
    monkeypatch.undo()  # at the default guard the saved instance checks clean
    replay = suites._worker(("single_item", payload, {}))
    assert "error" not in replay and not replay["failed"]


def test_mc_reproducible_fails_when_reruns_differ(canonical, monkeypatch):
    from permitlab import suites

    real = suites.monte_carlo_eval
    calls = []

    def drifting(instance, spec, samples, seed):
        calls.append(seed)  # each call draws from a different stream
        return real(instance, spec, min(samples, 2_000), seed + len(calls))

    monkeypatch.setattr(suites, "monte_carlo_eval", drifting)
    rep = suites.check_monte_carlo(canonical, seed=3)
    assert "mc_reproducible" in [name for name, _ in rep.failed]


def test_benchmark_trace_layers_resolve():
    # the benchmark's tracer wraps these names in place; a deleted or renamed
    # one would break a traced run (perfbench/run.py --trace 1) only when run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    sites = [site for _, layer_sites, _ in tracing.LAYERS for site in layer_sites]
    assert sites
    for mod_name, attr in sites:
        mod = importlib.import_module(f"permitlab.{mod_name}")
        assert callable(getattr(mod, attr, None)), f"permitlab.{mod_name}.{attr}"
