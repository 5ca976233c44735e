import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

FAKE_RUN = '''
import json, os, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
workload = sys.argv[sys.argv.index("--workload") + 1]
with open("../order.log", "a") as fh:
    fh.write("{side} ")
wall = {wall} + seed / 100
scale = {scale} * (1 + seed / 10)
result = {{
    "correct": True, "attempted": {per_seed} * seed, "failed": 0,
    "metrics": {{
        "wall_s": {{"value": wall, "unit": "s"}},
        "setup_s": {{"value": 0.5, "unit": "s"}},
        "peak_rss_mb": {{"value": 20.0 + seed, "unit": "MiB"}},
    }},
}}
# the unscaled rounds, whose mean times the scale is wall_s
detail = {{"round_s": [wall / scale * 0.9, wall / scale * 1.1], "scale": scale}}
os.makedirs("perfbench/results", exist_ok=True)
with open(f"perfbench/results/{{workload}}-seed{{seed}}-trace0.json", "w") as fh:
    json.dump(dict(result, detail=detail), fh)
print("1 operations per round")
print(json.dumps(result))
'''


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_bench_pairs_alternates_sides_and_summarizes(tmp_path, monkeypatch):
    for side, wall, per_seed, scale in (("parent", 2.0, 12, 1.0), ("change", 1.0, 10, 0.25)):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        run = FAKE_RUN.format(side=side, wall=wall, per_seed=per_seed, scale=scale)
        (tmp_path / side / "perfbench" / "run.py").write_text(run)
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path / side)
    mod = _load()
    monkeypatch.setattr(mod, "ROOT", tmp_path)
    args = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change")]
    args += ["--workload", "mc_sampling", "--seeds", "1", "2", "3", "4", "--pr", "t"]
    assert mod.main(args) == 0

    order = (tmp_path / "order.log").read_text().split()
    assert order == ["parent", "change", "change", "parent"] * 2
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    entry = doc["workloads"]["mc_sampling"]
    assert [p["first"] for p in entry["pairs"]] == ["parent", "change"] * 2
    assert [p["change"]["attempted"] for p in entry["pairs"]] == [10, 20, 30, 40]
    wall = entry["summary"]["wall_s"]
    assert wall["change_better_pairs"] == 4 and wall["pairs"] == 4
    assert wall["parent"]["median"] == pytest.approx(2.025)
    assert wall["change"]["median"] == pytest.approx(1.025)
    assert wall["median_gap_exceeds_parent_iqr"] and wall["within_bound"]
    setup = entry["summary"]["setup_s"]
    assert setup["change_better_pairs"] == 0 and setup["median_change"] == 0
    assert not setup["median_gap_exceeds_parent_iqr"] and setup["within_bound"]
    # operations run per side (12 and 10 per seed unit), to read peak_rss_mb against
    attempted = entry["summary"]["attempted"]
    assert attempted["parent"] == {"median": 30, "q1": 21, "q3": 39, "iqr": 18}
    assert attempted["change"] == {"median": 25, "q1": 17.5, "q3": 32.5, "iqr": 15}
    # unscaled mean rounds and probe scales, read from each run's results file:
    # the change's wall_s is lower only because its probe scale is, while its
    # unscaled rounds are slower
    first = entry["pairs"][0]
    assert first["parent"]["round_s"] == pytest.approx(2.01 / 1.1)
    assert first["change"]["scale"] == pytest.approx(0.275)
    rounds, scales = entry["summary"]["round_s"], entry["summary"]["scale"]
    assert scales["parent"]["median"] == pytest.approx(1.25)
    assert scales["change"]["median"] == pytest.approx(0.3125)
    assert scales["median_change"] == pytest.approx(-0.75)
    for side, wall, scale in (("parent", 2.0, 1.0), ("change", 1.0, 0.25)):
        per_seed = sorted((wall + s / 100) / (scale * (1 + s / 10)) for s in (1, 2, 3, 4))
        assert rounds[side]["median"] == pytest.approx((per_seed[1] + per_seed[2]) / 2)
    assert rounds["median_change"] > 1
