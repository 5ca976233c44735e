import json
import os
import re

from permitlab.cli import main
from permitlab.generator import random_instance
from permitlab.mechanisms import construct_csip_from_copies, evaluate
from permitlab.rational import rat, rat_str
from permitlab.serialize import (
    instance_from_dict,
    instance_to_dict,
    load_instance,
    load_spec,
    save_instance,
    save_spec,
    spec_from_dict,
    spec_to_dict,
)


def test_rational_strings():
    assert rat_str(rat("3/4")) == "3/4"
    assert rat_str(rat(5)) == "5"
    assert rat("7") == 7


def test_instance_roundtrip(tmp_path):
    for k in range(5):
        inst = random_instance(7000 + k, n_max=2, m_max=3, families="mixed")
        blob = instance_to_dict(inst)
        back = instance_from_dict(json.loads(json.dumps(blob)))
        assert instance_to_dict(back) == blob
        path = tmp_path / f"i{k}.json"
        save_instance(inst, str(path))
        again = load_instance(str(path))
        assert instance_to_dict(again) == blob


def test_spec_roundtrip(tmp_path):
    inst = random_instance(4242, n_max=2, m_max=2, families="matroid")
    spec = construct_csip_from_copies(inst)
    path = tmp_path / "spec.json"
    save_spec(spec, str(path))
    back = load_spec(inst, str(path))
    assert evaluate(inst, back).profit == evaluate(inst, spec).profit
    assert spec_to_dict(back) == spec_to_dict(spec)


def test_generate_is_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        rc = main(
            [
                "generate",
                "--out",
                str(out),
                "--seed",
                "9",
                "--count",
                "4",
            ]
        )
        assert rc == 0
    for name in sorted(os.listdir(a)):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_cli_verify_and_eval(tmp_path, capsys):
    out = tmp_path / "c"
    assert main(["generate", "--out", str(out), "--seed", "3", "--count", "1"]) == 0
    inst_path = str(out / "gen-0000.json")
    assert main(["verify", "--instance", inst_path]) == 0
    inst = load_instance(inst_path)
    spec = construct_csip_from_copies(inst)
    spec_path = str(tmp_path / "s.json")
    save_spec(spec, spec_path)
    assert main(["eval", "--instance", inst_path, "--spec", spec_path]) == 0
    assert (
        main(
            [
                "eval",
                "--instance",
                inst_path,
                "--spec",
                spec_path,
                "--mc",
                "2000",
                "--json",
                str(tmp_path / "mc.json"),
            ]
        )
        == 0
    )
    mc = json.loads((tmp_path / "mc.json").read_text())
    assert sorted(mc) == ["estimate", "half_width", "samples"]
    assert mc["samples"] == 2000 and mc["half_width"] > 0
    capsys.readouterr()


def test_cli_run_writes_reports(tmp_path, capsys):
    out = tmp_path / "rep"
    rc = main(
        [
            "run",
            "--suite",
            "single_item",
            "--seed",
            "1",
            "--count",
            "5",
            "--out",
            str(out),
            "--workers",
            "1",
        ]
    )
    assert rc == 0
    # the status line ends in the suite's seconds, which stay out of the CSV
    status = capsys.readouterr().out.splitlines()[0]
    assert re.fullmatch(r"\[pass\] single_item: 5/5 instances clean \(\d+\.\d s\)", status)
    csv_path = out / "single_item.csv"
    assert csv_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header.split(",")[:3] == ["instance_id", "opt_profit", "ip"]
    assert not any("time" in col or col.endswith("_s") for col in header.split(","))
    summary = json.loads((out / "single_item.json").read_text())
    assert summary["all_passed"] is True
