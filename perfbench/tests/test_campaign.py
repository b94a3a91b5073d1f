"""Workload generation, reply checks and the benchmark's own contract."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import campaign
from perfbench.run import END_TO_END, PER_LAYER, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_the_inputs_but_not_the_mix(workload):
    first = campaign.build(workload, 3, 2)
    assert first == campaign.build(workload, 3, 2)
    other = campaign.build(workload, 4, 2)
    assert first != other
    commands = lambda invs: [(inv.argv[0], inv.argv.count("csv"), inv.twin) for inv in invs]
    assert commands(first) == commands(other)


def test_independence_twins_differ_only_in_threads():
    invocations = campaign.build("independence-threads", 1, 1)
    twins = [(invocations[inv.twin].argv, inv.argv) for inv in invocations if inv.twin >= 0]
    assert len(twins) == len(invocations) // 2
    for t1, t2 in twins:
        assert t1[:-1] == t2[:-1] and (t1[-1], t2[-1]) == ("1", "2")


def falsify(rule, dim, code, falsified, max_defect):
    argv = ("falsify", "--rule", rule, "--dim", str(dim), "--seed", "1")
    text = json.dumps({"results": {"falsified": falsified, "defect": {"max_defect": max_defect}}})
    return campaign.check(argv, code, text)


def test_falsify_verdicts():
    assert falsify("born", 3, 0, False, 1e-16) == "ok"
    assert falsify("born", 3, 1, True, 1e-3).startswith("unexpected")
    assert falsify("power:1.0", 2, 1, True, 0.4) == "ok"
    # above the symmetric-state bound |2^(1/2) - 1|
    assert falsify("power:1.0", 2, 1, True, 0.5).startswith("unexpected")
    assert falsify("affine:0.5:0.125", 4, 0, False, 1e-16) == "ok"
    assert falsify("affine:1.0:0.125", 4, 1, True, 0.5) == "ok"
    assert falsify("affine:1.0:0.125", 4, 1, True, 0.25).startswith("unexpected")
    assert falsify("renorm:power:4.0", 3, 1, True, 0.0) == "ok"
    assert falsify("renorm:power:4.0", 3, 0, False, 0.0).startswith("unexpected")


def test_known_defects_count_as_failures_of_their_own():
    assert falsify("renorm:power:4.0", 2, 0, False, 0.0) == "renorm-d2-pass"
    assert falsify("renorm:power:4.0", 2, 0, None, 0.0) == "ok"
    sample = lambda code, within, repeat: campaign.check(("sample", "--seed", "1"), code, json.dumps(
        {"results": {"all_within_3_sigma": within, "all_repeat_consistent": repeat}}))
    assert sample(0, True, True) == "ok"
    assert sample(1, False, True) == "sample-false-alarm"
    assert sample(1, True, False).startswith("unexpected")


def test_csv_replies_are_checked():
    argv = ("recover", "--seed", "1", "--format", "csv")
    rows = "index,d,k,value\n1,,,0.0\n2,,,1.0\n3,,,0.0\n4,,,0.0\n"
    assert campaign.check(argv, 0, rows) == "ok"
    assert campaign.check(argv, 0, rows.replace("2,,,1.0", "2,,,0.9")).startswith("unexpected")


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "defect-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
