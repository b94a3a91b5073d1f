"""Smoke tests of the experiment scripts, run as a user runs them."""

import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bornlab import cli

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, **env_vars):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env_vars)
    completed = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, check=True, timeout=300,
    )
    return completed.stdout


def usage_error(name, *args):
    """Run a script that must stop as the CLI does on bad input: exit 2, no
    traceback, nothing on stdout, one error line from the script's parser."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    completed = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert completed.returncode == 2 and completed.stdout == "", completed.stderr
    assert f"{name}: error: " in completed.stderr and "Traceback" not in completed.stderr
    return completed.stderr


def test_exponent_sweep_csv():
    rows = list(csv.reader(io.StringIO(run_script("exponent_sweep.py", "--trials", "50"))))
    assert rows[0] == ["exponent", "max_defect", "mean_defect", "symmetric_point_defect"]
    by_exponent = {float(row[0]): [float(x) for x in row[1:]] for row in rows[1:]}
    assert by_exponent[2.0][0] <= 1e-12
    for p, (_, _, symmetric) in by_exponent.items():
        assert symmetric == abs(2 ** (1 - p / 2) - 1)


@pytest.mark.parametrize(
    "argv",
    [
        ["--dim", "1", "--trials", "5"],  # d=1 has the single modulus 1: every defect would read zero
        ["--dim", "0", "--trials", "5"],
        ["--trials", "0"],
        ["--trials", "-3"],
        ["--seed", "-1", "--trials", "5"],
    ],
)
def test_exponent_sweep_rejects_what_the_cli_rejects(argv):
    # a usage error: exit 2 and one line of usage, no traceback and no table
    assert f"{argv[0]} must be at least" in usage_error("exponent_sweep.py", *argv)


@pytest.mark.parametrize(
    "name, argv, message",
    [
        ("exponent_sweep.py", ["--trials", "5", "--out", "{tmp}/missing/x.csv"], "No such file or directory"),
        ("run_all_experiments.py", ["--outdir", "{tmp}/file/runs"], "Not a directory"),
        ("run_all_experiments.py", ["--seed", "-1", "--outdir", "{tmp}/runs"], "--seed must be at least 0"),
        ("result_hashes.py", ["--seed", "-1"], "--seed must be at least 0"),
    ],
    ids=["sweep-missing-dir", "run-all-outdir-under-file", "run-all-negative-seed", "hashes-negative-seed"],
)
def test_scripts_report_bad_input_as_usage_errors(tmp_path, name, argv, message):
    # tmp_path holds one regular file; the script must stop before it writes anything
    (tmp_path / "file").write_text("")
    assert message in usage_error(name, *(arg.format(tmp=tmp_path) for arg in argv))
    assert [path.name for path in tmp_path.iterdir()] == ["file"]


def test_run_all_experiments(tmp_path):
    # two processes with different string hashing write the same reports
    reports = []
    for hashseed in ("0", "1"):
        outdir = tmp_path / hashseed
        lines = run_script("run_all_experiments.py", "--outdir", str(outdir), PYTHONHASHSEED=hashseed).splitlines()
        assert not any("SURPRISE" in line for line in lines)
        reports.append({path.name: json.loads(path.read_text()) for path in outdir.glob("*.json")})
    first, second = reports
    assert len(first) == 13 and first.keys() == second.keys()
    for name, report in first.items():
        other = second[name]
        assert (report["results"], report["pass"]) == (other["results"], other["pass"]), name
        assert report["config"] == dict(other["config"], out=report["config"]["out"]), name


def test_result_hashes_table():
    spec = importlib.util.spec_from_file_location("result_hashes", ROOT / "scripts" / "result_hashes.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)

    header, *lines = run_script("result_hashes.py", "--seed", "10").splitlines()
    assert header == "command\tjson\tcsv\texit json/csv"
    rows = {command: rest for command, *rest in (line.split("\t") for line in lines)}
    assert list(rows) == [" ".join(argv + ["--seed", "10"]) for argv in script.COMMANDS]
    for command, (json_hash, csv_hash, codes) in rows.items():
        assert len(json_hash) == len(csv_hash) == 16 and int(json_hash + csv_hash, 16) >= 0, command
        json_code, csv_code = codes.removeprefix("exit ").split("/")
        assert json_code == csv_code, command
        argv = command.split()
        if argv[0] == "falsify" and argv[2] in script.PLAIN_RULES:
            kind, *params = argv[2].split(":")
            d = int(argv[4])
            normalizes = kind == "born" or (kind == "affine" and abs(float(params[0]) + d * float(params[1]) - 1.0) <= 1e-12)
            assert json_code == ("0" if normalizes else "1"), command
        if argv[0] == "independence" and argv[2] in script.PLAIN_RULES + ["power:2"]:
            # a plain rule passes only with born's formula, whatever its name
            assert json_code == ("0" if argv[2] in ("born", "power:2") else "3"), command
        if argv[2] == "renorm:affine:0:1":  # the uniform rule p_k = 1/d fails certainty on an eigenstate
            assert json_code == "1", command
        if argv[0] == "verify-born":  # born passes, also at a zero spread tolerance
            assert json_code == "0", command

    # one falsify run down each path of the verdict rule: certainty, spread, inconclusive
    codes = [rows[" ".join(argv + ["--seed", "10"])][2] for argv in script.EDGE_CASES[-3:]]
    assert codes == ["exit 1/1", "exit 1/1", "exit 3/3"]

    # the JSON digest is the sha256 of results, config and pass as emitted
    argv = ["falsify", "--rule", "power:1", "--dim", "2", "--trials", "150", "--seed", "10"]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli.main(argv)
    report = json.loads(out.getvalue())
    payload = json.dumps({"results": report["results"], "config": report["config"], "pass": report["pass"]})
    assert rows[" ".join(argv)][0] == hashlib.sha256(payload.encode()).hexdigest()[:16]


def test_one_test_file_runs_from_the_root():
    # pyproject's pythonpath puts src/ on the path, so no PYTHONPATH is needed
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    completed = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_streams.py"],
        cwd=ROOT, capture_output=True, text=True, env=env, timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
