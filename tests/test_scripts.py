"""Smoke tests of the experiment scripts, run as a user runs them."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, **env_vars):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env_vars)
    completed = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, check=True, timeout=300,
    )
    return completed.stdout


def test_exponent_sweep_csv():
    rows = list(csv.reader(io.StringIO(run_script("exponent_sweep.py", "--trials", "50"))))
    assert rows[0] == ["exponent", "max_defect", "mean_defect", "symmetric_point_defect"]
    by_exponent = {float(row[0]): [float(x) for x in row[1:]] for row in rows[1:]}
    assert by_exponent[2.0][0] <= 1e-12
    for p, (_, _, symmetric) in by_exponent.items():
        assert symmetric == abs(2 ** (1 - p / 2) - 1)


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
