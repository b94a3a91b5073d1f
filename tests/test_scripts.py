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

from bornlab import cli, rules

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


def load_script(name):
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), ROOT / "scripts" / name)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


ATLAS_ARGS = ["--trials", "100", "--seed", "0"]  # small scale, one seed that is never changed


@pytest.fixture(scope="module")
def atlas(tmp_path_factory):
    """The atlas at ATLAS_ARGS, run as a user runs it: its rows as dicts."""
    path = tmp_path_factory.mktemp("atlas") / "atlas.csv"
    assert run_script("atlas.py", *ATLAS_ARGS, "--out", str(path)) == ""
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))


def quadratic(name):
    return rules.parse_rule(name).terms == rules.Born().terms


def on_normalizing_line(name, d):  # affine:s:m with s + d*m = 1
    kind, *params = name.split(":")
    return kind == "affine" and abs(float(params[0]) + d * float(params[1]) - 1.0) <= 1e-12


# the survivors the falsifier table cannot yet tell from the quadratic rule, each with the ROADMAP
# items that close it: (rule name, d) -> whether the gap covers it
KNOWN_GAPS = {
    "normalizing-line affine rules (items 3, 22)": on_normalizing_line,
    "renorm:* at d=2 (items 4, 22)": lambda name, d: name.startswith("renorm:") and d == 2,
    "renorm:power:100 (items 15, 16, 18)": lambda name, d: name == "renorm:power:100.0",
    "renorm:power:1e-13 (items 18, 22)": lambda name, d: name == "renorm:power:1e-13",
}


def test_atlas_survivors_are_quadratic_or_known_gaps(atlas):
    verdicts = {}
    for row in atlas:
        verdicts.setdefault((row["rule"], int(row["d"])), []).append(row["verdict"])
    names = [rules.parse_rule(rule).name for rule in load_script("atlas.py").RULES]
    assert list(verdicts) == [(name, d) for name in names for d in range(2, 9)]
    assert all(len(cell) == len(cli.FALSIFIERS) for cell in verdicts.values())
    survivors = {cell for cell, row in verdicts.items() if "fail" not in row}
    assert {cell for cell in verdicts if quadratic(cell[0])} <= survivors  # no quadratic spelling fails
    gaps = {gap: {cell for cell in survivors if covers(*cell)} for gap, covers in KNOWN_GAPS.items()}
    assert survivors == {cell for cell in survivors if quadratic(cell[0])}.union(*gaps.values())
    assert all(gaps.values()), gaps  # every known gap shows


def test_atlas_power_references(atlas):
    # the analytic worst defect |d^(1-p/2) - 1| is attained at the symmetric state and bounds the scan
    for row in atlas:
        kind, *param = row["rule"].split(":")
        if kind == "power" and row["check"] == "defect":
            p, d = float(param[0]), int(row["d"])
            assert float(row["reference"]) == abs(d ** (1 - p / 2) - 1), row
            assert float(row["statistic"]) <= float(row["reference"]) + 1e-12, row
            assert (row["verdict"] == "pass") == (p == 2.0), row
        else:
            assert row["reference"] == "", row


def test_atlas_spellings_parse_as_before():
    # the names parse_rule gave the atlas's spellings while it made the domain checks itself
    renorm = ["born", "power:1.0", "power:2.1", "power:4.0", "power:100.0", "power:1e-13", "affine:1.0:0.1", "affine:0.0:1.0"]
    expected = ["born", *(f"power:{0.25 * i!r}" for i in range(2, 17)),
                "affine:0.5:0.25", "affine:0.7:0.1", "affine:0.5:0.125", "affine:-1.0:0.5", *(f"renorm:{name}" for name in renorm)]
    assert [rules.parse_rule(rule).name for rule in load_script("atlas.py").RULES] == expected


@pytest.mark.parametrize("rule", ["power:1", "renorm:power:4", "renorm:affine:0:1"])
def test_atlas_cells_replay_with_falsify(atlas, capsys, rule):
    name = rules.parse_rule(rule).name
    cells = {row["check"]: row for row in atlas if row["rule"] == name and row["d"] == "3"}
    cli.main(["falsify", "--rule", rule, "--dim", "3", *ATLAS_ARGS])
    results = json.loads(capsys.readouterr().out)["results"]
    reported = {
        "defect": results["defect"]["max_defect"],
        "certainty": results.get("certainty_defect"),
        "independence": max(results[scan]["spread"] for scan in ("observable_scan", "rotation_scan"))
        if "observable_scan" in results else None,
    }
    for check, value in reported.items():
        assert cells[check]["statistic"] == ("" if value is None else repr(value)), check
        assert (cells[check]["verdict"] == "fail") == (value is not None and value > 1e-12), check


def test_a_falsifier_row_is_an_atlas_column(capsys, monkeypatch):
    # a fourth FALSIFIERS row becomes a fourth cell per rule and d, with no edit to the
    # atlas; it fails born, and a failing spelling of the quadratic rule exits 1
    def fourth(rule, d, trials, seed, *address):
        return {}, [], 0.5, [d]

    monkeypatch.setattr(cli, "FALSIFIERS", cli.FALSIFIERS + ((fourth, (4,), "spread", lambda rule: True),))
    script = load_script("atlas.py")
    assert script.main(["--dims", "3", "--trials", "2"]) == 1
    captured = capsys.readouterr()
    rows = list(csv.DictReader(io.StringIO(captured.out)))
    assert [row["check"] for row in rows] == ["defect", "certainty", "independence", "fourth"] * len(script.RULES)
    fourths = {(row["statistic"], row["tolerance"], row["verdict"]) for row in rows if row["check"] == "fourth"}
    assert fourths == {("0.5", "1e-12", "fail")}
    assert "the quadratic rule born fails fourth at d=3" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["--dims", "1"],  # d=1 has the single modulus 1: every defect would read zero
        ["--dims", "0"],
        ["--trials", "0"],
        ["--trials", "-3"],
        ["--seed", "-1"],
    ],
)
def test_exponent_sweep_rejects_what_the_cli_rejects(capsys, argv):
    # the atlas carries the exponent sweep: what falsify rejects as a usage error, the atlas does too
    flag, value = argv
    cli_flag = "--dim" if flag == "--dims" else flag  # falsify takes one d
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["falsify", "--rule", "power:1", cli_flag, value])
    assert exit_info.value.code == 2 and f"{cli_flag} must be at least" in capsys.readouterr().err
    assert f"{flag} must be at least" in usage_error("atlas.py", *argv)


@pytest.mark.parametrize(
    "name, argv, message",
    [
        ("atlas.py", ["--seed", "-1"], "--seed must be at least 0"),
        ("atlas.py", ["--dims", "1,3"], "--dims must be at least 2"),  # d=1 has the single modulus 1
        ("atlas.py", ["--trials", "0"], "--trials must be at least 2"),
        ("atlas.py", ["--out", "{tmp}/missing/atlas.csv"], "No such file or directory"),
        ("atlas.py", ["--out", "{tmp}/file/atlas.csv"], "Not a directory"),
        ("atlas.py", ["--seed", "-1", "--out", "{tmp}/atlas.csv"], "--seed must be at least 0"),  # no file made
        ("result_hashes.py", ["--seed", "-1"], "--seed must be at least 0"),
    ],
    ids=["atlas-negative-seed", "atlas-dims-below-2", "atlas-zero-trials", "atlas-missing-dir",
         "atlas-out-under-file", "run-all-negative-seed", "hashes-negative-seed"],
)
def test_scripts_report_bad_input_as_usage_errors(tmp_path, name, argv, message):
    # tmp_path holds one regular file; the script must stop before it writes anything
    (tmp_path / "file").write_text("")
    assert message in usage_error(name, *(arg.format(tmp=tmp_path) for arg in argv))
    assert [path.name for path in tmp_path.iterdir()] == ["file"]


@pytest.fixture(scope="module")
def hashes_table():
    """result_hashes.py --seed 10, every command of the suite, under PYTHONHASHSEED=0."""
    return run_script("result_hashes.py", "--seed", "10", PYTHONHASHSEED="0")


def test_run_all_experiments(hashes_table):
    # two processes with different string hashing run every command to the same results
    assert run_script("result_hashes.py", "--seed", "10", PYTHONHASHSEED="1") == hashes_table


def test_result_hashes_table(hashes_table):
    script = load_script("result_hashes.py")
    header, *lines = hashes_table.splitlines()
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


def test_result_hashes_prints_one_block_per_seed(monkeypatch):
    # two short commands at two seeds: each block is its seed's table, in the order given
    script = load_script("result_hashes.py")
    monkeypatch.setattr(script, "COMMANDS", [["spin1", "--trials", "20"], ["sample", "--shots", "200", "--trials", "2"]])
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert script.main(["--seed", "11", "--seed", "3"]) == 0
    for block, seed in zip(out.getvalue().split("\n\n"), (11, 3), strict=True):
        assert block.splitlines() == ["command\tjson\tcsv\texit json/csv"] + [script.row(argv, seed) for argv in script.COMMANDS]


def test_each_mutant_row_names_one_line_of_src_and_a_test():
    # the rows are run by `scripts/mutants.py --run`; here only their anchors are checked, so a
    # change that removes or repeats a mutated line, or renames its test, must update the row
    sources = {path: path.read_text(encoding="utf-8") for path in (ROOT / "src").rglob("*.py")}
    for mutant in load_script("mutants.py").MUTANTS:
        assert sum(text.count(mutant.old) for text in sources.values()) == 1, mutant.old
        assert sources[ROOT / "src" / mutant.path].count(mutant.old) == 1, mutant.old
        path, *names = mutant.test.split("::")
        test_source = (ROOT / path).read_text(encoding="utf-8")
        *classes, function = [name.partition("[")[0] for name in names]  # a parametrized test's node id ends in [case]
        assert all(f"class {name}" in test_source for name in classes), mutant.test  # a module-level test has none
        assert f"def {function}(" in test_source, mutant.test


def test_one_test_file_runs_from_the_root():
    # pyproject's pythonpath puts src/ on the path, so no PYTHONPATH is needed
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    completed = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_streams.py"],
        cwd=ROOT, capture_output=True, text=True, env=env, timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
