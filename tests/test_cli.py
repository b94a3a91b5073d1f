"""End-to-end command-line behavior: exit codes, schema, determinism."""

import argparse
import csv
import functools
import importlib.util
import inspect
import io
import itertools
import json
import math
import os
import shlex
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import numpy as np

from bornlab import cli, invariance, linalg, quantum, rules, variational
from bornlab.cli import Report, build_parser, main, run_config
from bornlab.linalg import haar_array
from bornlab.streams import substream
from bornlab.tolerances import TOL

SMALL = ["--trials", "200", "--seed", "42"]

# For every flag a command may echo: a small base value, another value, and
# how the config echo shows the other value.
FLAG_VALUES = {
    "--dims": ("2,3", "2,4", [2, 4]),
    "--dim": ("3", "4", 4),
    "--trials": ("40", "41", 41),
    "--shots": ("50", "60", 60),
    "--rule": ("power:3", "renorm:power:3", "renorm:power:3.0"),
    "--tol-defect": ("1e-12", "0.5", 0.5),
    "--tol-spread": ("1e-12", "0.25", 0.25),
}
UNECHOED = {"--help", "--seed", "--format", "--out", "--threads"}


def _subparsers() -> dict:
    action = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _echoed_flags(command: str) -> list[str]:
    actions = _subparsers()[command]._actions
    return [a.option_strings[-1] for a in actions if a.option_strings and a.option_strings[-1] not in UNECHOED]


SUBCOMMANDS = list(_subparsers())


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestExitCodes:
    def test_verify_born_passes(self, capsys):
        code, report = run_json(capsys, ["verify-born", "--dims", "2,3"] + SMALL)
        assert code == 0 and report["pass"] is True

    def test_falsify_power_one_exits_one(self, capsys):
        code, report = run_json(capsys, ["falsify", "--rule", "power:1", "--dim", "2"] + SMALL)
        assert code == 1 and report["pass"] is False
        assert report["results"]["falsified"] is True

    def test_falsify_born_exits_zero(self, capsys):
        code, report = run_json(capsys, ["falsify", "--rule", "born", "--dim", "2"] + SMALL)
        assert code == 0 and report["results"]["falsified"] is False

    def test_unknown_rule_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["falsify", "--rule", "bogus"])
        assert excinfo.value.code == 2

    def test_dimension_one_is_usage_error(self):
        for argv in (
            ["verify-born", "--dims", "1"],
            ["sample", "--dim", "1"],
            ["falsify", "--rule", "born", "--dim", "1"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2

    def test_missing_command_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_negative_seed_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["spin1", "--seed", "-1"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", ["falsify", "independence"])
    def test_renormalized_rule_at_dim_two_is_inconclusive(self, capsys, command):
        # the complement orthant of a qubit is a single point, so neither
        # independence scan can separate a renormalized rule from Born
        argv = [command, "--dim", "2", "--trials", "50", "--seed", "3"]
        code, report = run_json(capsys, argv + ["--rule", "renorm:power:4"])
        results = report["results"]
        assert code == 3 and report["pass"] is False
        assert results["inconclusive"] == "at d=2 both independence spreads vanish for every rule; use --dim 3 or more"
        if command == "falsify":
            assert results["falsified"] is None and results["witness"] is None
        assert run_json(capsys, argv + ["--rule", "born"])[0] == 0

    @pytest.mark.parametrize(
        "argv, reason",
        [
            # a^2 - 1 <= 0 at every modulus, so no renormalization exists: rejected when parsed
            (["falsify", "--rule", "renorm:affine:1:-1"], "rule 'renorm:affine:1:-1' has a negative base value: affine:1.0:-1.0 is below 0 on [0, 1]"),
            # f(1) = scale + offset is the largest |f| on [0, 1]: one that overflows is rejected when
            # parsed, a renorm: rule's base too, before any state is drawn
            (["falsify", "--rule", "affine:1.5e308:1.5e308"], "affine:1.5e+308:1.5e+308 is not finite at every modulus"),
            (["falsify", "--rule", "renorm:affine:1e308:1e308"],
             "rule 'renorm:affine:1e308:1e308' overflows: affine:1e+308:1e+308 is not finite at every modulus"),
            (["independence", "--rule", "renorm:affine:1e308:1e308"],
             "rule 'renorm:affine:1e308:1e308' overflows: affine:1e+308:1e+308 is not finite at every modulus"),
            # a^2 - 0.2 sums to 1 - 0.6 > 0 at d=3 but is negative below a^2 = 0.2, at a = 0 first of
            # all: the parser rejects it before any state is drawn
            (["independence", "--rule", "renorm:affine:1:-0.2"], "rule 'renorm:affine:1:-0.2' has a negative base value: affine:1.0:-0.2 is below 0 on [0, 1]"),
            (["falsify", "--rule", "renorm:affine:1:-0.2"], "rule 'renorm:affine:1:-0.2' has a negative base value: affine:1.0:-0.2 is below 0 on [0, 1]"),
            # 0 on all of [0, 1]: no row can be renormalized, so both commands refuse it when parsed,
            # where falsify's certainty row and independence's 1/sqrt(d) guard refused it in two ways
            (["falsify", "--rule", "renorm:affine:0:0"], "rule 'renorm:affine:0:0' has no positive base value: affine:0.0:0.0 is 0 on [0, 1]"),
            (["independence", "--rule", "renorm:affine:0:0"], "rule 'renorm:affine:0:0' has no positive base value: affine:0.0:0.0 is 0 on [0, 1]"),
            # a bound main checks after parsing, and an --out path that cannot be opened
            (["falsify", "--rule", "born", "--dim", "1"], "--dim must be at least 2"),
            (["falsify", "--rule", "born", "--out", "{tmp}/missing/report.json"], "No such file or directory"),
            # words the command's parser does not know: it reads the whole command line, so it names them
            (["falsify", "--rule", "born", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
            (["falsify", "--rule", "born", "extra"], "unrecognized arguments: extra"),
        ],
        ids=["renorm:affine:1:-1", "affine-overflow", "renorm:affine-overflow", "independence:renorm:affine-overflow",
             "independence:renorm:affine-negative", "falsify:renorm:affine-negative", "falsify:renorm-zero-base",
             "independence:renorm-zero-base", "falsify:dim-bound", "falsify:out",
             "falsify:unrecognized-option", "falsify:unrecognized-word"],
    )
    def test_domain_error_is_usage_error(self, capsys, tmp_path, argv, reason):
        with pytest.raises(SystemExit) as excinfo:
            main(argv[:1] + ["--dim", "3", "--trials", "10"] + [arg.format(tmp=tmp_path) for arg in argv[1:]])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert reason in captured.err
        # the one-line message after argparse's usage, from the command's own parser,
        # whether the parser, a bound, the rule's domain or the file system rejects the run
        errors = [line for line in captured.err.splitlines() if "error: " in line]
        assert len(errors) == 1 and errors[0].startswith(f"bornlab {argv[0]}: error: ") and reason in errors[0]
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["independence", "falsify"])
    def test_renormalized_rule_negative_near_zero_is_rejected_on_every_seed(self, capsys, command):
        # a^2 - 0.0001 is negative only at a < 0.01, which a scan's draws may miss; the parser
        # reads the base rule at a = 0, so no seed reaches a verdict
        for seed in range(20):
            with pytest.raises(SystemExit) as excinfo:
                main([command, "--rule", "renorm:affine:1:-0.0001", "--dim", "3", "--seed", str(seed)])
            assert excinfo.value.code == 2, seed
            captured = capsys.readouterr()
            assert captured.out == "" and "rule 'renorm:affine:1:-0.0001' has a negative base value" in captured.err

    @pytest.mark.parametrize(
        "argv, reason",
        [
            # f(1) = 2e308 overflows, while a draw overflows only where some a^2 > 0.797
            (["independence", "--rule", "affine:1e308:1e308", "--dim", "3"], "affine:1e+308:1e+308 is not finite at every modulus"),
            (["independence", "--rule", "affine:1e308:1e308", "--dim", "8"], "affine:1e+308:1e+308 is not finite at every modulus"),
            # a^p at 1/sqrt(d) underflows to 0, while a draw's sum underflows only where every modulus is small
            (["falsify", "--rule", "renorm:power:1500", "--dim", "3"], "renorm:power:1500.0's base is 0 at 1/sqrt(3), so a sum can underflow"),
            (["independence", "--rule", "renorm:power:1500", "--dim", "3"], "renorm:power:1500.0's base is 0 at 1/sqrt(3), so a sum can underflow"),
            (["falsify", "--rule", "renorm:power:1000", "--dim", "8"], "renorm:power:1000.0's base is 0 at 1/sqrt(8), so a sum can underflow"),
        ],
        ids=["independence:affine-overflow-d3", "independence:affine-overflow-d8", "falsify:renorm-underflow-d3",
             "independence:renorm-underflow-d3", "falsify:renorm-underflow-d8"],
    )
    def test_overflow_and_underflow_are_refused_on_every_seed(self, capsys, argv, reason):
        # each line exited 0, 1, 2 or 3 by seed while only a draw could find the overflow or underflow
        for seed in range(10):
            with pytest.raises(SystemExit) as excinfo:
                main(argv + ["--trials", "20", "--seed", str(seed)])
            assert excinfo.value.code == 2, seed
            captured = capsys.readouterr()
            errors = [line for line in captured.err.splitlines() if "error: " in line]
            assert captured.out == "" and len(errors) == 1 and reason in errors[0], seed
            assert "Traceback" not in captured.err

    def test_underflowing_renormalization_sum_is_named(self, capsys):
        # every a^2000 > 0, but a state with all moduli below 0.69 takes each
        # to 0.0, so the sum is zero without a non-positive base value
        with pytest.raises(SystemExit) as excinfo:
            main(["falsify", "--rule", "renorm:power:2000", "--dim", "8", "--trials", "10"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "renormalization sum is not positive" in captured.err
        assert "underflow" in captured.err

    def test_out_into_missing_directory_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "missing" / "report.json"
        with pytest.raises(SystemExit) as excinfo:
            main(["spin1", "--trials", "10", "--out", str(path)])
        assert excinfo.value.code == 2
        assert "No such file or directory" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, minimum",
        [
            (["independence", "--trials", "1"], 2),
            (["falsify", "--rule", "renorm:power:4", "--trials", "1"], 2),
            (["recover", "--trials", "39"], 40),
        ],
        ids=lambda v: v[0] if isinstance(v, list) else None,
    )
    def test_too_few_trials_is_usage_error(self, capsys, argv, minimum):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"--trials must be at least {minimum}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("shots", [str(2**63), "100000000000000000000"])
    def test_shots_past_int64_is_usage_error(self, capsys, shots):
        # numpy's multinomial counts are int64: one shot more was an OverflowError, exit 4
        with pytest.raises(SystemExit) as excinfo:
            main(["sample", "--shots", shots, "--trials", "1"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"--shots must be at most {2**63 - 1}" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", cli.COMMANDS)
    @pytest.mark.parametrize("trials", [str(2**32 + 1), "5000000000"])
    def test_trials_past_a_family_index_is_usage_error(self, capsys, command, trials):
        # no command can hold 2**32 rows, so more trials are out of range: a usage error, not a runtime
        # failure.  Only values past the bound are run, so the check stops them before any draw
        rule = ["--rule", "power:3"] if command == "falsify" else []
        with pytest.raises(SystemExit) as excinfo:
            main([command, *rule, "--trials", trials])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"--trials must be at most {2**32}" in err and "Traceback" not in err

    def test_most_shots_run_and_pass(self, capsys):
        code, report = run_json(capsys, ["sample", "--shots", str(2**63 - 1), "--trials", "2"])
        assert code == 0 and report["config"]["shots"] == 2**63 - 1
        assert report["pass"] is True and report["results"]["all_repeat_consistent"] is True

    def test_sample_that_tests_no_frequency_is_inconclusive(self, capsys, monkeypatch):
        # 9 shots in 3 cells: every pair's cells pool into one, so no chi-square runs
        argv = ["sample", "--dim", "3", "--shots", "9", "--trials", "10", "--seed", "3"]
        code, report = run_json(capsys, argv)
        results = report["results"]
        assert code == 3 and report["pass"] is False
        assert all(pair["dof"] == 0 and pair["p_value"] == 1.0 and pair["within_3_sigma"] is None for pair in results["pairs"])
        assert results["p_value_threshold"] is None
        assert results["all_within_3_sigma"] is True and results["all_repeat_consistent"] is True
        assert results["inconclusive"] == "every pair's counts pool into one cell, so no frequency is tested; raise --shots"
        # a collapse that does not repeat is still a failed check: the 100 re-measurements land one outcome over
        real = quantum.sample_outcomes
        rolled = lambda p, shots, rng: np.roll(real(p, shots, rng), 1 if shots == 100 else 0, axis=-1)
        monkeypatch.setattr(quantum, "sample_outcomes", rolled)
        code, report = run_json(capsys, argv)
        assert code == 1 and report["results"]["all_repeat_consistent"] is False
        assert "inconclusive" not in report["results"]

    def test_sample_judges_only_the_pairs_it_tests(self, capsys):
        # 12 shots in 3 cells: at seed 4, 7 of the 10 pairs pool into one cell, so 3 pairs are tested,
        # each at the Sidak level for 3 pairs, and the untested ones are neither passed nor failed
        code, report = run_json(capsys, ["sample", "--dim", "3", "--shots", "12", "--trials", "10", "--seed", "4"])
        results = report["results"]
        tested = [pair for pair in results["pairs"] if pair["dof"]]
        untested = [pair for pair in results["pairs"] if not pair["dof"]]
        assert len(tested) == 3 and len(untested) == 7  # the precondition: some pairs pool into one cell, some do not
        assert all(pair["within_3_sigma"] is None and pair["p_value"] == 1.0 for pair in untested)
        threshold = results["p_value_threshold"]
        assert threshold == TOL.sample_p_value(3) > TOL.sample_p_value(10)
        assert results["alpha"] == TOL.sample_alpha  # the run's stated rate, whatever the tested count
        assert [pair["within_3_sigma"] for pair in tested] == [pair["p_value"] >= threshold for pair in tested]
        assert results["all_within_3_sigma"] is all(pair["within_3_sigma"] for pair in tested) is True
        assert "inconclusive" not in results and results["all_repeat_consistent"] is True
        assert code == 0 and report["pass"] is True

    def test_large_dim_sample_finishes(self, capsys):
        # 200 cells of 5 expected shots each on average: the sparse ones are pooled
        code, report = run_json(capsys, ["sample", "--dim", "200", "--shots", "1000", "--trials", "1"])
        results = report["results"]
        assert sum(results["pairs"][0]["frequencies"]) == pytest.approx(1.0)
        assert results["all_repeat_consistent"] is True
        assert 0 < results["pairs"][0]["dof"] < 199
        assert code == (0 if results["all_within_3_sigma"] else 1)

    @staticmethod
    def false_alarm_bound(runs: int) -> int:
        """The fewest failures k such that a correct sampler, failing each run with
        probability alpha = TOL.sample_p_value(1), fails more than k of `runs`
        runs with probability below 1e-3 (binomial tail)."""
        alpha = TOL.sample_p_value(1)
        tail = lambda k: sum(math.comb(runs, j) * alpha**j * (1 - alpha) ** (runs - j) for j in range(k + 1, runs + 1))
        return next(k for k in range(runs + 1) if tail(k) < 1e-3)

    @pytest.mark.parametrize(
        "argv, seeds",
        [
            (["--dim", "3", "--shots", "20000", "--trials", "10"], range(40)),
            (["--dim", "32"], range(20)),
            (["--dim", "200", "--shots", "1000", "--trials", "1"], range(20)),
        ],
        ids=["dim3", "dim32", "dim200"],
    )
    def test_correct_sampler_false_alarms_stay_within_their_rate(self, capsys, argv, seeds):
        # seeds fixed before the chi-square verdict: the per-cell 3-sigma bands
        # failed 6 of the 40 dim3 runs, 10 of the 20 dim32 runs and 15 of the 20 dim200 runs
        codes = [run_json(capsys, ["sample", *argv, "--seed", str(seed)])[0] for seed in seeds]
        assert set(codes) <= {0, 1}
        # at the 6-sigma level (alpha 2.0e-9) the bound is 0: no run of a correct sampler may fail
        assert codes.count(1) <= self.false_alarm_bound(len(codes)) == 0

    def test_large_dim_independence_passes(self, capsys):
        code, report = run_json(capsys, ["independence", "--dim", "256", "--trials", "2"])
        assert code == 0 and report["pass"] is True

    def test_plain_rule_falsify_runs_one_trial(self, capsys):
        code, report = run_json(capsys, ["falsify", "--rule", "power:1", "--dim", "2", "--trials", "1"])
        assert code == 1 and report["results"]["defect"]["trials"] == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["independence", "--rule", "born", "--dim", "3", "--trials", "20"],
            ["falsify", "--rule", "renorm:power:4", "--dim", "3", "--trials", "20"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_runtime_failure_exits_four(self, capsys, monkeypatch, argv):
        # doubled moduli rows, as from an eigenbasis that is not unitary,
        # fail the scan's one orthant check: a crash, reported
        # as one line, never as a verdict
        real = invariance.observable_with_eigenstate
        monkeypatch.setattr(invariance, "observable_with_eigenstate", lambda *args: 2.0 * real(*args))
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("bornlab: runtime failure: NotNormalized: orthant norm defect")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["independence", "--rule", "born", "--dim", "3"], 0),
            (["verify-born", "--dims", "2,3,4", "--trials", "50"], 0),
            (["independence", "--rule", "renorm:power:4", "--dim", "3"], 1),
        ],
        ids=["born", "verify-born", "renorm"],
    )
    def test_zero_spread_tolerance_separates_born(self, capsys, argv, code):
        # both of born's spreads are exactly 0, so no spread tolerance is needed
        # to pass it, and a renormalized rule still leaks
        for seed in range(20):
            assert main(argv + ["--tol-spread", "0", "--seed", str(seed)]) == code, seed
            capsys.readouterr()

    def test_stationarity_gates_on_the_closed_form_residual(self, capsys, monkeypatch):
        argv = ["stationarity", "--dims", "2,4", "--trials", "20"]
        code, report = run_json(capsys, argv)
        results = report["results"]
        assert code == 0 and results["max_closed_form_residual"] <= results["residual_threshold"]
        # one residual per point, the shape closed_form_check returns
        monkeypatch.setattr(variational, "closed_form_check", lambda points, ks, scale, offset: np.ones(len(ks)))
        code, report = run_json(capsys, argv)
        assert code == 1 and report["pass"] is False
        assert report["results"]["max_closed_form_residual"] == 1.0

    def test_stationarity_csv_value_is_the_largest_gated_residual(self, capsys, monkeypatch):
        # each point's value is the max of its sum, outcome and closed-form
        # residuals, so a closed-form failure shows in the series; point i
        # is checked at outcome k = i % d
        argv = ["stationarity", "--dims", "3,4", "--trials", "259", "--format", "csv"]
        rows = lambda: [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert main(argv) == 0
        assert max(float(value) for _, _, _, value, _ in rows()) <= 1e-6
        monkeypatch.setattr(variational, "closed_form_check", lambda points, ks, scale, offset: 0.25 * ks)
        assert main(argv) == 1
        series = rows()
        assert [row[:3] + row[4:] for row in series] == [
            [str(i), str(d), str(i % d), "residual"] for d in (3, 4) for i in range(259)
        ]
        for _, _, k, value, _ in series:
            assert float(value) == 0.25 * int(k) if int(k) else float(value) <= 1e-6

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.001", "abc"])
    @pytest.mark.parametrize("flag", ["--tol-defect", "--tol-spread"])
    def test_bad_tolerance_is_usage_error(self, capsys, flag, value):
        # nan compares false against every defect, so it would turn a
        # falsified rule into a pass
        with pytest.raises(SystemExit) as excinfo:
            main(["falsify", "--rule", "power:1", "--dim", "2", "--trials", "10", f"{flag}={value}"])
        assert excinfo.value.code == 2
        assert "tolerance must be a finite number >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("rule", ["affine:nan:0", "affine:1:nan", "renorm:affine:nan:0", "affine:inf:0", "power:inf"])
    def test_non_finite_rule_parameter_is_usage_error(self, capsys, rule):
        # a nan parameter makes every defect nan, which no threshold rejects
        with pytest.raises(SystemExit) as excinfo:
            main(["falsify", "--rule", rule, "--dim", "3", "--trials", "10"])
        assert excinfo.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "rule, reason",
        [
            ("power:inf", "power rules need a finite positive exponent"),
            ("affine:nan:0", "affine rules need a finite scale and offset"),
        ],
    )
    def test_rejected_rule_name_gives_the_reason(self, capsys, rule, reason):
        with pytest.raises(SystemExit) as excinfo:
            main(["falsify", "--rule", rule, "--dim", "3", "--trials", "10"])
        assert excinfo.value.code == 2
        assert f"malformed rule name {rule!r}: {reason}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["recover", "--tol-spread", "0"],
            ["independence", "--tol-defect", "0"],
            ["sample", "--tol-defect", "0"],
        ],
    )
    def test_tolerance_a_command_does_not_read_is_rejected(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


class TestFalsification:
    def test_power_one_witness_near_symmetric_state(self, capsys):
        _, report = run_json(
            capsys, ["falsify", "--rule", "power:1", "--dim", "2", "--trials", "1000", "--seed", "7"]
        )
        defect = report["results"]["defect"]["max_defect"]
        assert defect >= 0.41
        witness = report["results"]["witness"]
        assert abs(witness[0] - 0.7071) < 0.02 and abs(witness[1] - 0.7071) < 0.02

    def test_the_mean_of_finite_defects_is_finite(self):
        # defects near 1e308 sum to inf; their mean is still finite, no warning
        # reaches stderr, and the report is strict JSON
        env = dict(os.environ, PYTHONPATH=str(Path(rules.__file__).resolve().parents[1]))  # the bornlab under test

        def falsify(*flags):
            argv = [sys.executable, "-W", "error", "-m", "bornlab.cli", "falsify", "--rule", "affine:1e308:0", "--dim", "3"]
            completed = subprocess.run([*argv, *flags], capture_output=True, text=True, env=env, timeout=300)
            assert (completed.returncode, completed.stderr) == (1, "")
            return completed.stdout

        def refuse(constant):
            raise ValueError(f"not JSON: {constant}")

        mean = json.loads(falsify(), parse_constant=refuse)["results"]["defect"]["mean_defect"]
        rows = csv.DictReader(io.StringIO(falsify("--format", "csv")))
        defects = [float(row["value"]) for row in rows if row["series"] == "defect"]
        assert len(defects) == 1000
        assert math.isfinite(mean) and min(defects) <= mean <= max(defects)

    def test_renormalized_rule_falsified_by_independence(self, capsys):
        code, report = run_json(
            capsys, ["falsify", "--rule", "renorm:power:4", "--dim", "3", "--trials", "100", "--seed", "5"]
        )
        assert code == 1
        results = report["results"]
        assert results["defect"]["max_defect"] == 0.0
        assert (
            results["observable_scan"]["spread"] > 1e-3
            or results["rotation_scan"]["spread"] > 1e-3
        )

    def test_renormalized_rule_must_give_certainty_on_an_eigenstate(self, capsys):
        # the uniform rule p_k = 1/d has no defect and no spread; only
        # certainty, p_k(e_k) = 1, separates it, by 1 - 1/d at every d
        falsify = ["falsify", "--trials", "20", "--rule"]
        for d in (2, 3, 5, 8):
            code, report = run_json(capsys, falsify + ["renorm:affine:0:1", "--dim", str(d)])
            results = report["results"]
            assert code == 1 and results["falsified"] is True and "inconclusive" not in results
            assert abs(results["certainty_defect"] - (1.0 - 1.0 / d)) <= 1e-15
            assert results["witness"] == [1.0] + [0.0] * (d - 1)
        assert run_json(capsys, falsify + ["renorm:affine:1:0.1", "--dim", "3"])[0] == 1
        # a power maps e_k to itself (1^p = 1, 0^p = 0): d=2 stays inconclusive
        for p in ("0.5", "1.234", "2.1", "4.0"):
            for d, expected in ((2, 3), (3, 1)):
                code, report = run_json(capsys, falsify + [f"renorm:power:{p}", "--dim", str(d)])
                assert code == expected and report["results"]["certainty_defect"] == 0.0

    def test_the_first_row_above_its_tolerance_gives_the_witness(self, capsys):
        # renorm:affine:1:0.1 misses certainty, p_k(e_k) = 1.1 / (1 + 0.1 d),
        # and its spreads are rounding-level, so both exceed a zero tolerance
        falsify = ["falsify", "--rule", "renorm:affine:1:0.1", "--seed", "0"]
        code, report = run_json(capsys, falsify + ["--dim", "3", "--tol-spread", "0"])
        results = report["results"]
        assert results["certainty_defect"] == pytest.approx(2 / 13) and results["observable_scan"]["spread"] > 0.0
        assert code == 1 and results["falsified"] is True and results["witness"] == [1.0, 0.0, 0.0]
        code, report = run_json(capsys, falsify + ["--dim", "3", "--tol-defect", "1", "--tol-spread", "0"])
        scan = report["results"]["observable_scan"]
        assert code == 1 and report["results"]["witness"] == [scan["min_p"], scan["max_p"]]
        # at d=2 both spreads are 0.0: with certainty passed, the rule is inconclusive
        code, report = run_json(capsys, falsify + ["--dim", "2", "--tol-defect", "1"])
        results = report["results"]
        assert code == 3 and results["falsified"] is None and results["witness"] is None
        assert results["observable_scan"]["spread"] == results["rotation_scan"]["spread"] == 0.0

    def test_a_falsifier_is_one_row(self, capsys, monkeypatch):
        # a fourth FALSIFIERS row runs after the others, reports its entries
        # and CSV rows, and decides the verdict only where no earlier row has
        calls, outcome = [], {"statistic": 0.5}

        def fourth(rule, d, trials, seed, *address):
            calls.append((rule.name, d, trials, seed, address))
            return outcome | {"address": [seed, *address]}, [(0, d, None, 0.5, "fourth")], outcome["statistic"], [d]

        monkeypatch.setattr(cli, "FALSIFIERS", cli.FALSIFIERS + ((fourth, (4,), "spread", lambda rule: True),))
        argv = ["falsify", "--rule", "born", "--dim", "3", "--trials", "20", "--seed", "2"]
        code, report = run_json(capsys, argv)
        results = report["results"]
        assert code == 1 and results["falsified"] is True and results["witness"] == [3]
        assert list(results)[-4:] == ["statistic", "address", "falsified", "witness"]
        assert results["address"] == [2, 4] and calls == [("born", 3, 20, 2, (4,))]
        assert run_json(capsys, argv + ["--tol-spread", "0.5"])[0] == 0
        main(argv + ["--format", "csv"])
        assert capsys.readouterr().out.splitlines()[-1] == "0,3,,0.5,fourth"
        # an earlier row's falsification wins, and any falsification overrides
        # an inconclusive reason: renorm:power:4 at d=2 is falsified here
        code, report = run_json(capsys, ["falsify", "--rule", "power:1", "--dim", "3", "--trials", "20"])
        assert code == 1 and report["results"]["witness"] == report["results"]["defect"]["argmax_state"]
        code, report = run_json(capsys, ["falsify", "--rule", "renorm:power:4", "--dim", "2", "--trials", "20"])
        assert code == 1 and "inconclusive" not in report["results"] and report["results"]["witness"] == [2]
        # a row's inconclusive reason leaves a rule that no row falsifies inconclusive
        outcome.update(statistic=0.0, inconclusive="the fourth row cannot separate this rule")
        code, report = run_json(capsys, argv)
        assert code == 3 and report["results"]["falsified"] is None and report["results"]["witness"] is None

    def test_independence_command_flags_renormalized_rules(self, capsys):
        code, report = run_json(
            capsys, ["independence", "--rule", "renorm:power:1", "--dim", "3"] + SMALL
        )
        assert code == 1
        assert report["results"]["max_spread"] > 1e-3

    def test_witness_replays_from_the_defect_address(self, capsys):
        # trial i of the defect scan is the i-th (2, d) pair drawn from substream(*address),
        # so i + 1 pairs from the address alone replay the witness: z / norm(z) of pair i
        for trials in (50, 259):
            argv = ["falsify", "--rule", "power:1", "--dim", "3", "--trials", str(trials), "--seed", "7"]
            _, report = run_json(capsys, argv)
            defect = report["results"]["defect"]
            assert defect["address"] == [7, 0]
            states = np.abs(pair_states(3, trials, substream(*defect["address"])))
            defects = [abs(float(np.sum(state)) - 1.0) for state in states]
            worst = int(np.argmax(defects))
            assert defects[worst] == defect["max_defect"]
            replay = pair_states(3, worst + 1, substream(*defect["address"]))[worst]
            assert report["results"]["witness"] == quantum.moduli(replay).moduli.tolist()

    def test_falsify_and_independence_run_one_independence_check(self, capsys):
        # both run it at address (1,), so a renormalized rule gets the same scans
        argv = ["--rule", "renorm:power:4", "--dim", "3", "--trials", "60", "--seed", "3"]
        falsify = run_json(capsys, ["falsify"] + argv)[1]["results"]
        independence = run_json(capsys, ["independence"] + argv)[1]["results"]
        for scan in ("observable_scan", "rotation_scan"):
            assert falsify[scan] == independence[scan]
        assert falsify["observable_scan"]["address"] == [3, 1, 2]
        assert falsify["rotation_scan"]["address"] == [3, 1, 3]

    def test_independence_points_are_quantum_moduli(self, monkeypatch):
        # both orthant points go through quantum.moduli, the traced layer, and keep its bits
        expected = cli._independence_check(rules.parse_rule("renorm:power:4"), 3, 10, 5, 1)[0]
        calls, real = [], quantum.moduli
        monkeypatch.setattr(quantum, "moduli", lambda amplitudes: calls.append(amplitudes.shape) or real(amplitudes))
        assert cli._independence_check(rules.parse_rule("renorm:power:4"), 3, 10, 5, 1)[0] == expected
        assert calls == [(3,), (3,)]

    @pytest.mark.parametrize("rule", ["power:4", "power:1", "affine:2:0"])
    @pytest.mark.parametrize("dim", ["3", "5"])
    def test_independence_with_a_plain_rule_is_inconclusive(self, capsys, rule, dim):
        # p_k = f(a_k) reads only the a_k both scans hold fixed, so the spreads
        # vanish for every plain rule; only falsify's defect scan separates it
        argv = ["--rule", rule, "--dim", dim, "--trials", "100", "--seed", "1"]
        code, report = run_json(capsys, ["independence"] + argv)
        results = report["results"]
        assert code == 3 and report["pass"] is False
        assert results["max_spread"] <= results["threshold"]
        assert "falsify" in results["inconclusive"]
        assert run_json(capsys, ["falsify"] + argv)[0] == 1
        code, report = run_json(capsys, ["independence", "--rule", "born", "--dim", dim, "--trials", "100"])
        assert code == 0 and "inconclusive" not in report["results"]

    def test_independence_judges_a_rule_by_its_formula(self, capsys):
        # power:2 is born's formula, so it passes as born does, with the same numbers
        argv = ["independence", "--dim", "3", "--seed", "1"]
        code, report = run_json(capsys, argv + ["--rule", "power:2"])
        born_code, born = run_json(capsys, argv + ["--rule", "born"])
        assert code == born_code == 0 and report["pass"] is True
        results, born_results = report["results"], born["results"]
        for scan in ("observable_scan", "rotation_scan"):
            assert results[scan].pop("rule") == "power:2.0" and born_results[scan].pop("rule") == "born"
        assert results == born_results


def json_lists(value):
    """Every list in a JSON value, nested ones included."""
    if isinstance(value, dict):
        for item in value.values():
            yield from json_lists(item)
    elif isinstance(value, list):
        yield value
        for item in value:
            yield from json_lists(item)


class TestScanSummaries:
    """JSON reports summarize each independence scan; CSV rows carry its draws."""

    @staticmethod
    def csv_series(capsys, argv) -> dict:
        """Each scan's per-draw values from the command's CSV rows, by their
        series column (falsify's defect rows are left out); both scans score outcome 0."""
        main(argv + ["--format", "csv"])
        series = {"observable_scan": [], "rotation_scan": []}
        for row in csv.DictReader(io.StringIO(capsys.readouterr().out)):
            if row["series"] in series:
                assert row["k"] == "0"
                series[row["series"]].append(float(row["value"]))
        return series

    @pytest.mark.parametrize(
        "argv",
        [
            ["independence", "--rule", "born", "--dim", "3"],
            ["independence", "--rule", "renorm:power:1", "--dim", "3", "--trials", "300"],
            ["falsify", "--rule", "renorm:power:4", "--dim", "3"],
        ],
        ids=["independence:born", "independence:renorm:power:1", "falsify:renorm:power:4"],
    )
    def test_json_summary_is_the_summary_of_the_csv_series(self, capsys, argv):
        argv = argv + ["--seed", "5"]
        _, report = run_json(capsys, argv)
        for name, values in self.csv_series(capsys, argv).items():
            scan = report["results"][name]
            min_p, max_p = min(values), max(values)
            assert scan["draws"] == len(values)
            assert (scan["min_p"].hex(), scan["argmin"]) == (min_p.hex(), values.index(min_p)), name
            assert (scan["max_p"].hex(), scan["argmax"]) == (max_p.hex(), values.index(max_p)), name
            assert scan["spread"] == scan["max_p"] - scan["min_p"], name

    @pytest.mark.parametrize(
        "argv",
        [
            ["independence", "--rule", "born", "--dim", "3"],
            ["independence", "--rule", "renorm:power:4", "--dim", "5", "--trials", "300"],
            ["falsify", "--rule", "renorm:power:1", "--dim", "3"],
        ],
        ids=["independence:born", "independence:renorm:power:4:d5", "falsify:renorm:power:1"],
    )
    def test_extreme_draws_replay_from_the_report(self, capsys, argv):
        # draw i is row i of the rows drawn in turn from substream(*address), so
        # i + 1 rows from the address alone replay it; the check draws the rotation
        # and observable scans' states at streams 0 and 1 of the scans' common
        # address, and phi is e_0
        _, report = run_json(capsys, argv + ["--seed", "8"])
        results = report["results"]
        d = report["config"]["dim"]
        rule = rules.parse_rule(results["observable_scan"]["rule"])
        check = results["observable_scan"]["address"][:-1]
        rot_point, obs_point = (quantum.moduli(quantum.haar_state(d, substream(*check, i)).amplitudes) for i in (0, 1))
        points = {
            "observable_scan": lambda n, rng: invariance.observable_with_eigenstate(obs_point, n, rng),
            "rotation_scan": lambda n, rng: invariance.complement_rotation(rot_point, n, rng),
        }
        beyond_draw_0 = False
        for name, scan_points in points.items():
            scan = results[name]
            assert scan["address"] == check + [2 if name == "observable_scan" else 3]
            for index, value in ((scan["argmin"], scan["min_p"]), (scan["argmax"], scan["max_p"])):
                p = rules.rule_probabilities(rule, scan_points(index + 1, substream(*scan["address"])))[index, 0]
                assert float(p).hex() == value.hex(), (name, index)
                beyond_draw_0 |= index > 0
        assert beyond_draw_0 or rule == rules.Born()  # born's p is one number, first at draw 0

    @pytest.mark.parametrize("d", [3, 5, 8])
    def test_observable_scan_point_has_the_overlap_law(self, d):
        # phi = e_0 stands for any fixed eigenvector, since psi is Haar: the observable scan's
        # a_0^2, which every born draw gives as p, has the law of |<phi|psi>|^2 for a fixed unit
        # phi, Beta(1, d - 1), with mean 1/d and variance (d-1)/(d^2 (d+1)); and the rotation
        # scan's state is another draw, so their a_0^2 are uncorrelated.  Bounds: 4 standard errors
        n = 2000
        checks = [cli._independence_check(rules.Born(), d, 2, seed, 1)[0] for seed in range(n)]
        x, y = (np.array([check[name]["min_p"] for check in checks]) for name in ("observable_scan", "rotation_scan"))
        mean, var = 1 / d, (d - 1) / (d * d * (d + 1))
        assert abs(x.mean() - mean) <= 4 * np.sqrt(var / n)
        assert abs(x.var() - var) <= 4 * np.sqrt((np.mean((x - x.mean()) ** 4) - x.var() ** 2) / n)
        assert abs(np.corrcoef(x, y)[0, 1]) <= 4 / np.sqrt(n)

    def test_verdict_reads_the_larger_spread_and_its_extremes(self, capsys):
        argv = ["--rule", "renorm:power:4", "--dim", "3", "--trials", "300", "--seed", "5"]
        code, report = run_json(capsys, ["falsify"] + argv)
        results = report["results"]
        # max keeps the first on a tie: the observable scan's
        worst = max(results["observable_scan"], results["rotation_scan"], key=lambda scan: scan["spread"])
        assert code == 1 and results["witness"] == [worst["min_p"], worst["max_p"]]
        assert run_json(capsys, ["independence"] + argv)[1]["results"]["max_spread"] == worst["spread"]

    @pytest.mark.parametrize(
        "argv",
        [
            [command, "--rule", rule, "--dim", dim]
            for command, rule, dims in (
                ("independence", "born", ("3", "8")),
                ("independence", "renorm:power:4", ("2", "3", "8")),
                ("falsify", "renorm:power:4", ("2", "3", "8")),
                ("falsify", "renorm:affine:0:1", ("3",)),
            )
            for dim in dims
        ],
        ids=lambda argv: ":".join(argv[::2]),
    )
    def test_no_per_draw_list_in_json(self, capsys, argv):
        _, report = run_json(capsys, argv + ["--trials", "600", "--seed", "2"])
        d = report["config"]["dim"]
        assert max(map(len, json_lists(report["results"]))) <= max(d, 4)


class TestSchema:
    @pytest.mark.parametrize(
        "argv",
        [
            ["spin1"] + SMALL,
            ["recover", "--dims", "2,3", "--trials", "120", "--seed", "1"],
            ["independence", "--rule", "born", "--dim", "3", "--trials", "20", "--seed", "1"],
        ],
    )
    def test_top_level_keys_are_exact(self, capsys, argv):
        main(argv)
        text = capsys.readouterr().out
        assert text.count("\n") == 1 and text.endswith("}\n")  # one line and its newline
        report = json.loads(text)
        assert list(report.keys()) == [
            "schema_version",
            "command",
            "config",
            "results",
            "pass",
            "runtime_ms",
        ]
        assert report["schema_version"] == "1"

    @staticmethod
    def rederive(command: str, results: dict) -> bool:
        """A command's pass flag from its results entries and thresholds alone."""
        spread = lambda scan: scan["max_p"] - scan["min_p"]
        if command == "verify-born":
            return all(
                entry["defect"]["max_defect"] <= results["thresholds"]["defect"]
                and entry["independence_max_spread"] <= results["thresholds"]["spread"]
                for entry in results["per_dim"]
            )
        if command == "falsify":
            scans = [results[name] for name in ("observable_scan", "rotation_scan") if name in results]
            return (
                "inconclusive" not in results
                and results["defect"]["max_defect"] <= results["thresholds"]["defect"]
                and results.get("certainty_defect", 0.0) <= results["thresholds"]["defect"]
                and all(spread(scan) <= results["thresholds"]["spread"] for scan in scans)
            )
        if command == "independence":
            scans = (results["observable_scan"], results["rotation_scan"])
            return "inconclusive" not in results and all(spread(scan) <= results["threshold"] for scan in scans)
        if command == "recover":
            coefficients = results["recovery"]["coefficients"]
            error = max(abs(c - t) for c, t in zip(coefficients, results["target"]))
            return error <= results["coefficient_threshold"]
        if command == "stationarity":
            residuals = ("max_sum_residual", "max_outcome_residual", "max_closed_form_residual")
            return max(results[name] for name in residuals) <= results["residual_threshold"]
        if command == "spin1":
            return results["max_probability_delta"] <= results["threshold"]
        if command == "sample":
            pairs = results["pairs"]
            checked = "inconclusive" not in results
            return checked and all(pair["p_value"] >= results["p_value_threshold"] and pair["repeat_consistent"] for pair in pairs)
        raise AssertionError(f"no rederivation for {command}")

    @pytest.mark.parametrize(
        "argv, passed",
        [
            (["verify-born", "--dims", "2,3", "--trials", "200"], True),
            (["falsify", "--rule", "born", "--dim", "3", "--trials", "200"], True),
            (["falsify", "--rule", "power:1", "--dim", "2", "--trials", "200"], False),
            (["falsify", "--rule", "renorm:power:4", "--dim", "3", "--trials", "50"], False),
            (["falsify", "--rule", "renorm:power:4", "--dim", "2", "--trials", "50"], False),
            (["falsify", "--rule", "renorm:affine:0:1", "--dim", "3", "--trials", "50"], False),
            (["independence", "--rule", "born", "--dim", "3", "--trials", "50"], True),
            (["independence", "--rule", "renorm:power:4", "--dim", "2", "--trials", "50"], False),
            (["recover", "--dims", "2,3", "--trials", "120"], True),
            (["stationarity", "--dims", "3", "--trials", "50"], True),
            (["spin1", "--trials", "50"], True),
            (["sample", "--dim", "3", "--shots", "2000", "--trials", "2"], True),
            (["sample", "--dim", "3", "--shots", "9", "--trials", "2"], False),
        ],
        ids=["verify-born", "falsify:born", "falsify:power:1", "falsify:renorm:d3", "falsify:renorm:d2",
             "falsify:renorm-uniform", "independence:born", "independence:renorm:d2", "recover", "stationarity",
             "spin1", "sample", "sample:inconclusive"],
    )
    def test_pass_rederivable_from_results(self, capsys, argv, passed):
        _, report = run_json(capsys, argv + ["--seed", "42"])
        assert report["pass"] is passed
        assert self.rederive(argv[0], report["results"]) is passed

    @pytest.mark.parametrize(
        "argv, config",
        [
            (
                ["verify-born", "--dims", "2", "--trials", "5"],
                [("command", "verify-born"), ("seed", 4), ("dims", [2]), ("trials", 5),
                 ("tol_defect", 1e-12), ("tol_spread", 1e-12), ("format", "json")],
            ),
            (
                ["falsify", "--rule", "power:3", "--dim", "2", "--trials", "5"],
                [("command", "falsify"), ("seed", 4), ("dim", 2), ("trials", 5), ("rule", "power:3.0"),
                 ("tol_defect", 1e-12), ("tol_spread", 1e-12), ("format", "json")],
            ),
            (
                ["independence", "--dim", "3", "--trials", "5"],
                [("command", "independence"), ("seed", 4), ("dim", 3), ("trials", 5), ("rule", "born"),
                 ("tol_spread", 1e-12), ("format", "json")],
            ),
            (
                ["recover", "--dims", "2,3", "--trials", "40"],
                [("command", "recover"), ("seed", 4), ("dims", [2, 3]), ("trials", 40), ("format", "json")],
            ),
            (
                ["stationarity", "--dims", "3", "--trials", "5"],
                [("command", "stationarity"), ("seed", 4), ("dims", [3]), ("trials", 5), ("format", "json")],
            ),
            (
                ["spin1", "--trials", "5"],
                [("command", "spin1"), ("seed", 4), ("trials", 5), ("tol_spread", 1e-12), ("format", "json")],
            ),
            (
                ["sample", "--dim", "2", "--shots", "100", "--trials", "2"],
                [("command", "sample"), ("seed", 4), ("dim", 2), ("trials", 2), ("shots", 100),
                 ("format", "json")],
            ),
        ],
        ids=lambda v: v[0] if isinstance(v[0], str) else None,
    )
    def test_config_echo_is_exact(self, capsys, argv, config):
        _, report = run_json(capsys, argv + ["--seed", "4"])
        assert list(report["config"].items()) == config

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_every_flag_is_echoed_and_read(self, command):
        # a flag that a command registers but never reads would change
        # neither its config echo nor its results
        def outcome(argv):
            args = build_parser().parse_args(argv)
            results, _, series = args.func(args)
            return json.loads(json.dumps(run_config(args))), json.dumps(results), list(series)

        flags = _echoed_flags(command)
        base = [command] + [x for flag in flags for x in (flag, FLAG_VALUES[flag][0])]
        _, base_results, base_series = outcome(base)
        for flag in flags:
            _, other, echo = FLAG_VALUES[flag]
            i = base.index(flag) + 1
            config, results, series = outcome(base[:i] + [other] + base[i + 1 :])
            assert config[flag[2:].replace("-", "_")] == echo
            assert (results, series) != (base_results, base_series), f"{flag} changes nothing"

    def test_config_echo_ends_with_out(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        main(["spin1", "--trials", "5", "--seed", "4", "--out", str(path)])
        config = json.loads(path.read_text())["config"]
        assert list(config.items())[-2:] == [("format", "json"), ("out", str(path))]

    def test_seed_recorded_in_config(self, capsys):
        _, report = run_json(capsys, ["spin1"] + SMALL)
        assert report["config"]["seed"] == 42

    def test_csv_format(self, capsys):
        code = main(["spin1", "--trials", "10", "--seed", "0", "--format", "csv"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert lines[0] == "index,d,k,value,series"
        assert len(lines) == 11
        index, d, k, value, series = lines[1].split(",")
        assert (index, d, k, series) == ("0", "3", "1", "probability_delta")
        float(value)

    def test_out_writes_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code = main(["spin1", "--trials", "10", "--seed", "0", "--out", str(path)])
        assert code == 0
        assert capsys.readouterr().out == ""
        report = json.loads(path.read_text())
        assert report["command"] == "spin1"


def test_readme_examples_parse():
    # every example line of the README's command-line block names a real
    # command and real flags; nothing is run
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command-line interface", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0] for line in block.splitlines() if line.startswith("bornlab ")]
    commands = {build_parser().parse_args(shlex.split(line)[1:]).command for line in lines}
    assert commands == set(SUBCOMMANDS)


class TestParserCache:
    COMMANDS = [
        ["falsify", "--rule", "power:3", "--dim", "3", "--trials", "50"],
        ["independence", "--dim", "3", "--trials", "20"],  # the default rule, born
        ["sample", "--dim", "3", "--shots", "500", "--trials", "2"],
    ]

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_cached_parser_leaks_no_state_between_calls(self, capsys):
        fresh = []
        for argv in self.COMMANDS:
            build_parser.cache_clear()
            report = run_json(capsys, argv)[1]
            fresh.append((report["config"], report["results"]))
        build_parser.cache_clear()
        for _ in range(2):  # one parser for every call below
            for argv, expected in zip(self.COMMANDS, fresh):
                with pytest.raises(SystemExit) as excinfo:
                    main(["falsify", "--rule", "power:3", "--trials", "0"])
                assert excinfo.value.code == 2
                capsys.readouterr()
                report = run_json(capsys, argv)[1]
                assert (report["config"], report["results"]) == expected

    def test_dispatch_reads_the_current_command_function(self, capsys, monkeypatch):
        run_json(capsys, ["spin1", "--trials", "5"])  # builds the parser
        real, calls = cli.cmd_spin1, []
        monkeypatch.setattr(cli, "cmd_spin1", lambda args: calls.append(args.trials) or real(args))
        code, _ = run_json(capsys, ["spin1", "--trials", "6"])
        assert code == 0 and calls == [6]

    def test_every_command_has_one_function(self):
        # _dispatch runs cmd_<name> for each COMMANDS entry, and no cmd_* function lacks one
        functions = {name[4:].replace("_", "-") for name in vars(cli) if name.startswith("cmd_")}
        assert functions == set(cli.COMMANDS) == set(SUBCOMMANDS)


class TestDeterminism:
    COMMANDS = [
        ["verify-born", "--dims", "2,3", "--trials", "150"],
        ["falsify", "--rule", "power:3", "--dim", "2", "--trials", "150"],
        ["falsify", "--rule", "renorm:power:1", "--dim", "3", "--trials", "60"],
        ["independence", "--rule", "renorm:power:4", "--dim", "3", "--trials", "60"],
        ["recover", "--dims", "2,3", "--trials", "120"],
        ["stationarity", "--dims", "3", "--trials", "60"],
        ["spin1", "--trials", "100"],
        ["sample", "--dim", "3", "--shots", "20000", "--trials", "3"],
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0] + ":" + a[2])
    def test_rerun_is_byte_identical(self, capsys, argv):
        _, first = run_json(capsys, argv + ["--seed", "11"])
        _, second = run_json(capsys, argv + ["--seed", "11"])
        assert json.dumps(first["results"]) == json.dumps(second["results"])
        assert first["pass"] == second["pass"]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0] + ":" + a[2])
    def test_thread_count_does_not_change_results(self, capsys, argv):
        _, single = run_json(capsys, argv + ["--seed", "11", "--threads", "1"])
        _, pooled = run_json(capsys, argv + ["--seed", "11", "--threads", "8"])
        assert json.dumps(single["results"]) == json.dumps(pooled["results"])

    def test_different_seeds_differ(self, capsys):
        _, a = run_json(capsys, ["falsify", "--rule", "power:1", "--dim", "2", "--trials", "50", "--seed", "1"])
        _, b = run_json(capsys, ["falsify", "--rule", "power:1", "--dim", "2", "--trials", "50", "--seed", "2"])
        assert json.dumps(a["results"]) != json.dumps(b["results"])

    def test_csv_rerun_is_byte_identical(self, capsys):
        argv = ["independence", "--rule", "renorm:power:1", "--dim", "4", "--trials", "40", "--seed", "3", "--format", "csv"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second


@pytest.mark.parametrize(
    "argv, code",
    [
        (["verify-born", "--dims", "2,8", "--trials", "300"], 0),
        (["falsify", "--rule", "renorm:power:4", "--dim", "3", "--trials", "300"], 1),
        (["independence", "--dim", "8", "--trials", "1000"], 0),
    ],
    ids=["verify-born", "falsify", "independence"],
)
def test_no_command_starts_a_thread(capsys, monkeypatch, argv, code):
    def refuse(self):
        raise RuntimeError("a command started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    payloads = []
    for threads in ("1", "8"):
        assert main(argv + ["--threads", threads]) == code
        payloads.append(json.dumps(json.loads(capsys.readouterr().out)["results"]))
    assert payloads[1] == payloads[0]


def test_observable_scan_factors_no_unitary(capsys, monkeypatch):
    # the observable scan draws moduli from Ginibre rows and forms no basis:
    # no Haar unitary and no np.linalg.qr, whatever its number of draws
    def refuse(*args):
        raise RuntimeError("a unitary was factored")

    for module in (linalg, quantum, invariance):
        for name in ("haar_factor", "haar_array"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    real_qr, calls = np.linalg.qr, []
    monkeypatch.setattr(np.linalg, "qr", lambda *args, **kwargs: calls.append(args) or real_qr(*args, **kwargs))
    for trials in ("300", "3000"):
        assert main(["independence", "--rule", "renorm:power:4", "--dim", "5", "--trials", trials]) == 1
    assert main(["falsify", "--rule", "renorm:power:1", "--dim", "3"]) == 1
    assert calls == []
    capsys.readouterr()


class TestBlocks:
    POINTS = 259  # per dimension
    COMMANDS = {  # each dimension's points are one scan, at its own address
        "stationarity": (["stationarity", "--dims", "2,3"], [(7, 0), (7, 1)]),
        "spin1": (["spin1"], [(7,)]),
    }

    def csv_rows(self, capsys, argv, points):
        assert main(argv + ["--trials", str(points), "--seed", "7", "--format", "csv"]) == 0
        return capsys.readouterr().out.splitlines()[1:]

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_a_scan_draws_from_its_own_address(self, capsys, monkeypatch, command):
        argv, addresses = self.COMMANDS[command]
        seen = []

        def recording(seed, *indices):
            seen.append((seed, *indices))
            return substream(seed, *indices)

        monkeypatch.setattr(quantum, "substream", recording)
        self.csv_rows(capsys, argv, self.POINTS)
        assert seen == addresses

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_first_k_points_are_a_k_point_run(self, capsys, command):
        # the first k points of each dimension's scan are those of a k-point run, for every k;
        # the series lists each dimension's points in turn
        argv, addresses = self.COMMANDS[command]
        n = self.POINTS
        long_csv = self.csv_rows(capsys, argv, n)
        for k in range(1, n + 1):
            prefixes = [row for di in range(len(addresses)) for row in long_csv[di * n : di * n + k]]
            assert self.csv_rows(capsys, argv, k) == prefixes, k


def csv_reference(series) -> str:
    """The CSV text of a series as the csv module writes it."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["index", "d", "k", "value", "series"])
    for index, d, k, value, name in series:
        writer.writerow([index, d, "" if k is None else k, repr(float(value)), name])
    return buffer.getvalue()


class TestCsvRows:
    def test_rows_equal_the_csv_module(self):
        values = [3, np.float64(0.1), np.nan, np.inf, -np.inf, -0.0, 1e-300, np.float64(-2.5e-17), 0.0]
        series = [
            (i, d, k, value, "delta") for i, value in enumerate(values) for d in (None, 2) for k in (None, 0, 11)
        ]
        text = Report({"command": "spin1"}, {}, True, series, 0.0).to_csv()
        assert text == csv_reference(series)
        assert text.splitlines()[1:4] == ["0,,,3.0,delta", "0,,0,3.0,delta", "0,,11,3.0,delta"]
        assert Report({"command": "spin1"}, {}, True, [], 0.0).to_csv() == "index,d,k,value,series\n"

    COMMANDS = [
        ["verify-born", "--dims", "2,3", "--trials", "20"],
        ["falsify", "--rule", "renorm:power:4", "--dim", "3", "--trials", "20"],
        ["independence", "--rule", "renorm:power:1", "--dim", "3", "--trials", "20"],
        ["recover", "--dims", "2,3", "--trials", "40"],
        ["stationarity", "--dims", "2,3", "--trials", "30"],
        ["spin1", "--trials", "30"],
        ["sample", "--dim", "3", "--shots", "200", "--trials", "3"],
    ]

    SERIES = {
        "verify-born": ["defect"],
        "falsify": ["defect", "observable_scan", "rotation_scan"],
        "independence": ["observable_scan", "rotation_scan"],
        "recover": ["coefficients"],
        "stationarity": ["residual"],
        "spin1": ["probability_delta"],
        "sample": ["frequencies"],
    }

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_rows_name_their_series(self, argv):
        # each series is one run of rows, named by its JSON key where it has one
        args = build_parser().parse_args(argv + ["--seed", "4"])
        _, _, series = args.func(args)
        assert [name for name, _ in itertools.groupby(row[4] for row in series)] == self.SERIES[argv[0]]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_commands_write_what_the_csv_module_writes(self, capsys, argv):
        argv = argv + ["--seed", "4", "--format", "csv"]
        args = build_parser().parse_args(argv)
        _, _, series = args.func(args)
        main(argv)
        assert capsys.readouterr().out == csv_reference(series)

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_json_run_builds_no_row(self, capsys, monkeypatch, argv):
        # a JSON run hands Report its series as a generator that was never
        # started, so no CSV row is built; read later, it holds every row
        # that the CSV run writes
        real, seen = cli.Report, []
        monkeypatch.setattr(cli, "Report", lambda *fields: seen.append(fields[3]) or real(*fields))
        main(argv + ["--seed", "4"])
        assert json.loads(capsys.readouterr().out)["command"] == argv[0]
        assert inspect.getgeneratorstate(seen[0]) == inspect.GEN_CREATED
        main(argv + ["--seed", "4", "--format", "csv"])
        assert capsys.readouterr().out == csv_reference(seen[0])

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_commands_return_python_values(self, argv):
        # rows and results leave numpy once, as .tolist() values: no numpy
        # scalar reaches the CSV or JSON writers
        def plain(value):
            if isinstance(value, dict):
                return all(type(key) is str and plain(item) for key, item in value.items())
            if isinstance(value, (list, tuple)):
                return all(plain(item) for item in value)
            return value is None or type(value) in (bool, int, float, str)

        args = build_parser().parse_args(argv + ["--seed", "4"])
        results, passed, series = args.func(args)
        assert type(passed) is bool and plain(results)
        assert all(
            type(index) is int and plain([d, k]) and type(value) is float and type(name) is str
            for index, d, k, value, name in series
        )


def _criterion_10_commands() -> list[list[str]]:
    """The first rows of scripts/result_hashes.py's table."""
    spec = importlib.util.spec_from_file_location("result_hashes", Path(__file__).resolve().parents[1] / "scripts" / "result_hashes.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script.CRITERION_10_COMMANDS


class TestRouting:
    """main hands a command line that starts with a command name to that command's parser alone."""

    @pytest.mark.parametrize("argv", _criterion_10_commands() + TestCsvRows.COMMANDS, ids=lambda argv: argv[0])
    def test_routed_namespace_is_the_top_level_one(self, argv):
        for words in (argv, argv + ["--seed", "7", "--format", "csv", "--threads", "2"]):
            assert vars(cli.parse(words)) == vars(build_parser().parse_args(words))

    @pytest.mark.parametrize("argv", [[], ["--help"], ["bogus"], ["--", "spin1"], ["--bogus"]],
                             ids=["empty", "help", "unknown", "dashes", "option"])
    def test_other_command_lines_get_the_top_level_text(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        expected = excinfo.value.code, capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert (excinfo.value.code, capsys.readouterr()) == expected
        code, captured = expected
        assert code == (0 if argv == ["--help"] else 2)
        assert (captured.out if code == 0 else captured.err).startswith("usage: bornlab [-h]")
        if argv == []:
            assert captured.err.endswith("bornlab: error: the following arguments are required: command\n")
        if argv == ["bogus"]:
            assert "bornlab: error: argument command: invalid choice: 'bogus'" in captured.err


def pair_states(d, n, rng):
    """n Haar states (n, d) from rng's next n (2, d) pairs, drawn one pair at a
    time, each row z / norm(z) of its own pair."""
    rows = []
    for _ in range(n):
        real, imag = rng.standard_normal((2, d))
        z = real + 1j * imag
        rows.append(z / np.linalg.norm(z))
    return np.array(rows)


class TestStackedEqualsPerBlock:
    """Commands draw each scan's rows from its one stream and compute once on
    the stacked rows; states drawn and normalized one pair at a time give the
    same bits."""

    SEED = 9

    def csv_values(self, capsys, argv):
        main(argv + ["--seed", str(self.SEED), "--format", "csv"])
        return [line.split(",")[3] for line in capsys.readouterr().out.splitlines()[1:]]

    @pytest.mark.parametrize("trials", [127, 128, 259])
    def test_stationarity(self, capsys, trials):
        born = rules.Born()
        probabilities = functools.partial(rules.rule_probabilities, born)
        values, worst = [], np.zeros(3)
        for di, d in enumerate((2, 3, 5)):
            rows = np.abs(pair_states(d, trials, substream(self.SEED, di)))
            ks = np.arange(trials) % d
            residuals = np.column_stack([
                np.max(np.abs(variational.rule_stationarity(born, rows, 1.0)), axis=-1),
                np.max(np.abs(variational.outcome_stationarity(probabilities, rows, ks, 0.0)), axis=-1),
                variational.closed_form_check(rows, ks, 2.0, -1.0),
            ])
            values += [repr(float(x)) for x in np.max(residuals, axis=1)]
            worst = np.maximum(worst, np.max(residuals, axis=0))
        argv = ["stationarity", "--dims", "2,3,5", "--trials", str(trials)]
        assert self.csv_values(capsys, argv) == values
        _, report = run_json(capsys, argv + ["--seed", str(self.SEED)])
        names = ("max_sum_residual", "max_outcome_residual", "max_closed_form_residual")
        assert [report["results"][name] for name in names] == [float(x) for x in worst]

    def test_stationarity_row_chunks(self, capsys, monkeypatch):
        # a budget of 7 rows at d=8 (112 at d=2, 49 at d=3) splits every
        # dimension's finite differences into many chunks, and no bit of the
        # report moves
        argv = ["stationarity", "--dims", "2,3,8", "--trials", "259"]

        def outputs():
            code, report = run_json(capsys, argv + ["--seed", str(self.SEED)])
            return code, report["results"], report["pass"], self.csv_values(capsys, argv)

        whole = outputs()
        monkeypatch.setattr(variational, "CHUNK_CELLS", 7 * 8**2)
        assert outputs() == whole

    @pytest.mark.parametrize("d", [2, 8, 32, 64])
    def test_stationarity_chunks_stay_within_the_cell_budget(self, d):
        # every finite-difference evaluation holds at most CHUNK_CELLS
        # (row, j, outcome) cells, and at d=8 a chunk is 4,096 rows
        shapes = []

        def probabilities(values):
            shapes.append(values.shape)
            return rules.rule_probabilities(rules.Born(), values)

        rows = np.abs(quantum.haar_scan(d, 300, self.SEED))
        ks = np.arange(300) % d
        variational.outcome_stationarity(probabilities, rows, ks, 0.0)
        assert shapes and all(math.prod(shape) <= variational.CHUNK_CELLS for shape in shapes)
        assert sum(shape[0] for shape in shapes) == 2 * 300  # each row is shifted up and down once
        assert variational.CHUNK_CELLS // 8**2 == 4096

    @pytest.mark.parametrize("trials", [127, 128, 259])
    def test_recover(self, trials):
        states = [pair_states(d, trials, substream(self.SEED, di)) for di, d in enumerate((2, 3, 6))]
        rows = np.concatenate([variational.power_sums(np.abs(dim_states)) for dim_states in states])
        coefficients, objective = variational.fit_power_series(rows)
        assert variational.MIN_SAMPLES <= trials
        got, got_objective, count = variational.recover_rule((2, 3, 6), trials, self.SEED)
        np.testing.assert_array_equal(got, coefficients)
        assert got_objective == objective and count == 3 * trials

    @pytest.mark.parametrize("trials", [127, 128, 259])
    def test_spin1(self, capsys, trials):
        _, _, (jz, jxy) = quantum.spin1_observables()
        pair = np.column_stack([jz[:, 1], jxy[:, 1]])  # both share |m=0> as eigenvector 1
        p = np.abs(pair_states(3, trials, substream(self.SEED)) @ np.conj(pair)) ** 2
        values = [repr(float(x)) for x in np.abs(p[:, 0] - p[:, 1])]
        assert self.csv_values(capsys, ["spin1", "--trials", str(trials)]) == values

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 16])
    def test_sample(self, capsys, d):
        # reference: pair i alone, each part the next draw of its stream, its
        # eigenbasis the Haar unitary of one Ginibre draw (a stack factors each
        # member with its own bits), its state expanded as one row of the
        # stacked product
        shots, trials = 300, 6
        argv = ["sample", "--dim", str(d), "--shots", str(shots), "--trials", str(trials), "--seed", str(self.SEED)]
        _, report = run_json(capsys, argv)
        threshold = report["results"]["p_value_threshold"]
        assert threshold == TOL.sample_p_value(trials)
        repeats = []
        # part t of every pair, pair by pair, from substream(SEED, t)
        states, bases, shot_rng, first_rng, repeat_rng = (substream(self.SEED, t) for t in range(5))
        for pair in report["results"]["pairs"]:
            psi = quantum.haar_state(d, states)
            vectors = haar_array(d, bases)
            p = np.abs(np.vecdot(vectors, psi.amplitudes[:, None], axis=0)) ** 2  # |c|^2, bit for bit the Born scoring
            counts = quantum.sample_outcomes(p[None], shots, shot_rng)[0]
            statistic, dof, p_value = quantum.chi_square_test(counts, shots * p)
            assert pair["born"] == [float(x) for x in p]
            assert pair["frequencies"] == [float(x) for x in counts / shots]
            assert (pair["chi_square"], pair["dof"], pair["p_value"]) == (statistic, dof, p_value)
            assert pair["within_3_sigma"] == (p_value >= threshold)
            k, collapsed = quantum.measure(p, vectors, first_rng)
            assert pair["first_outcome"] == k
            # the collapsed column, scored alone, and its 100 re-measurements
            post = np.abs(np.vecdot(vectors, collapsed.amplitudes[:, None], axis=0)) ** 2
            repeats.append(bool(quantum.sample_outcomes(post[None], 100, repeat_rng)[0, k] == 100))
            assert pair["repeat_consistent"] == repeats[-1]
        assert report["results"]["all_repeat_consistent"] == all(repeats)

    def test_sample_draws_part_t_of_every_pair_from_stream_t(self, capsys, monkeypatch):
        # the command takes substream(seed, t) for t = 0..4 and nothing else, and each stream
        # draws its part pair by pair, so the first pairs of a run are those of a shorter run
        addresses = []
        monkeypatch.setattr(cli, "substream", lambda *address: addresses.append(address) or substream(*address))
        argv = ["sample", "--dim", "4", "--shots", "500", "--seed", str(self.SEED)]
        longer = run_json(capsys, argv + ["--trials", "9"])[1]["results"]["pairs"]
        assert addresses == [(self.SEED, t) for t in range(5)]
        shorter = run_json(capsys, argv + ["--trials", "4"])[1]["results"]["pairs"]
        drop = lambda pair: {key: value for key, value in pair.items() if key != "within_3_sigma"}  # its level reads the pair count
        assert [drop(pair) for pair in longer[:4]] == [drop(pair) for pair in shorter]

    def test_sample_checks_one_stack(self, capsys, monkeypatch):
        # the eigenbases are checked for unitarity once, as one stack; no
        # spectrum is drawn, so no eigensystem is checked
        checked, eigensystems = [], []
        defect = linalg.unitary_defect
        monkeypatch.setattr(linalg, "unitary_defect", lambda m: checked.append(m.shape) or defect(m))
        monkeypatch.setattr(quantum, "check_eigensystems", lambda *args: eigensystems.append(args))
        assert main(["sample", "--dim", "4", "--shots", "100", "--trials", "7"]) in (0, 1)
        assert checked == [(7, 4, 4)] and eigensystems == []
