"""End-to-end command-line behavior: exit codes, schema, determinism."""

import argparse
import csv
import functools
import io
import json
import os
import shlex
import threading
from pathlib import Path

import pytest

import numpy as np

from bornlab import cli, invariance, quantum, rules, streams, variational
from bornlab.cli import Report, build_parser, main, run_config
from bornlab.linalg import fix_column_phases, haar_array
from bornlab.streams import BLOCK, blockwise, substream

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
            # a^2 - 1 <= 0 at every modulus, so no renormalization exists
            (["falsify", "--rule", "renorm:affine:1:-1"], "renormalization sum is not positive"),
            # 1e308 * (a^2 + 1) overflows once a^2 > 0.8
            (["falsify", "--rule", "affine:1e308:1e308"], "the normalization sum of affine:1e+308:1e+308 is not finite"),
            (["falsify", "--rule", "renorm:affine:1e308:1e308"], "renormalization sum is not finite"),
            (["independence", "--rule", "renorm:affine:1e308:1e308"], "renormalization sum is not finite"),
        ],
        ids=["renorm:affine:1:-1", "affine-overflow", "renorm:affine-overflow", "independence:renorm:affine-overflow"],
    )
    def test_domain_error_is_usage_error(self, capsys, argv, reason):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--dim", "3", "--trials", "10"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert reason in captured.err
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

    def test_large_dim_sample_finishes(self, capsys):
        # a fixed 1e-3 spectral gap is all but impossible to draw at d=200
        code, report = run_json(capsys, ["sample", "--dim", "200", "--shots", "1000", "--trials", "1"])
        results = report["results"]
        assert sum(results["pairs"][0]["frequencies"]) == pytest.approx(1.0)
        assert results["all_repeat_consistent"] is True
        # per-cell 3-sigma bands over 200 cells of 1000 shots often fail a
        # correct sampler (the known false alarm), so either verdict may come
        assert code == (0 if results["all_within_3_sigma"] else 1)

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
        # observables that do not share phi fail the scan's overlap check: a
        # crash, reported as one line, never as a verdict
        def unrelated(basis, n, rng):
            z = rng.standard_normal((n, 3, 3)) + 1j * rng.standard_normal((n, 3, 3))
            return z + np.conj(np.swapaxes(z, -1, -2))

        monkeypatch.setattr(invariance, "observable_with_eigenstate", unrelated)
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("bornlab: runtime failure: ValueError: no eigenvector matches")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    def test_stationarity_gates_on_the_closed_form_residual(self, capsys, monkeypatch):
        argv = ["stationarity", "--dims", "2,4", "--trials", "20"]
        code, report = run_json(capsys, argv)
        results = report["results"]
        assert code == 0 and results["max_closed_form_residual"] <= results["residual_threshold"]
        monkeypatch.setattr(variational, "closed_form_check", lambda point, k, scale, offset: 1.0)
        code, report = run_json(capsys, argv)
        assert code == 1 and report["pass"] is False
        assert report["results"]["max_closed_form_residual"] == 1.0

    def test_stationarity_csv_value_is_the_largest_gated_residual(self, capsys, monkeypatch):
        # each point's value is the max of its sum, outcome and closed-form
        # residuals, so a closed-form failure shows in the series; point i
        # is checked at outcome k = i % d in every block
        argv = ["stationarity", "--dims", "3,4", "--trials", str(2 * BLOCK + 3), "--format", "csv"]
        rows = lambda: [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert main(argv) == 0
        assert max(float(value) for *_, value in rows()) <= 1e-6
        monkeypatch.setattr(variational, "closed_form_check", lambda points, ks, scale, offset: 0.25 * ks)
        assert main(argv) == 1
        series = rows()
        assert [row[:3] for row in series] == [
            [str(i), str(d), str(i % d)] for d in (3, 4) for i in range(2 * BLOCK + 3)
        ]
        for _, _, k, value in series:
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

    def test_independence_command_flags_renormalized_rules(self, capsys):
        code, report = run_json(
            capsys, ["independence", "--rule", "renorm:power:1", "--dim", "3"] + SMALL
        )
        assert code == 1
        assert report["results"]["max_spread"] > 1e-3

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
        _, report = run_json(capsys, argv)
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
        spread = lambda scan: max(scan["p_values"]) - min(scan["p_values"])
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
            return all(pair["within_3_sigma"] and pair["repeat_consistent"] for pair in results["pairs"])
        raise AssertionError(f"no rederivation for {command}")

    @pytest.mark.parametrize(
        "argv, passed",
        [
            (["verify-born", "--dims", "2,3", "--trials", "200"], True),
            (["falsify", "--rule", "born", "--dim", "3", "--trials", "200"], True),
            (["falsify", "--rule", "power:1", "--dim", "2", "--trials", "200"], False),
            (["falsify", "--rule", "renorm:power:4", "--dim", "3", "--trials", "50"], False),
            (["falsify", "--rule", "renorm:power:4", "--dim", "2", "--trials", "50"], False),
            (["independence", "--rule", "born", "--dim", "3", "--trials", "50"], True),
            (["independence", "--rule", "renorm:power:4", "--dim", "2", "--trials", "50"], False),
            (["recover", "--dims", "2,3", "--trials", "120"], True),
            (["stationarity", "--dims", "3", "--trials", "50"], True),
            (["spin1", "--trials", "50"], True),
            (["sample", "--dim", "3", "--shots", "2000", "--trials", "2"], True),
        ],
        ids=["verify-born", "falsify:born", "falsify:power:1", "falsify:renorm:d3", "falsify:renorm:d2",
             "independence:born", "independence:renorm:d2", "recover", "stationarity", "spin1", "sample"],
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
            return json.loads(json.dumps(run_config(args))), json.dumps(results), series

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
        assert lines[0] == "index,d,k,value"
        assert len(lines) == 11
        index, d, k, value = lines[1].split(",")
        assert (index, d, k) == ("0", "3", "1")
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


class TestBlocks:
    POINTS = 2 * BLOCK + 3  # two full blocks and a partial one per dimension
    COMMANDS = {
        "stationarity": (["stationarity", "--dims", "2,3"], [(7, di, b) for di in (0, 1) for b in (0, 1, 2)]),
        "spin1": (["spin1"], [(7, b) for b in (0, 1, 2)]),
    }

    def csv_rows(self, capsys, argv, points):
        assert main(argv + ["--trials", str(points), "--seed", "7", "--format", "csv"]) == 0
        return capsys.readouterr().out.splitlines()[1:]

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_block_b_draws_from_substream_seed_b(self, capsys, monkeypatch, command):
        argv, addresses = self.COMMANDS[command]
        seen = []

        def recording(seed, *indices):
            seen.append((seed, *indices))
            return substream(seed, *indices)

        monkeypatch.setattr(streams, "substream", recording)
        self.csv_rows(capsys, argv, self.POINTS)
        assert seen == addresses

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_full_blocks_do_not_depend_on_the_point_count(self, capsys, monkeypatch, command):
        argv, addresses = self.COMMANDS[command]
        blocks = []
        draw = quantum.haar_states
        monkeypatch.setattr(quantum, "haar_states", lambda *args: blocks.append(draw(*args)) or blocks[-1])
        short_csv = self.csv_rows(capsys, argv, BLOCK)
        short, blocks[:] = list(blocks), []
        long_csv = self.csv_rows(capsys, argv, self.POINTS)
        assert [len(block) for block in blocks] == [BLOCK, BLOCK, 3] * len(short)
        for di, block in enumerate(short):  # the series lists each dimension's points in turn
            np.testing.assert_array_equal(blocks[3 * di], block)
            assert long_csv[di * self.POINTS : di * self.POINTS + BLOCK] == short_csv[di * BLOCK : (di + 1) * BLOCK]


def csv_reference(series) -> str:
    """The CSV text of a series as the csv module writes it."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["index", "d", "k", "value"])
    for index, d, k, value in series:
        writer.writerow([index, d, "" if k is None else k, repr(float(value))])
    return buffer.getvalue()


class TestCsvRows:
    def test_rows_equal_the_csv_module(self):
        values = [3, np.float64(0.1), np.nan, np.inf, -np.inf, -0.0, 1e-300, np.float64(-2.5e-17), 0.0]
        series = [(i, d, k, value) for i, value in enumerate(values) for d in (None, 2) for k in (None, 0, 11)]
        text = Report({"command": "spin1"}, {}, True, series, 0.0).to_csv()
        assert text == csv_reference(series)
        assert text.splitlines()[1:4] == ["0,,,3.0", "0,,0,3.0", "0,,11,3.0"]
        assert Report({"command": "spin1"}, {}, True, [], 0.0).to_csv() == "index,d,k,value\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-born", "--dims", "2,3", "--trials", "20"],
            ["falsify", "--rule", "renorm:power:4", "--dim", "3", "--trials", "20"],
            ["independence", "--rule", "renorm:power:1", "--dim", "3", "--trials", "20"],
            ["recover", "--dims", "2,3", "--trials", "40"],
            ["stationarity", "--dims", "2,3", "--trials", "30"],
            ["spin1", "--trials", "30"],
            ["sample", "--dim", "3", "--shots", "200", "--trials", "3"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_commands_write_what_the_csv_module_writes(self, capsys, argv):
        argv = argv + ["--seed", "4", "--format", "csv"]
        args = build_parser().parse_args(argv)
        _, _, series = args.func(args)
        main(argv)
        assert capsys.readouterr().out == csv_reference(series)


class TestStackedEqualsPerBlock:
    """Commands draw per block and compute once on the stacked rows; a
    per-block kernel gives the same bits."""

    SEED = 9

    def csv_values(self, capsys, argv):
        main(argv + ["--seed", str(self.SEED), "--format", "csv"])
        return [line.rsplit(",", 1)[1] for line in capsys.readouterr().out.splitlines()[1:]]

    @pytest.mark.parametrize("trials", [BLOCK - 1, BLOCK, 2 * BLOCK + 3])
    def test_stationarity(self, capsys, trials):
        born = rules.Born()
        probabilities = functools.partial(rules.rule_probabilities, born)
        values, worst = [], np.zeros(3)
        for di, d in enumerate((2, 3, 5)):
            blocks = []  # walked here: k = i % d needs each draw's index, and a blockwise kernel gets only a size
            for b, start in enumerate(range(0, trials, BLOCK)):
                index = np.arange(start, min(start + BLOCK, trials))
                rows = np.abs(quantum.haar_states(d, index.size, substream(self.SEED, di, b)))
                ks = index % d
                blocks.append(np.column_stack([
                    np.max(np.abs(variational.rule_stationarity(born, rows, 1.0)), axis=-1),
                    np.max(np.abs(variational.outcome_stationarity(probabilities, rows, ks, 0.0)), axis=-1),
                    variational.closed_form_check(rows, ks, 2.0, -1.0),
                ]))
            residuals = np.concatenate(blocks)
            values += [repr(float(x)) for x in np.max(residuals, axis=1)]
            worst = np.maximum(worst, np.max(residuals, axis=0))
        argv = ["stationarity", "--dims", "2,3,5", "--trials", str(trials)]
        assert self.csv_values(capsys, argv) == values
        _, report = run_json(capsys, argv + ["--seed", str(self.SEED)])
        names = ("max_sum_residual", "max_outcome_residual", "max_closed_form_residual")
        assert [report["results"][name] for name in names] == [float(x) for x in worst]

    def test_stationarity_row_chunks(self, capsys, monkeypatch):
        # a cap of 7 rows splits every dimension's finite differences into
        # many chunks, and no bit of the report moves
        argv = ["stationarity", "--dims", "2,3,8", "--trials", "259"]

        def outputs():
            code, report = run_json(capsys, argv + ["--seed", str(self.SEED)])
            return code, report["results"], report["pass"], self.csv_values(capsys, argv)

        whole = outputs()
        monkeypatch.setattr(variational, "ROW_CHUNK", 7)
        assert outputs() == whole

    @pytest.mark.parametrize("trials", [BLOCK - 1, BLOCK, 2 * BLOCK + 3])
    def test_recover(self, trials):
        def kernel(d):
            return lambda n, rng: variational.power_sums(np.abs(quantum.haar_states(d, n, rng)))

        rows = np.concatenate([blockwise(kernel(d), trials, self.SEED, di) for di, d in enumerate((2, 3, 6))])
        coefficients, objective = variational.fit_power_series(rows)
        assert variational.MIN_SAMPLES <= trials
        got, got_objective, count = variational.recover_rule((2, 3, 6), trials, self.SEED)
        np.testing.assert_array_equal(got, coefficients)
        assert got_objective == objective and count == 3 * trials

    @pytest.mark.parametrize("trials", [BLOCK - 1, BLOCK, 2 * BLOCK + 3])
    def test_spin1(self, capsys, trials):
        _, _, (jz, jxy) = quantum.spin1_observables()
        pair = np.column_stack([jz[:, 1], jxy[:, 1]])  # both share |m=0> as eigenvector 1

        def kernel(n, rng):
            p = np.abs(quantum.haar_states(3, n, rng) @ np.conj(pair)) ** 2
            return np.abs(p[:, 0] - p[:, 1])

        values = [repr(float(x)) for x in blockwise(kernel, trials, self.SEED)]
        assert self.csv_values(capsys, ["spin1", "--trials", str(trials)]) == values

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 16])
    def test_sample(self, capsys, d):
        # reference: one observable per pair, its columns sorted by a column
        # reindex as a single build lays them out
        shots, trials = 300, 6
        argv = ["sample", "--dim", str(d), "--shots", str(shots), "--trials", str(trials), "--seed", str(self.SEED)]
        _, report = run_json(capsys, argv)
        for i, pair in enumerate(report["results"]["pairs"]):
            psi = quantum.haar_state(d, substream(self.SEED, i, 0))
            rng = substream(self.SEED, i, 1)
            values, basis = quantum.gapped_eigenvalues(d, rng), haar_array(d, rng)
            vectors = fix_column_phases(basis[:, np.argsort(values, kind="stable")])
            single = quantum.Observable.from_eigenbasis(values, basis)
            np.testing.assert_array_equal(single.eigensystem.eigenvectors, vectors)
            counts = quantum.sample_outcomes(psi, vectors, shots, substream(self.SEED, i, 2))
            assert pair["born"] == [float(x) for x in quantum.born_probabilities(psi, vectors)]
            assert pair["frequencies"] == [float(x) for x in counts / shots]
            assert pair["first_outcome"] == quantum.measure(psi, vectors, substream(self.SEED, i, 3))[0]

    def test_sample_checks_one_stack(self, capsys, monkeypatch):
        checked, built = [], []
        check = quantum.check_eigensystems
        monkeypatch.setattr(quantum, "check_eigensystems", lambda m, w, v: checked.append(m.shape) or check(m, w, v))
        monkeypatch.setattr(quantum.Observable, "from_eigenbasis", lambda *args: built.append(args))
        assert main(["sample", "--dim", "4", "--shots", "100", "--trials", "7"]) in (0, 1)
        assert checked == [(7, 4, 4)] and built == []
