"""End-to-end command-line behavior: exit codes, schema, determinism."""

import argparse
import json
import os
import threading

import pytest

import numpy as np

from bornlab import invariance, quantum, streams, variational
from bornlab.cli import build_parser, main, run_config
from bornlab.streams import BLOCK, substream

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

    def test_renormalized_rule_at_dim_two_is_inconclusive(self, capsys):
        # the complement orthant of a qubit is a single point, so neither
        # independence scan can separate a renormalized rule from Born
        code, report = run_json(
            capsys, ["falsify", "--rule", "renorm:power:4", "--dim", "2", "--trials", "50", "--seed", "3"]
        )
        results = report["results"]
        assert code == 3 and report["pass"] is False
        assert results["falsified"] is None and results["witness"] is None
        assert isinstance(results["inconclusive"], str) and "\n" not in results["inconclusive"]

    def test_domain_error_is_usage_error(self, capsys):
        # affine:1:-1 gives a^2 - 1 <= 0 at every modulus, so no renormalization exists
        with pytest.raises(SystemExit) as excinfo:
            main(["falsify", "--rule", "renorm:affine:1:-1", "--dim", "3", "--trials", "10"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "renormalization sum is not positive" in captured.err
        assert "Traceback" not in captured.err

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

    def test_pass_rederivable_from_results(self, capsys):
        _, report = run_json(capsys, ["verify-born", "--dims", "2,3"] + SMALL)
        results = report["results"]
        rederived = (
            results["max_defect"] <= results["thresholds"]["defect"]
            and results["max_spread"] <= results["thresholds"]["spread"]
        )
        assert rederived == report["pass"]

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
