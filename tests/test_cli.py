"""End-to-end command-line behavior: exit codes, schema, determinism."""

import json

import pytest

from bornlab.cli import main

SMALL = ["--trials", "200", "--seed", "42"]


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

    @pytest.mark.parametrize("argv", COMMANDS[:4], ids=lambda a: a[0] + ":" + a[2])
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
