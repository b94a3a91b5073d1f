#!/usr/bin/env python3
"""The mutant table: each row breaks one check in src/ and names the test that must catch it.

A row is (path under src/, exact old text, replacement, test node id, reason).
With no option the script lists the rows.  With --run it first runs every
named test on an unmutated copy of src/, where each must pass, then, for each
row, applies the row to a fresh copy of src/ and runs the row's test against
that copy; the row is killed when the test fails.  It exits 1 if a named test
fails on the unmutated copy or a mutant survives:

    python3 scripts/mutants.py --run
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    path: str  # under src/
    old: str  # occurs exactly once in src/
    new: str
    test: str  # pytest node id, from the repository root
    reason: str


MUTANTS = [
    Mutant(
        "bornlab/cli.py",
        'worst = obs if obs["spread"] >= rot["spread"] else rot',
        'worst = obs if obs["spread"] < rot["spread"] else rot',
        "tests/test_cli.py::TestScanSummaries::test_verdict_reads_the_larger_spread_and_its_extremes",
        "the independence witness and statistic come from the smaller spread",
    ),
    Mutant(
        "bornlab/invariance.py",
        "return _tails(point, np.abs(complex_rows(rng.standard_normal((n, 2, point.dim - 1)))))",
        "return _tails(point, np.abs(rng.standard_normal((n, point.dim - 1))))",
        "tests/test_invariance.py::TestObservableWithEigenstate::test_tail_moduli_are_haar_distributed",
        "the observable scan draws the real law: Dirichlet(1/2) tails, not a Haar rotation's Dirichlet(1)",
    ),
    Mutant(
        "bornlab/linalg.py",
        "if not gap > TOL.degeneracy_gap:",
        "if False:",
        "tests/test_quantum.py::TestObservable::test_rejects_degenerate_spectrum",
        "a degenerate spectrum is accepted, so an eigenvector is not fixed up to phase",
    ),
    Mutant(
        "bornlab/invariance.py",
        "if not best > 1.0 - TOL.match_overlap:",
        "if False:",
        "tests/test_invariance.py::TestObservableWithEigenstate::test_match_rejects_a_state_that_is_not_an_eigenvector",
        "match_eigenvector returns a column of an observable lacking phi, so spin1 compares unrelated outcomes",
    ),
    Mutant(
        "bornlab/cli.py",
        "misses = np.abs(np.diagonal(rules.rule_probabilities(rule, eigenstates)) - 1.0)",
        "misses = 0.0 * np.abs(np.diagonal(rules.rule_probabilities(rule, eigenstates)) - 1.0)",
        "tests/test_cli.py::TestFalsification::test_renormalized_rule_must_give_certainty_on_an_eigenstate",
        "certainty_defect reads 0, so the uniform rule p_k = 1/d passes falsify",
    ),
    Mutant(
        "bornlab/invariance.py",
        "rows[:, 1:] = np.linalg.norm(point.moduli[1:]) * unit",
        "rows[:, 1:] = np.sqrt(1.0 - point.moduli[0] ** 2) * unit",
        "tests/test_invariance.py::TestNearEigenstate::test_both_scans_see_the_complement",
        "the tails' radius sqrt(1 - a_0^2) rounds to 0 near an eigenstate: both scans report 0.0",
    ),
    Mutant(
        "bornlab/invariance.py",
        "argmin, argmax = int(np.argmin(self.p_values)), int(np.argmax(self.p_values))",
        "argmax, argmin = int(np.argmin(self.p_values)), int(np.argmax(self.p_values))",
        "tests/test_invariance.py::TestReportSummary::test_extremes_are_the_first_draws_at_each",
        "a scan summary's extremes swap: min_p > max_p and a negative spread",
    ),
    Mutant(
        "bornlab/invariance.py",
        "    rows = law(point, draws, substream(seed, *address))\n    check_orthant(rows)\n",
        "    rows = law(point, draws, substream(seed, *address))\n",
        "tests/test_invariance.py::TestObservableIndependence::test_orthant_check_catches_what_orthonormality_allows",
        "a scan's moduli rows whose squares do not sum to one are scored",
    ),
    Mutant(
        "bornlab/cli.py",
        "if d == 2 and rule.renormalized:",
        "if False:",
        "tests/test_cli.py::TestExitCodes::test_renormalized_rule_at_dim_two_is_inconclusive",
        "a renormalized rule at d=2, where both spreads vanish for every rule, passes",
    ),
    Mutant(
        "bornlab/cli.py",
        "elif not rule.renormalized and rule != rules.Born():",
        "elif False:",
        "tests/test_cli.py::TestFalsification::test_independence_with_a_plain_rule_is_inconclusive",
        "independence passes a plain rule, whose spreads vanish whatever its defect",
    ),
    Mutant(
        "bornlab/cli.py",
        'return "fail" if statistic > tolerance',
        'return "fail" if statistic >= tolerance',
        "tests/test_cli.py::TestFalsification::test_a_falsifier_is_one_row",
        "a statistic equal to its tolerance falsifies, though a tolerance is the largest value that passes",
    ),
    Mutant(
        "bornlab/rules.py",
        "negative = min(base(0.0), base(1.0)) < 0.0",
        "negative = False",
        "tests/test_cli.py::TestExitCodes::test_renormalized_rule_negative_near_zero_is_rejected_on_every_seed",
        "a renormalized rule negative only near a zero modulus is built, and independence passes it on every seed",
    ),
    Mutant(
        "bornlab/rules.py",
        "if max(base(0.0), base(1.0)) <= 0.0:",
        "if False:",
        "tests/test_cli.py::TestExitCodes::test_domain_error_is_usage_error[falsify:renorm-zero-base]",
        "a renormalized rule that is 0 on [0, 1] is built: falsify refuses it only at its certainty row, as an underflow",
    ),
    Mutant(
        "bornlab/cli.py",
        'return 3 if "inconclusive" in self.results else 1',
        "return 1",
        "tests/test_cli.py::TestExitCodes::test_renormalized_rule_at_dim_two_is_inconclusive",
        "a configuration that cannot separate the rule exits 1, as if the rule were falsified",
    ),
    Mutant(
        "bornlab/rules.py",
        "np.abs(normalization_sum(rule, stacked) - 1.0)",
        "(normalization_sum(rule, stacked) - 1.0)",
        "tests/test_rules.py::TestDefectScan::test_non_quadratic_power_found_within_100_trials",
        "a rule whose sums fall short of one, as power:3 and power:4 do, has a negative defect and passes",
    ),
    Mutant(
        "bornlab/quantum.py",
        "        if pool[1] >= TOL.sample_min_expected:\n",
        "        if True:\n",
        "tests/test_quantum.py::TestChiSquare::test_cells_pool_until_each_expects_five",
        "no cell is pooled, so cells expecting under five shots each count as a degree of freedom",
    ),
    Mutant(
        "bornlab/quantum.py",
        "rng.multinomial(shots, np.minimum(p, 1.0))",
        "rng.multinomial(shots, p)",
        "tests/test_quantum.py::TestMeasurement::test_a_one_hot_row_rounded_above_one_takes_every_shot",
        "a collapsed state's Born row that rounds to 1 + 2e-16 is rejected by numpy: a crash, not a verdict",
    ),
    Mutant(
        "bornlab/quantum.py",
        'within(float(np.abs(row_sum(p) - 1.0).max()), TOL.unit_norm, "probability sum defect", NotNormalized)',
        "pass",
        "tests/test_quantum.py::TestMeasurement::test_draws_reject_a_non_distribution",
        "sample_outcomes draws from a row that is not a distribution, so a plain rule's row is sampled",
    ),
    Mutant(
        "bornlab/quantum.py",
        "np.abs(row_sum(p) - 1.0).max()",
        "np.abs(row_sum(p) - 1.0).flat[0]",
        "tests/test_quantum.py::TestMeasurement::test_draws_reject_a_non_distribution",
        "a stacked draw checks its first row's sum alone, so a later pair's non-distribution is sampled",
    ),
    Mutant(
        "bornlab/cli.py",
        "per_point = np.maximum(linalg.row_max(np.maximum(sum_res, out_res)), closed)",
        "per_point = linalg.row_max(np.maximum(sum_res, out_res))",
        "tests/test_cli.py::TestStackedEqualsPerBlock::test_stationarity",
        "stationarity's per-point value drops the closed-form residual, so a point's CSV value misses it",
    ),
    Mutant(
        "bornlab/tolerances.py",
        "return -math.expm1(math.log1p(-self.sample_alpha) / pairs)",
        "return self.sample_alpha",
        "tests/test_quantum.py::TestChiSquare::test_sidak_level_holds_the_run_to_the_two_sided_six_sigma_tail",
        "each pair is judged at the run's level, so a run of n pairs false-alarms n times as often",
    ),
    Mutant(
        "bornlab/quantum.py",
        "tail = math.erfc(math.sqrt(half)) if dof % 2 else 0.0",
        "tail = 0.0",
        "tests/test_quantum.py::TestChiSquare::test_survival_at_tabulated_quantiles",
        "an odd-dof p-value misses its normal tail, so a correct sampler's small chi-square fails",
    ),
    Mutant(
        "bornlab/quantum.py",
        "check_eigensystems(matrix, values, vectors)",
        "pass",
        "tests/test_quantum.py::TestObservable::test_stack_is_checked_as_a_whole",
        "from_eigenbasis accepts a degenerate spectrum, whose eigenvectors are not fixed up to phase",
    ),
    Mutant(
        "bornlab/quantum.py",
        'within(abs(float(np.vdot(amplitudes, amplitudes).real) - 1.0), TOL.unit_norm, "state norm defect", NotNormalized)',
        "pass",
        "tests/test_quantum.py::TestStateAndModulus::test_state_rejects_unnormalized",
        "a StateVector of any norm is accepted, so its moduli are scored off the unit orthant",
    ),
    Mutant(
        "bornlab/cli.py",
        "return 4",
        "return 1",
        "tests/test_cli.py::TestExitCodes::test_runtime_failure_exits_four",
        "a crash exits 1, as if a check had failed or the rule were falsified",
    ),
    Mutant(
        "bornlab/streams.py",
        "np.random.SeedSequence(_words(seed, *indices))",
        "np.random.SeedSequence()",
        "tests/test_cli.py::TestDeterminism::test_rerun_is_byte_identical",
        "streams draw fresh OS entropy, so a rerun at the same seed gives another report",
    ),
    Mutant(
        "bornlab/rules.py",
        "if n >= ONE_STREAM_MIN:",
        "if n > ONE_STREAM_MIN:",
        "tests/test_rules.py::TestDefectScan::test_a_scan_draws_one_stream_from_one_stream_min_trials",
        "a scan of exactly ONE_STREAM_MIN trials draws a substream per trial, not its one stream",
    ),
    Mutant(
        "bornlab/rules.py",
        "substream(seed, *address, i)).amplitudes) for i in range(n)]",
        "substream(seed, *address, 0)).amplitudes) for i in range(n)]",
        "tests/test_rules.py::TestDefectScan::test_a_scan_draws_one_stream_from_one_stream_min_trials",
        "every trial of a short scan draws the first trial's state, so its defects are one defect repeated",
    ),
    Mutant(
        "bornlab/rules.py",
        "if not math.isfinite(mean):",
        "if False:",
        "tests/test_cli.py::TestFalsification::test_the_mean_of_finite_defects_is_finite",
        "defects near the float maximum sum to inf, so the report's mean is Infinity, which is not JSON",
    ),
    Mutant(
        "bornlab/cli.py",
        "rngs = [substream(seed, t) for t in range(5)]",
        "rngs = [substream(seed, 0)] * 5",
        "tests/test_cli.py::TestStackedEqualsPerBlock::test_sample_draws_part_t_of_every_pair_from_stream_t",
        "every part of sample draws from one stream, so a pair's counts follow its state's draws and replay from no address",
    ),
    Mutant(
        "bornlab/quantum.py",
        "return rng.multinomial(shots, np.minimum(p, 1.0))",
        "return rng.multinomial(shots, np.minimum(p, 1.0)[::-1])[::-1]",
        "tests/test_quantum.py::TestMeasurement::test_a_stack_draws_as_a_loop_of_rows_over_one_generator",
        "a stack's rows draw in reverse order, so pair i's counts are not the next draw of its stream",
    ),
    Mutant(
        "bornlab/cli.py",
        '    (_certainty_check, (), "defect", lambda rule: rule.renormalized),\n',
        "",
        "tests/test_cli.py::TestFalsification::test_renormalized_rule_must_give_certainty_on_an_eigenstate",
        "falsify runs no certainty row, so the uniform rule p_k = 1/d passes at d >= 3",
    ),
    Mutant(
        "bornlab/cli.py",
        "if not any(dof for _, dof, _ in tests) and all(repeats):",
        "if False:",
        "tests/test_cli.py::TestExitCodes::test_sample_that_tests_no_frequency_is_inconclusive",
        "sample with too few shots for any chi-square passes, though no frequency was tested",
    ),
    Mutant(
        "bornlab/cli.py",
        "if argv and argv[0] in parser.commands:",
        "if False:",
        "tests/test_cli.py::TestExitCodes::test_domain_error_is_usage_error",
        "every command line goes through the top-level parser, so a leftover word reads 'bornlab: error: ...'",
    ),
    Mutant(
        "bornlab/cli.py",
        "threshold = TOL.sample_p_value(tested) if tested else None",
        "threshold = TOL.sample_p_value(n) if tested else None",
        "tests/test_cli.py::TestExitCodes::test_sample_judges_only_the_pairs_it_tests",
        "pairs that pool into one cell still count in the Sidak level, so each tested pair is judged too strictly",
    ),
    Mutant(
        "bornlab/rules.py",
        "if not math.isfinite(scale + offset):",
        "if False:",
        "tests/test_cli.py::TestExitCodes::test_overflow_and_underflow_are_refused_on_every_seed[independence:affine-overflow-d3]",
        "an affine rule that overflows at a = 1 is built, and independence reports its inf values as inconclusive",
    ),
    Mutant(
        "bornlab/cli.py",
        "if rule.renormalized and not rule(d ** -0.5) > 0.0:",
        "if False:",
        "tests/test_cli.py::TestExitCodes::test_overflow_and_underflow_are_refused_on_every_seed[falsify:renorm-underflow-d3]",
        "a renormalized rule whose sum can underflow passes, fails or is a domain error, by seed",
    ),
    Mutant(
        "bornlab/quantum.py",
        "    check_orthant(rows)\n    return states, rows",
        "    return states, rows",
        "tests/test_quantum.py::TestStateAndModulus::test_a_zero_draw_in_a_one_stream_scan_is_not_normalized",
        "haar_scan checks no state, so a scan of ONE_STREAM_MIN or more trials reports a zero draw as a domain error",
    ),
    Mutant(
        "bornlab/quantum.py",
        "states = haar_rows(substream(seed, *indices).standard_normal((n, 2, dim)))",
        "states = haar_rows(substream(seed, *indices).standard_normal((2, n, dim)).transpose(1, 0, 2))",
        "tests/test_rules.py::TestDefectScan::test_first_k_trials_are_a_k_trial_scan",
        "a scan draws all its real parts before its imaginary parts, so row i depends on how many rows follow it",
    ),
    Mutant(
        "bornlab/cli.py",
        "zip(index, itertools.cycle(heads), values)",
        "zip(index, itertools.repeat(heads[0]), values)",
        "tests/test_cli.py::TestCsvRows::test_commands_write_what_the_csv_module_writes[stationarity]",
        "every CSV row of a series names the first k, so stationarity's point i is not listed at outcome i % d",
    ),
    Mutant(
        "bornlab/cli.py",
        "values = np.asarray(values, np.float64).ravel().tolist()",
        "values = np.asarray(values).ravel().tolist()",
        "tests/test_cli.py::TestCsvRows::test_rows_equal_the_csv_module",
        "an integer value is written as 3, not 3.0, so the CSV value column is not the float the csv module writes",
    ),
    Mutant(
        "bornlab/linalg.py",
        "total = x[..., 0] + 0.0",
        "total = x[..., 0].copy()",
        "tests/test_linalg.py::TestRowReductions::test_a_row_of_negative_zeros_sums_to_positive_zero",
        "a row sum starts at its first entry, not numpy's +0.0, so a row of -0.0 sums to -0.0",
    ),
    Mutant(
        "bornlab/linalg.py",
        "if not 0 < d < 8:",
        "if not 0 < d < 9:",
        "tests/test_linalg.py::TestRowReductions::test_row_sum_has_numpy_bits",
        "a row of 8 entries is summed in order, not in numpy's pairwise blocks, so its last bit can differ",
    ),
    Mutant(
        "bornlab/linalg.py",
        "out = np.maximum(out, x[..., j])",
        "out = np.minimum(out, x[..., j])",
        "tests/test_linalg.py::TestRowReductions::test_row_max_has_numpy_bits",
        "a row maximum is a running minimum, so stationarity's worst residual per point is its best",
    ),
    Mutant(
        "bornlab/variational.py",
        "    np.put(inside, at, False)\n",
        "",
        "tests/test_variational.py::TestOutcomeStationarity::test_renormalized_linear_has_no_constant_multiplier",
        "the outcome form scores j = k, the outcome's own partial, which is no cross partial",
    ),
    Mutant(
        "bornlab/variational.py",
        "        up[:, j] = down[:, j] = a[:, j]\n",
        "",
        "tests/test_cli.py::TestStackedEqualsPerBlock::test_stationarity_moves_one_coordinate_at_a_time",
        "each moved coordinate stays moved, so the partial in a_j is taken with every earlier a_i shifted too",
    ),
    Mutant(
        "bornlab/variational.py",
        "if not np.all((0 <= k) & (k < d)):",
        "if False:",
        "tests/test_variational.py::test_outcome_indices_outside_the_dimension_are_refused",
        "an outcome index outside 0..d-1 reads another row's outcome, or the row's last, with no error",
    ),
]


def mutated_source(root: Path, mutant: Mutant | None) -> Path:
    """A copy of src/ under root, with mutant applied when one is given."""
    src = root / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        target = src / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            raise SystemExit(f"mutants.py: the old text of {mutant.path} does not occur exactly once: {mutant.old!r}")
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return src


def pytest_code(src: Path, tests: list[str]) -> int:
    """pytest's exit code for tests run against the bornlab in src (0 passed, 1 a test failed)."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "-o", f"pythonpath={src}", *tests]
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=600).returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--run", action="store_true", help="apply each row to a copy of src/ and run its test")
    args = parser.parse_args(argv)
    if not args.run:
        for mutant in MUTANTS:
            print(f"{mutant.path}\t{mutant.test}\t{mutant.reason}")
        return 0
    survivors = 0
    with tempfile.TemporaryDirectory() as tmp:
        tests = list(dict.fromkeys(mutant.test for mutant in MUTANTS))
        code = pytest_code(mutated_source(Path(tmp) / "clean", None), tests)
        if code != 0:
            print(f"mutants.py: the named tests do not pass on unmutated src/ (pytest exit {code})", file=sys.stderr)
            return 1
        for i, mutant in enumerate(MUTANTS):
            code = pytest_code(mutated_source(Path(tmp) / str(i), mutant), [mutant.test])
            verdict = "killed" if code == 1 else "SURVIVED" if code == 0 else f"error (pytest exit {code})"
            survivors += verdict != "killed"
            print(f"{verdict}\t{mutant.path}\t{mutant.test}\t{mutant.reason}", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main())
