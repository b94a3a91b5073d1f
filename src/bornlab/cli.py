"""Reproducible command-line front end for the experiment suites.

Every command echoes its configuration, emits a machine-readable report,
and derives its verdict from the serialized results and thresholds alone,
so a reader can re-check the pass flag.  Exit codes: 0 every check passed,
1 a scientific check failed (or a rule was falsified, the expected outcome
for non-quadratic rules), 2 usage, domain or I/O error, 3 inconclusive (the
configuration cannot separate the rule from the quadratic one), 4 runtime
failure (any other exception, one line on stderr: a crash is not a verdict).

falsify runs, in order, each FALSIFIERS row whose runs_on(rule) holds
(run_falsifiers), and row_verdict judges each row.  The first row whose
statistic exceeds its tolerance falsifies the rule with that row's witness;
otherwise an inconclusive reason from a row that ran makes falsified null
(exit 3); otherwise the rule passes.

Reports are byte-identical across reruns with the same seed, because every
random draw comes from substream(seed, *address) at its own address, not
from shared generator state; each scan's report records [seed, *address].
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from . import invariance, linalg, quantum, rules, variational
from .streams import generators, substream, substreams
from .tolerances import TOL, within


# the configuration a report echoes, in order: every name the command registers
ECHO = ("command", "seed", "dims", "dim", "trials", "shots", "rule", "tol_defect", "tol_spread", "format", "out")


def run_config(args: argparse.Namespace) -> dict:
    """The echo of a parsed command line: every ECHO name it registers, minus None."""
    echo = {name: getattr(args, name) for name in ECHO if getattr(args, name, None) is not None}
    if "rule" in echo:
        echo["rule"] = echo["rule"].name
    return echo


Verdict = tuple[dict, bool, Iterable[tuple]]  # what a command returns: results, pass, CSV series


@dataclass
class Report:
    config: dict
    results: dict
    passed: bool
    series: Iterable[tuple]  # (index, d, k, value, series) rows, read once, by to_csv
    runtime_ms: float

    def to_json(self) -> str:
        # one line: with indent set, json.dumps falls back to its pure-Python encoder
        return json.dumps(
            {
                "schema_version": "1",
                "command": self.config["command"],
                "config": self.config,
                "results": self.results,
                "pass": self.passed,
                "runtime_ms": self.runtime_ms,
            }
        )

    @property
    def exit_code(self) -> int:
        if self.passed:
            return 0
        return 3 if "inconclusive" in self.results else 1

    def to_csv(self) -> str:
        rows = [f"{i},{'' if d is None else d},{'' if k is None else k},{float(v)!r},{s}\n" for i, d, k, v, s in self.series]
        return "index,d,k,value,series\n" + "".join(rows)


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dimension list {text!r}")


def _parse_rule(text: str) -> rules.Rule:
    try:
        return rules.parse_rule(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value < math.inf:  # also rejects nan
        raise argparse.ArgumentTypeError(f"tolerance must be a finite number >= 0, got {text!r}")
    return value


def _dispatch(args: argparse.Namespace) -> Verdict:
    """Run the parsed command's cmd_* function, looked up at call time: the
    parser is built once per process, so a function rebound after that (a
    test's patch, a tracer's wrapper) is still the one that runs."""
    return globals()["cmd_" + args.command.replace("-", "_")](args)


# every command once, in registration order: (help, the tolerances its verdict reads, its fewest --trials,
# its own options as flag -> add_argument keywords); a renormalized --rule needs invariance.MIN_DRAWS trials
COMMANDS = {
    "verify-born": ("normalization and observable-independence checks for the quadratic rule", ("defect", "spread"), 1, {
        "--dims": dict(type=_parse_dims, default=(2, 3, 4, 5, 6, 7, 8)),
        "--trials": dict(type=int, default=10_000)}),
    "falsify": ("defect and independence falsifiers for a candidate rule", ("defect", "spread"), 1, {
        "--rule": dict(type=_parse_rule, required=True),
        "--dim": dict(type=int, default=3),
        "--trials": dict(type=int, default=1000)}),
    "independence": ("observable- and rotation-independence scans for one rule", ("spread",), invariance.MIN_DRAWS, {
        "--rule": dict(type=_parse_rule, default="born"),
        "--dim": dict(type=int, default=3),
        "--trials": dict(type=int, default=100, help="draws per scan")}),
    "recover": ("least-squares recovery of the unique normalizable rule", (), variational.MIN_SAMPLES, {
        "--dims": dict(type=_parse_dims, default=(2, 3)),
        "--trials": dict(type=int, default=500, help="samples per dimension")}),
    "stationarity": ("Lagrange stationarity residuals of the square and of the closed-form family", (), 1, {
        "--dims": dict(type=_parse_dims, default=(3,)),
        "--trials": dict(type=int, default=1000, help="orthant points per dimension")}),
    "spin1": ("two spin-1 observables sharing the m=0 eigenvector assign it equal probability", ("spread",), 1, {
        "--trials": dict(type=int, default=1000, help="random states")}),
    "sample": ("Monte-Carlo measurement: frequencies vs probabilities, collapse repeatability", (), 1, {
        "--dim": dict(type=int, default=3),
        "--shots": dict(type=int, default=100_000),
        "--trials": dict(type=int, default=10, help="random (state, observable) pairs")}),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    call: parse_args does not change it, and callers must not either.  Its
    commands attribute maps each command name to that command's parser."""
    parser = argparse.ArgumentParser(
        prog="bornlab", description="Seeded numerical experiments on measurement probability rules.")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices
    for command, (text, tolerances, _, options) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        # every name the top-level parser sets, so a command's own parser builds the same Namespace;
        # main reports every usage error as "bornlab <command>: error: ..."
        p.set_defaults(command=command, func=_dispatch, error=p.error)
        for flag, keywords in options.items():
            p.add_argument(flag, **keywords)
        p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
        for name in tolerances:  # only on commands whose verdict reads them
            p.add_argument(f"--tol-{name}", type=_parse_tolerance, default=getattr(TOL, name))
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--out", default=None, help="write the report to this path")
        p.add_argument("--threads", type=int, default=1, help="accepted for compatibility; has no effect")
    return parser


Check = tuple[dict, Iterable[tuple], float, list[float]]  # results entries, CSV rows, statistic, witness


def _rows(name: str, d: int | None, values: np.ndarray, ks: tuple | range = (None,)) -> Iterator[tuple]:
    """The CSV rows (i, d, ks[i % len(ks)], values[i], name) of one series, built
    only when to_csv reads them: a JSON run builds none."""
    for i, (k, value) in enumerate(zip(itertools.cycle(ks), values.tolist())):
        yield i, d, k, value, name


def _defect_check(rule, d: int, trials: int, seed: int, *address: int) -> Check:
    """The normalization-defect scan of rule at d: trial i from substream(seed, *address, i).

    Returns its results entry, one CSV row per trial, the largest defect and
    the worst state's moduli.
    """
    scan = rules.defect_scan(rule, d, trials, seed, *address)
    return {"defect": scan.as_dict()}, _rows("defect", d, scan.defects), scan.max_defect, scan.argmax_state.moduli.tolist()


def _independence_check(rule, d: int, draws: int, seed: int, *address: int) -> Check:
    """Both independence scans of rule at d, each at outcome 0 of its own Haar state's moduli.

    The rotation scan, at (*address, 3), resamples the complement of the state
    from (*address, 0); the observable scan, at (*address, 2), measures the
    state from (*address, 1) in eigenbases sharing e_0.  Returns their results
    entries (each scan's summary: spread, both extremes, the first draw at
    each, address), one CSV row per draw, and, read from those summaries, the
    larger spread (the observable scan's on a tie) and that scan's [min p, max p].
    A renormalized base that is 0 at 1/sqrt(d) is a DomainError before any draw.
    """
    if rule.renormalized and not rule(d ** -0.5) > 0.0:  # no row's sum at d is below its base at 1/sqrt(d)
        raise rules.DomainError(f"renormalization sum is not positive: {rule.name}'s base is 0 at 1/sqrt({d}), so a sum can underflow")
    # each row has the bits of its own draw, and moduli's orthant check is the norm check
    rot_point, obs_point = map(quantum.moduli, quantum.haar_rows(d, (substream(seed, *address, i) for i in (0, 1))))
    obs_scan = invariance.observable_independence_scan(obs_point, rule, draws, seed, *address, 2)
    rot_scan = invariance.unobserved_independence_scan(rot_point, rule, draws, seed, *address, 3)
    obs, rot = obs_scan.as_dict(), rot_scan.as_dict()
    results = {"observable_scan": obs, "rotation_scan": rot}
    if d == 2 and rule.renormalized:
        # the complement orthant is a single point, so both spreads vanish
        # for every rule: the d=2 gap of Gleason's theorem
        results["inconclusive"] = "at d=2 both independence spreads vanish for every rule; use --dim 3 or more"
    elif not rule.renormalized and rule != rules.Born():  # p_k = f(a_k): a_k is what both scans fix
        results["inconclusive"] = "both independence spreads vanish for every plain rule; use falsify for its defect"
    series = _rows("observable_scan", d, obs_scan.p_values, (0,)), _rows("rotation_scan", d, rot_scan.p_values, (0,))
    worst = obs if obs["spread"] >= rot["spread"] else rot
    return results, (row for rows in series for row in rows), worst["spread"], [worst["min_p"], worst["max_p"]]


def _certainty_check(rule, d: int, *_: int) -> Check:
    """Certainty on an eigenstate, p_k(e_k) = 1, which a renormalized rule need not
    give at any d: deterministic, no CSV rows; the largest miss, the worst e_k."""
    eigenstates = np.eye(d)
    misses = np.abs(np.diagonal(rules.rule_probabilities(rule, eigenstates)) - 1.0)
    worst = int(np.argmax(misses))
    return {"certainty_defect": float(misses[worst])}, [], float(misses[worst]), eigenstates[worst].tolist()


# falsify's rows in verdict order: (check, address, tolerance name, runs_on(rule)), each check called as
# check(rule, d, trials, seed, *address); it calls library code through module attributes, which a tracer rebinds.
FALSIFIERS = (
    (_defect_check, (0,), "defect", lambda rule: True),
    (_certainty_check, (), "defect", lambda rule: rule.renormalized),
    (_independence_check, (1,), "spread", lambda rule: rule.renormalized),
)


Outcome = tuple[Check, float]  # a FALSIFIERS row's check outcome and its tolerance


def run_falsifiers(rule, d: int, trials: int, seed: int, thresholds: dict) -> list[Outcome | None]:
    """Each FALSIFIERS row at (rule, d), in verdict order: its check's outcome at the
    row's address and its tolerance, thresholds[name], or None where runs_on(rule) fails."""
    return [(check(rule, d, trials, seed, *address), thresholds[name]) if runs_on(rule) else None
            for check, address, name, runs_on in FALSIFIERS]


def row_verdict(outcome: Outcome | None) -> str:
    """One row's verdict: "fail" when its statistic exceeds its tolerance, else
    "inconclusive" when its check gave a reason, else "pass"; "n/a" where it did not run."""
    if outcome is None:
        return "n/a"
    (entries, _, statistic, _), tolerance = outcome
    return "fail" if statistic > tolerance else "inconclusive" if "inconclusive" in entries else "pass"


def cmd_verify_born(args) -> Verdict:
    born = rules.Born()
    per_dim, series = [], []
    pairs, draws = 10, 100

    for di, d in enumerate(args.dims):
        defect, rows, _, _ = _defect_check(born, d, args.trials, args.seed, di, 0)
        series.append(rows)
        spreads = [_independence_check(born, d, draws, args.seed, di, 1, pair)[2] for pair in range(pairs)]
        per_dim.append(
            {
                "dim": d,
                **defect,
                "independence_pairs": pairs,
                "independence_draws": draws,
                "independence_max_spread": max(spreads),
            }
        )

    results = {
        "per_dim": per_dim,
        "max_defect": max(entry["defect"]["max_defect"] for entry in per_dim),
        "max_spread": max(entry["independence_max_spread"] for entry in per_dim),
        "thresholds": {"defect": args.tol_defect, "spread": args.tol_spread},
    }
    passed = results["max_defect"] <= args.tol_defect and results["max_spread"] <= args.tol_spread
    return results, passed, (row for rows in series for row in rows)


def cmd_falsify(args) -> Verdict:
    rule, d, thresholds = args.rule, args.dim, {"defect": args.tol_defect, "spread": args.tol_spread}
    ran = [outcome for outcome in run_falsifiers(rule, d, args.trials, args.seed, thresholds) if outcome]
    verdicts = [row_verdict(outcome) for outcome in ran]
    witnesses = [witness for ((_, _, _, witness), _), verdict in zip(ran, verdicts) if verdict == "fail"]
    results: dict = {"rule": rule.name, "dim": d}
    for (entries, _, _, _), _ in ran:  # a falsified rule is not inconclusive; thresholds follow the first row
        results.update((key, value) for key, value in entries.items() if not (witnesses and key == "inconclusive"))
        results.setdefault("thresholds", thresholds)
    falsified = True if witnesses else None if "inconclusive" in verdicts else False
    results.update(falsified=falsified, witness=witnesses[0] if witnesses else None)
    return results, falsified is False, (row for (_, rows, _, _), _ in ran for row in rows)


def cmd_independence(args) -> Verdict:
    results, series, spread, _ = _independence_check(args.rule, args.dim, args.trials, args.seed, 1)
    results.update(max_spread=spread, threshold=args.tol_spread)
    return results, spread <= args.tol_spread and "inconclusive" not in results, series


def cmd_recover(args) -> Verdict:
    coefficients, objective, sample_count = variational.recover_rule(args.dims, args.trials, args.seed)
    target = [0.0, 1.0, 0.0, 0.0]
    error = float(np.max(np.abs(coefficients - target)))
    results = {
        "recovery": {
            "coefficients": coefficients.tolist(),
            "objective_value": objective,
            "sample_count": sample_count,
            "dims_used": list(args.dims),
            "seed": args.seed,
        },
        "target": target,
        "max_coefficient_error": error,
        "coefficient_threshold": TOL.coefficient_error,
    }
    series = ((n, None, None, c, "coefficients") for n, c in enumerate(results["recovery"]["coefficients"], 1))
    return results, error <= TOL.coefficient_error, series


def cmd_stationarity(args) -> Verdict:
    born = rules.Born()
    probabilities = functools.partial(rules.rule_probabilities, born)
    series = []
    worst = np.zeros(3)  # sum-form, outcome-form and closed-form residuals
    for di, d in enumerate(args.dims):
        rows = np.abs(quantum.haar_blocks(d, args.trials, args.seed, di))
        ks = np.arange(args.trials) % d
        sum_res = np.abs(variational.rule_stationarity(born, rows, 1.0))
        out_res = np.abs(variational.outcome_stationarity(probabilities, rows, ks, 0.0))
        closed = variational.closed_form_check(rows, ks, 2.0, -1.0)
        per_point = np.maximum(np.max(np.maximum(sum_res, out_res), axis=-1), closed)
        series.append(_rows("residual", d, per_point, range(d)))  # point i at outcome i % d
        worst = np.maximum(worst, (sum_res.max(), out_res.max(), closed.max()))

    results = {
        "max_sum_residual": float(worst[0]),
        "max_outcome_residual": float(worst[1]),
        "max_closed_form_residual": float(worst[2]),
        "residual_threshold": TOL.stationarity_residual,
    }
    return results, float(np.max(worst)) <= TOL.stationarity_residual, (row for rows in series for row in rows)


def cmd_spin1(args) -> Verdict:
    _, _, vectors = quantum.spin1_observables()
    # the shared m = 0 vector in both eigenbases, and its two columns
    k_z, k_x = (int(k) for k in invariance.match_eigenvector(vectors, np.eye(3)[1]))
    pair = np.column_stack([vectors[0, :, k_z], vectors[1, :, k_x]])

    amplitudes = quantum.haar_blocks(3, args.trials, args.seed) @ np.conj(pair)
    p = rules.rule_probabilities(rules.Born(), np.abs(amplitudes))
    deltas = np.abs(p[:, 0] - p[:, 1])
    results = {
        "trials": args.trials,
        "shared_eigenvector_index_jz": k_z,
        "shared_eigenvector_index_jx2_jy2": k_x,
        "max_probability_delta": float(np.max(deltas)),
        "threshold": args.tol_spread,
    }
    return results, results["max_probability_delta"] <= args.tol_spread, _rows("probability_delta", 3, deltas, (k_z,))


def cmd_sample(args) -> Verdict:
    d, seed, shots, n = args.dim, args.seed, args.shots, args.trials
    words = substreams(seed, shape=(n, 5))  # pair i's stream t is substream(seed, i, t), all derived at once
    # every pair's eigenbasis, a Haar unitary from its own stream, factored and checked as one stack;
    # it needs no spectrum, which would only label the outcomes
    bases = linalg.haar_factor(np.array([linalg.ginibre(rng, (d, d)) for rng in generators(words[:, 1])]))
    within(linalg.unitary_defect(bases), TOL.orthonormality, "eigenbases are not orthonormal: defect")

    def born(states: np.ndarray) -> np.ndarray:
        """Born probabilities of every pair's state row (n, d) in its eigenbasis, one stacked scoring (n, d)."""
        rows = np.abs(np.vecdot(bases, states[:, :, None], axis=-2))  # row i is bases[i]^dag states[i]
        quantum.check_orthant(rows)
        return rules.rule_probabilities(rules.Born(), rows)

    p = born(quantum.haar_rows(d, generators(words[:, 0])))
    counts = quantum.sample_outcomes(p, shots, generators(words[:, 2]))  # one stack, a stream per pair
    tests = [quantum.chi_square_test(counts[i], shots * p[i]) for i in range(n)]
    # a pair whose counts pool into one cell (dof 0) is not tested; the Sidak level of each tested
    # pair's test keeps the run's false-alarm rate at alpha, and with no tested pair there is no level
    tested = sum(1 for _, dof, _ in tests if dof)
    threshold = TOL.sample_p_value(tested) if tested else None
    # first outcomes, one shot each as measure() takes it, and 100 re-measurements of each collapsed column
    firsts = np.argmax(quantum.sample_outcomes(p, 1, generators(words[:, 3])), axis=-1)
    post = born(bases[np.arange(n), :, firsts])
    repeats = (quantum.sample_outcomes(post, 100, generators(words[:, 4]))[np.arange(n), firsts] == 100).tolist()
    pairs = [
        {"pair": i, "frequencies": (counts[i] / shots).tolist(), "born": p[i].tolist(),
         "chi_square": statistic, "dof": dof, "p_value": p_value, "within_3_sigma": p_value >= threshold if dof else None,
         "first_outcome": int(firsts[i]), "repeat_consistent": repeats[i]}
        for i, (statistic, dof, p_value) in enumerate(tests)
    ]
    series = ((i, d, k, f, "frequencies") for i, pair in enumerate(pairs) for k, f in enumerate(pair["frequencies"]))
    within_all = all(pair["within_3_sigma"] for pair in pairs if pair["dof"])
    results = {"pairs": pairs, "p_value_threshold": threshold, "all_within_3_sigma": within_all, "all_repeat_consistent": all(repeats)}
    if not any(dof for _, dof, _ in tests) and all(repeats):  # a failed repeat is still a failure
        results["inconclusive"] = "every pair's counts pool into one cell, so no frequency is tested; raise --shots"
    return results, within_all and all(repeats) and "inconclusive" not in results, series


def parse(argv: list[str] | None = None) -> argparse.Namespace:
    """The Namespace build_parser().parse_args(argv) gives, parsed once: a command line that starts
    with a command name goes straight to that command's parser, anything else (no command, --help,
    an unknown name) to the top-level parser, for its help or error."""
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    if argv and argv[0] in parser.commands:
        return parser.commands[argv[0]].parse_args(argv[1:])
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)

    trials = invariance.MIN_DRAWS if "rule" in args and args.rule.renormalized else COMMANDS[args.command][2]
    lows = {"seed": 0, "threads": 1, "trials": trials, "shots": 1, "dim": 2}
    for name, low in lows.items():
        if getattr(args, name, low) < low:
            args.error(f"--{name} must be at least {low}")
    # a trial's index is one 32-bit word of its stream family's address; sample's multinomial counts are int64
    highs = {"trials": 2**32, "shots": 2**63 - 1}
    for name, high in highs.items():
        if getattr(args, name, high) > high:
            args.error(f"--{name} must be at most {high}")
    if min(getattr(args, "dims", (2,))) < 2:
        args.error("--dims must be integers >= 2")

    try:
        start = time.perf_counter()
        results, passed, series = args.func(args)
        runtime_ms = (time.perf_counter() - start) * 1000.0
        report = Report(run_config(args), results, passed, series, runtime_ms)

        text = report.to_csv() if args.format == "csv" else report.to_json() + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    except (rules.DomainError, OSError) as exc:
        args.error(str(exc))
    except Exception as exc:  # a crash is not a scientific result
        print(f"bornlab: runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    return report.exit_code


def run() -> None:  # console entry point
    raise SystemExit(main())


if __name__ == "__main__":
    run()
