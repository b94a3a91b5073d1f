"""Reproducible command-line front end for the experiment suites.

Every command echoes its configuration, emits a machine-readable report,
and derives its verdict from the serialized results and thresholds alone,
so a reader can re-check the pass flag.  Exit codes: 0 every check passed,
1 a scientific check failed (or a rule was falsified, the expected outcome
for non-quadratic rules), 2 usage, domain or I/O error, 3 inconclusive (the
configuration cannot separate the rule from the quadratic one), 4 runtime
failure (any other exception, one line on stderr: a crash is not a verdict).

Reports are byte-identical across reruns with the same seed, because every
random draw comes from a substream addressed by (seed, trial index) rather
than from shared generator state.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import invariance, quantum, rules, variational
from .quantum import haar_state, moduli
from .streams import subseed, substream
from .tolerances import TOL


# the configuration a report echoes, in order: every name the command registers
ECHO = ("command", "seed", "dims", "dim", "trials", "shots", "rule", "tol_defect", "tol_spread", "format", "out")


def run_config(args: argparse.Namespace) -> dict:
    """The echo of a parsed command line: every ECHO name it registers, minus None."""
    echo = {name: getattr(args, name) for name in ECHO if getattr(args, name, None) is not None}
    if "rule" in echo:
        echo["rule"] = echo["rule"].name
    return echo


Verdict = tuple[dict, bool, list[tuple]]  # what a command returns: results, pass, CSV series


@dataclass
class Report:
    config: dict
    results: dict
    passed: bool
    series: list[tuple]  # (index, d, k, value) rows
    runtime_ms: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema_version": "1",
                "command": self.config["command"],
                "config": self.config,
                "results": self.results,
                "pass": self.passed,
                "runtime_ms": self.runtime_ms,
            },
            indent=2,
        )

    @property
    def exit_code(self) -> int:
        if self.passed:
            return 0
        return 3 if "inconclusive" in self.results else 1

    def to_csv(self) -> str:
        cell = lambda x: "" if x is None else x
        rows = "".join(f"{index},{cell(d)},{cell(k)},{float(value)!r}\n" for index, d, k, value in self.series)
        return "index,d,k,value\n" + rows


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dimension list {text!r}")


def _parse_rule(text: str) -> rules.ProbabilityRule:
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


def _min_trials(args: argparse.Namespace) -> int:
    """Fewest --trials a command can run with."""
    if args.command == "recover":
        return variational.MIN_SAMPLES
    if args.command == "independence" or isinstance(getattr(args, "rule", None), rules.Renormalized):
        return invariance.MIN_DRAWS
    return 1


def _dispatch(args: argparse.Namespace) -> Verdict:
    """Run the parsed command's cmd_* function, looked up at call time: the
    parser is built once per process, so a function rebound after that (a
    test's patch, a tracer's wrapper) is still the one that runs."""
    return globals()["cmd_" + args.command.replace("-", "_")](args)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    call: parse_args does not change it, and callers must not either."""
    parser = argparse.ArgumentParser(
        prog="bornlab",
        description="Seeded numerical experiments on measurement probability rules.",
    )
    parser.set_defaults(func=_dispatch)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *tolerances: str) -> None:
        p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
        for name in tolerances:  # only on commands whose verdict reads them
            p.add_argument(f"--tol-{name}", type=_parse_tolerance, default=getattr(TOL, name))
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--out", default=None, help="write the report to this path")
        p.add_argument("--threads", type=int, default=1, help="accepted for compatibility; has no effect")

    p = sub.add_parser("verify-born", help="normalization and observable-independence checks for the quadratic rule")
    p.add_argument("--dims", type=_parse_dims, default=(2, 3, 4, 5, 6, 7, 8))
    p.add_argument("--trials", type=int, default=10_000)
    add_common(p, "defect", "spread")

    p = sub.add_parser("falsify", help="defect and independence falsifiers for a candidate rule")
    p.add_argument("--rule", type=_parse_rule, required=True)
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--trials", type=int, default=1000)
    add_common(p, "defect", "spread")

    p = sub.add_parser("independence", help="observable- and rotation-independence scans for one rule")
    p.add_argument("--rule", type=_parse_rule, default="born")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--trials", type=int, default=100, help="draws per scan")
    add_common(p, "spread")

    p = sub.add_parser("recover", help="least-squares recovery of the unique normalizable rule")
    p.add_argument("--dims", type=_parse_dims, default=(2, 3))
    p.add_argument("--trials", type=int, default=500, help="samples per dimension")
    add_common(p)

    p = sub.add_parser("stationarity", help="Lagrange stationarity residuals of the square and of the closed-form family")
    p.add_argument("--dims", type=_parse_dims, default=(3,))
    p.add_argument("--trials", type=int, default=1000, help="orthant points per dimension")
    add_common(p)

    p = sub.add_parser("spin1", help="two spin-1 observables sharing the m=0 eigenvector assign it equal probability")
    p.add_argument("--trials", type=int, default=1000, help="random states")
    add_common(p, "spread")

    p = sub.add_parser("sample", help="Monte-Carlo measurement: frequencies vs probabilities, collapse repeatability")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--shots", type=int, default=100_000)
    p.add_argument("--trials", type=int, default=10, help="random (state, observable) pairs")
    add_common(p)

    return parser


Check = tuple[dict, list[tuple], float, list[float]]  # results entries, CSV rows, statistic, witness


def _defect_check(rule, d: int, trials: int, seed: int, *address: int) -> Check:
    """The normalization-defect scan of rule at d, run at subseed(seed, *address).

    Returns its results entry, one CSV row per trial, the largest defect and
    the worst state's moduli.
    """
    scan = rules.defect_scan(rule, d, trials, subseed(seed, *address))
    series = [(i, d, None, scan.defects[i]) for i in range(scan.trials)]
    return {"defect": scan.as_dict()}, series, scan.max_defect, [float(x) for x in scan.argmax_state.moduli]


def _independence_check(rule, d: int, draws: int, seed: int, *address: int, first: int = 0) -> Check:
    """Both independence scans of rule at d, on streams (seed, *address, first..first+3).

    The observable scan measures psi (substream first) at the outcome phi
    (substream first + 1); the rotation scan resamples the complement of
    psi's own a_0.  Returns their results entries, CSV rows, the larger
    spread (the observable scan's on a tie) and that scan's [min p, max p].
    """
    psi = haar_state(d, substream(seed, *address, first))
    phi = haar_state(d, substream(seed, *address, first + 1))
    obs_scan = invariance.observable_independence_scan(psi, phi, rule, draws, subseed(seed, *address, first + 2))
    point = moduli(psi.amplitudes)
    rot_scan = invariance.unobserved_independence_scan(point, rule, draws, subseed(seed, *address, first + 3))
    results = {"observable_scan": obs_scan.as_dict(), "rotation_scan": rot_scan.as_dict()}
    if d == 2 and isinstance(rule, rules.Renormalized):
        # the complement orthant is a single point, so both spreads vanish
        # for every rule: the d=2 gap of Gleason's theorem
        results["inconclusive"] = "at d=2 both independence spreads vanish for every rule; use --dim 3 or more"
    elif not isinstance(rule, (rules.Born, rules.Renormalized)):  # p_k = f(a_k): a_k is what both scans fix
        results["inconclusive"] = "both independence spreads vanish for every plain rule; use falsify for its defect"
    series = [(i, d, None, p) for i, p in enumerate(obs_scan.p_values)]
    series += [(i, d, 0, p) for i, p in enumerate(rot_scan.p_values)]
    worst = obs_scan if obs_scan.spread >= rot_scan.spread else rot_scan
    return results, series, worst.spread, [float(np.min(worst.p_values)), float(np.max(worst.p_values))]


def cmd_verify_born(args) -> Verdict:
    born = rules.Born()
    per_dim = []
    series: list[tuple] = []
    pairs, draws = 10, 100

    for di, d in enumerate(args.dims):
        defect, rows, _, _ = _defect_check(born, d, args.trials, args.seed, di, 0)
        series += rows
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
    return results, passed, series


def cmd_falsify(args) -> Verdict:
    rule, d = args.rule, args.dim
    defect, series, max_defect, witness = _defect_check(rule, d, args.trials, args.seed, 0)
    thresholds = {"defect": args.tol_defect, "spread": args.tol_spread}
    results: dict = {"rule": rule.name, "dim": d, **defect, "thresholds": thresholds}
    falsified = max_defect > args.tol_defect

    if isinstance(rule, rules.Renormalized):
        scans, rows, spread, spread_witness = _independence_check(rule, d, args.trials, args.seed, first=1)
        results.update(scans)
        series += rows
        if "inconclusive" in results:
            falsified = None
        elif spread > args.tol_spread:
            falsified, witness = True, spread_witness

    results["falsified"] = falsified
    results["witness"] = witness if falsified else None
    return results, falsified is False, series


def cmd_independence(args) -> Verdict:
    results, series, spread, _ = _independence_check(args.rule, args.dim, args.trials, args.seed)
    results.update(max_spread=spread, threshold=args.tol_spread)
    return results, spread <= args.tol_spread and "inconclusive" not in results, series


def cmd_recover(args) -> Verdict:
    coefficients, objective, sample_count = variational.recover_rule(args.dims, args.trials, args.seed)
    target = [0.0, 1.0, 0.0, 0.0]
    error = float(np.max(np.abs(coefficients - target)))
    results = {
        "recovery": {
            "coefficients": [float(c) for c in coefficients],
            "objective_value": objective,
            "sample_count": sample_count,
            "dims_used": list(args.dims),
            "seed": args.seed,
        },
        "target": target,
        "max_coefficient_error": error,
        "coefficient_threshold": TOL.coefficient_error,
    }
    series = [(n + 1, None, None, c) for n, c in enumerate(coefficients)]
    return results, error <= TOL.coefficient_error, series


def cmd_stationarity(args) -> Verdict:
    born = rules.Born()
    probabilities = functools.partial(rules.rule_probabilities, born)
    series: list[tuple] = []
    worst = np.zeros(3)  # sum-form, outcome-form and closed-form residuals
    for di, d in enumerate(args.dims):
        rows = np.abs(quantum.haar_blocks(d, args.trials, args.seed, di))
        ks = np.arange(args.trials) % d
        sum_res = np.max(np.abs(variational.rule_stationarity(born, rows, 1.0)), axis=-1)
        out_res = np.max(np.abs(variational.outcome_stationarity(probabilities, rows, ks, 0.0)), axis=-1)
        closed = variational.closed_form_check(rows, ks, 2.0, -1.0)
        residuals = np.column_stack(np.broadcast_arrays(sum_res, out_res, closed))
        series.extend((i, d, i % d, value) for i, value in enumerate(np.max(residuals, axis=1)))
        worst = np.maximum(worst, np.max(residuals, axis=0))

    results = {
        "max_sum_residual": float(worst[0]),
        "max_outcome_residual": float(worst[1]),
        "max_closed_form_residual": float(worst[2]),
        "residual_threshold": TOL.stationarity_residual,
    }
    return results, float(np.max(worst)) <= TOL.stationarity_residual, series


def cmd_spin1(args) -> Verdict:
    _, _, vectors = quantum.spin1_observables()
    # the shared m = 0 vector in both eigenbases, and its two columns
    k_z, k_x = (int(k) for k in invariance.match_eigenvector(vectors, np.eye(3)[1]))
    pair = np.column_stack([vectors[0, :, k_z], vectors[1, :, k_x]])

    p = np.abs(quantum.haar_blocks(3, args.trials, args.seed) @ np.conj(pair)) ** 2
    deltas = np.abs(p[:, 0] - p[:, 1])
    results = {
        "trials": args.trials,
        "shared_eigenvector_index_jz": k_z,
        "shared_eigenvector_index_jx2_jy2": k_x,
        "max_probability_delta": float(np.max(deltas)),
        "threshold": args.tol_spread,
    }
    series = [(i, 3, k_z, delta) for i, delta in enumerate(deltas)]
    return results, results["max_probability_delta"] <= args.tol_spread, series


def cmd_sample(args) -> Verdict:
    d, seed = args.dim, args.seed
    # every pair's observable, drawn from its own stream and assembled as one stack
    _, _, bases = quantum.random_observables(d, (substream(seed, i, 1) for i in range(args.trials)))
    pairs = []
    series: list[tuple] = []
    for i, vectors in enumerate(bases):
        psi = haar_state(d, substream(seed, i, 0))
        counts = quantum.sample_outcomes(psi, vectors, args.shots, substream(seed, i, 2))
        frequencies = counts / args.shots
        p = quantum.born_probabilities(psi, vectors)
        sigma = np.sqrt(p * (1.0 - p) / args.shots)
        within = bool(np.all(np.abs(frequencies - p) <= 3.0 * sigma))

        first, post_state = quantum.measure(psi, vectors, substream(seed, i, 3))
        # 100 re-measurements of the collapsed state, by measure()'s draw rule
        repeat_ok = bool(quantum.sample_outcomes(post_state, vectors, 100, substream(seed, i, 4))[first] == 100)
        pairs.append(
            {
                "pair": i,
                "frequencies": [float(x) for x in frequencies],
                "born": [float(x) for x in p],
                "within_3_sigma": within,
                "first_outcome": first,
                "repeat_consistent": repeat_ok,
            }
        )
        series.extend((i, d, k, frequencies[k]) for k in range(d))

    results = {
        "pairs": pairs,
        "all_within_3_sigma": all(pair["within_3_sigma"] for pair in pairs),
        "all_repeat_consistent": all(pair["repeat_consistent"] for pair in pairs),
    }
    return results, results["all_within_3_sigma"] and results["all_repeat_consistent"], series


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    lows = {"seed": 0, "threads": 1, "trials": _min_trials(args), "shots": 1, "dim": 2}
    for name, low in lows.items():
        if getattr(args, name, low) < low:
            parser.error(f"--{name} must be at least {low}")
    if min(getattr(args, "dims", (2,))) < 2:
        parser.error("--dims must be integers >= 2")

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
        parser.error(str(exc))
    except Exception as exc:  # a crash is not a scientific result
        print(f"bornlab: runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    return report.exit_code


def run() -> None:  # console entry point
    raise SystemExit(main())


if __name__ == "__main__":
    run()
