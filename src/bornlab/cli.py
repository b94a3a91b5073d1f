"""Reproducible command-line front end for the experiment suites.

Every command echoes its configuration, emits a machine-readable report,
and derives its verdict from the serialized results and thresholds alone,
so a reader can re-check the pass flag.  Exit codes: 0 every check passed,
1 a scientific check failed (or a rule was falsified, the expected outcome
for non-quadratic rules), 2 usage, domain or I/O error, 3 inconclusive (the
configuration cannot separate the rule from the quadratic one).

Reports are byte-identical across reruns with the same seed, and across
thread counts, because every random draw comes from a substream addressed
by (seed, trial index) rather than from shared generator state.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import invariance, quantum, rules, variational
from .quantum import StateVector, haar_state, moduli
from .streams import subseed, substream
from .tolerances import TOL


@dataclass(frozen=True)
class RunConfig:
    """Echo of everything that determines a command's results payload."""

    command: str
    seed: int
    dims: tuple[int, ...] | None = None
    dim: int | None = None
    trials: int | None = None
    shots: int | None = None
    rule: str | None = None
    tol_defect: float | None = None
    tol_spread: float | None = None
    format: str = "json"
    out: str | None = None

    def as_dict(self) -> dict:
        return {key: value for key, value in asdict(self).items() if value is not None}


@dataclass
class Report:
    command: str
    config: RunConfig
    results: dict
    passed: bool
    runtime_ms: float
    series: list[tuple] = field(default_factory=list)  # (index, d, k, value) rows

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema_version": "1",
                "command": self.command,
                "config": self.config.as_dict(),
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
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["index", "d", "k", "value"])
        for index, d, k, value in self.series:
            writer.writerow([index, d, "" if k is None else k, repr(float(value))])
        return buffer.getvalue()


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dimension list {text!r}")
    return dims


def _parse_rule(text: str) -> rules.ProbabilityRule:
    try:
        return rules.parse_rule(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bornlab",
        description="Seeded numerical experiments on measurement probability rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
        p.add_argument("--tol-defect", type=float, default=TOL.defect)
        p.add_argument("--tol-spread", type=float, default=TOL.spread)
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--out", default=None, help="write the report to this path")
        p.add_argument("--threads", type=int, default=1)

    p = sub.add_parser("verify-born", help="normalization, independence, and phase checks for the quadratic rule")
    p.add_argument("--dims", type=_parse_dims, default=(2, 3, 4, 5, 6, 7, 8))
    p.add_argument("--trials", type=int, default=10_000)
    add_common(p)
    p.set_defaults(func=cmd_verify_born)

    p = sub.add_parser("falsify", help="defect and independence falsifiers for a candidate rule")
    p.add_argument("--rule", type=_parse_rule, required=True)
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--trials", type=int, default=1000)
    add_common(p)
    p.set_defaults(func=cmd_falsify)

    p = sub.add_parser("independence", help="observable- and rotation-independence scans for one rule")
    p.add_argument("--rule", type=_parse_rule, default="born")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--trials", type=int, default=100, help="draws per scan")
    add_common(p)
    p.set_defaults(func=cmd_independence)

    p = sub.add_parser("recover", help="least-squares recovery of the unique normalizable rule")
    p.add_argument("--dims", type=_parse_dims, default=(2, 3))
    p.add_argument("--trials", type=int, default=500, help="samples per dimension")
    add_common(p)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("stationarity", help="Lagrange stationarity residuals and the closed-form fit")
    p.add_argument("--dims", type=_parse_dims, default=(3,))
    p.add_argument("--trials", type=int, default=1000, help="orthant points per dimension")
    add_common(p)
    p.set_defaults(func=cmd_stationarity)

    p = sub.add_parser("spin1", help="two spin-1 observables sharing the m=0 eigenvector assign it equal probability")
    p.add_argument("--trials", type=int, default=1000, help="random states")
    add_common(p)
    p.set_defaults(func=cmd_spin1)

    p = sub.add_parser("sample", help="Monte-Carlo measurement: frequencies vs probabilities, collapse repeatability")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--shots", type=int, default=100_000)
    p.add_argument("--trials", type=int, default=10, help="random (state, observable) pairs")
    add_common(p)
    p.set_defaults(func=cmd_sample)

    return parser


def cmd_verify_born(args) -> Report:
    config = RunConfig(
        command="verify-born", seed=args.seed, dims=tuple(args.dims),
        trials=args.trials, tol_defect=args.tol_defect, tol_spread=args.tol_spread,
        format=args.format, out=args.out,
    )
    born = rules.Born()
    per_dim = []
    series: list[tuple] = []
    max_defect = 0.0
    max_spread = 0.0
    pairs, draws, phase_checks = 10, 100, 100

    for di, d in enumerate(args.dims):
        scan = rules.defect_scan(born, d, args.trials, subseed(args.seed, di, 0), args.threads)
        series.extend((i, d, None, scan.defects[i]) for i in range(scan.trials))

        spreads = []
        for pair in range(pairs):
            psi = haar_state(d, substream(args.seed, di, 1, pair, 0))
            phi = haar_state(d, substream(args.seed, di, 1, pair, 1))
            report = invariance.observable_independence_scan(
                psi, phi, born, draws, subseed(args.seed, di, 1, pair), args.threads
            )
            spreads.append(report.spread)

        phase_max = 0.0
        for check in range(phase_checks):
            rng = substream(args.seed, di, 2, check)
            observable = quantum.random_observable(d, rng)
            psi = haar_state(d, rng)
            base = quantum.probabilities(psi, observable, born)
            vectors = observable.eigensystem.eigenvectors
            phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=d))
            conjugated = StateVector((vectors * phases) @ (vectors.conj().T @ psi.amplitudes))
            shifted = quantum.probabilities(conjugated, observable, born)
            phase_max = max(phase_max, float(np.max(np.abs(shifted - base))))

        per_dim.append(
            {
                "dim": d,
                "defect": scan.as_dict(),
                "independence_pairs": pairs,
                "independence_draws": draws,
                "independence_max_spread": max(spreads),
                "phase_checks": phase_checks,
                "phase_max_delta": phase_max,
            }
        )
        max_defect = max(max_defect, scan.max_defect)
        max_spread = max(max_spread, max(spreads), phase_max)

    results = {
        "per_dim": per_dim,
        "max_defect": max_defect,
        "max_spread": max_spread,
        "thresholds": {"defect": args.tol_defect, "spread": args.tol_spread},
    }
    passed = max_defect <= args.tol_defect and max_spread <= args.tol_spread
    return Report("verify-born", config, results, passed, 0.0, series)


def cmd_falsify(args) -> Report:
    rule = args.rule
    config = RunConfig(
        command="falsify", seed=args.seed, dim=args.dim, trials=args.trials,
        rule=rule.name, tol_defect=args.tol_defect, tol_spread=args.tol_spread,
        format=args.format, out=args.out,
    )
    d = args.dim
    scan = rules.defect_scan(rule, d, args.trials, subseed(args.seed, 0), args.threads)
    series = [(i, d, None, scan.defects[i]) for i in range(scan.trials)]
    results: dict = {
        "rule": rule.name,
        "dim": d,
        "defect": scan.as_dict(),
        "thresholds": {"defect": args.tol_defect, "spread": args.tol_spread},
    }
    falsified = scan.max_defect > args.tol_defect
    witness: list[float] | None = (
        [float(x) for x in scan.argmax_state.moduli] if falsified else None
    )

    if isinstance(rule, rules.Renormalized):
        psi = haar_state(d, substream(args.seed, 1))
        phi = haar_state(d, substream(args.seed, 2))
        obs_scan = invariance.observable_independence_scan(
            psi, phi, rule, args.trials, subseed(args.seed, 3), args.threads
        )
        point = moduli(haar_state(d, substream(args.seed, 4)).amplitudes)
        rot_scan = invariance.unobserved_independence_scan(
            point, 0, rule, args.trials, subseed(args.seed, 5), args.threads
        )
        results["observable_scan"] = obs_scan.as_dict()
        results["rotation_scan"] = rot_scan.as_dict()
        series.extend((i, d, None, p) for i, p in enumerate(obs_scan.p_values))
        series.extend((i, d, 0, p) for i, p in enumerate(rot_scan.p_values))
        if d == 2:
            # the complement orthant is a single point, so both spreads
            # vanish for every rule: the d=2 gap of Gleason's theorem
            falsified = None
            witness = None
            results["inconclusive"] = (
                "at d=2 both independence spreads vanish for every rule; "
                "use --dim 3 or more"
            )
        elif obs_scan.spread > args.tol_spread or rot_scan.spread > args.tol_spread:
            falsified = True
            worst = obs_scan if obs_scan.spread >= rot_scan.spread else rot_scan
            witness = [float(p) for p in (np.min(worst.p_values), np.max(worst.p_values))]

    results["falsified"] = falsified
    results["witness"] = witness
    return Report("falsify", config, results, falsified is False, 0.0, series)


def cmd_independence(args) -> Report:
    rule = args.rule
    config = RunConfig(
        command="independence", seed=args.seed, dim=args.dim, trials=args.trials,
        rule=rule.name, tol_spread=args.tol_spread, format=args.format, out=args.out,
    )
    d = args.dim
    psi = haar_state(d, substream(args.seed, 0))
    phi = haar_state(d, substream(args.seed, 1))
    obs_scan = invariance.observable_independence_scan(
        psi, phi, rule, args.trials, subseed(args.seed, 2), args.threads
    )
    point = moduli(psi.amplitudes)
    rot_scan = invariance.unobserved_independence_scan(
        point, 0, rule, args.trials, subseed(args.seed, 3), args.threads
    )
    results = {
        "observable_scan": obs_scan.as_dict(),
        "rotation_scan": rot_scan.as_dict(),
        "max_spread": max(obs_scan.spread, rot_scan.spread),
        "threshold": args.tol_spread,
    }
    series = [(i, d, None, p) for i, p in enumerate(obs_scan.p_values)]
    series += [(i, d, 0, p) for i, p in enumerate(rot_scan.p_values)]
    passed = results["max_spread"] <= args.tol_spread
    return Report("independence", config, results, passed, 0.0, series)


def cmd_recover(args) -> Report:
    config = RunConfig(
        command="recover", seed=args.seed, dims=tuple(args.dims),
        trials=args.trials, format=args.format, out=args.out,
    )
    result = variational.recover_rule(args.dims, args.trials, args.seed)
    target = np.array([0.0, 1.0, 0.0, 0.0])
    error = float(np.max(np.abs(result.candidate.coefficients - target)))
    results = {
        "recovery": result.as_dict(),
        "target": [0.0, 1.0, 0.0, 0.0],
        "max_coefficient_error": error,
        "coefficient_threshold": TOL.coefficient_error,
    }
    series = [(n + 1, None, None, c) for n, c in enumerate(result.candidate.coefficients)]
    return Report("recover", config, results, error <= TOL.coefficient_error, 0.0, series)


def cmd_stationarity(args) -> Report:
    config = RunConfig(
        command="stationarity", seed=args.seed, dims=tuple(args.dims),
        trials=args.trials, format=args.format, out=args.out,
    )
    born = rules.Born()
    max_sum_residual = 0.0
    max_outcome_residual = 0.0
    series: list[tuple] = []
    for di, d in enumerate(args.dims):
        for i in range(args.trials):
            point = moduli(haar_state(d, substream(args.seed, di, i)).amplitudes)
            sum_res = variational.rule_stationarity(born, point, 1.0).max_abs
            k = i % d
            out_res = variational.outcome_stationarity(
                rules.outcome_function(born, k), point, k, 0.0
            ).max_abs
            series.append((i, d, k, max(sum_res, out_res)))
            max_sum_residual = max(max_sum_residual, sum_res)
            max_outcome_residual = max(max_outcome_residual, out_res)

    closed = variational.closed_form_check(2.0, -1.0, args.trials, subseed(args.seed, 99))
    fits_exact = (
        closed.direct_scale == 1.0
        and closed.direct_offset == 0.0
        and closed.complement_scale == -1.0
        and closed.complement_offset == 1.0
    )
    results = {
        "max_sum_residual": max_sum_residual,
        "max_outcome_residual": max_outcome_residual,
        "residual_threshold": TOL.stationarity_residual,
        "closed_form": closed.as_dict(),
        "deviation_threshold": TOL.closed_form_deviation,
        "fits_exact": fits_exact,
    }
    passed = (
        max_sum_residual <= TOL.stationarity_residual
        and max_outcome_residual <= TOL.stationarity_residual
        and closed.max_deviation <= TOL.closed_form_deviation
        and fits_exact
    )
    return Report("stationarity", config, results, passed, 0.0, series)


def cmd_spin1(args) -> Report:
    config = RunConfig(
        command="spin1", seed=args.seed, trials=args.trials,
        tol_spread=args.tol_spread, format=args.format, out=args.out,
    )
    jz = quantum.spin1_jz()
    jxy = quantum.spin1_jx2_minus_jy2()
    shared = StateVector(np.array([0.0, 1.0, 0.0], dtype=complex))
    k_z = invariance.match_eigenvector(jz, shared)
    k_x = invariance.match_eigenvector(jxy, shared)
    max_delta = 0.0
    series: list[tuple] = []
    for i in range(args.trials):
        psi = haar_state(3, substream(args.seed, i))
        p_z = quantum.born_probabilities(psi, jz)[k_z]
        p_x = quantum.born_probabilities(psi, jxy)[k_x]
        delta = abs(float(p_z - p_x))
        series.append((i, 3, k_z, delta))
        max_delta = max(max_delta, delta)
    results = {
        "trials": args.trials,
        "shared_eigenvector_index_jz": k_z,
        "shared_eigenvector_index_jx2_jy2": k_x,
        "max_probability_delta": max_delta,
        "threshold": args.tol_spread,
    }
    return Report("spin1", config, results, max_delta <= args.tol_spread, 0.0, series)


def cmd_sample(args) -> Report:
    config = RunConfig(
        command="sample", seed=args.seed, dim=args.dim, trials=args.trials,
        shots=args.shots, format=args.format, out=args.out,
    )
    d = args.dim
    pairs = []
    series: list[tuple] = []
    all_within = True
    all_repeat = True
    for i in range(args.trials):
        psi = haar_state(d, substream(args.seed, i, 0))
        observable = quantum.random_observable(d, substream(args.seed, i, 1))
        counts = quantum.sample_outcomes(psi, observable, args.shots, substream(args.seed, i, 2))
        frequencies = counts / args.shots
        p = quantum.born_probabilities(psi, observable)
        sigma = np.sqrt(p * (1.0 - p) / args.shots)
        within = bool(np.all(np.abs(frequencies - p) <= 3.0 * sigma))

        record = quantum.measure(psi, observable, substream(args.seed, i, 3))
        repeat_rng = substream(args.seed, i, 4)
        repeat_ok = all(
            quantum.measure(record.post_state, observable, repeat_rng).outcome_index
            == record.outcome_index
            for _ in range(100)
        )
        pairs.append(
            {
                "pair": i,
                "frequencies": [float(x) for x in frequencies],
                "born": [float(x) for x in p],
                "within_3_sigma": within,
                "first_outcome": record.outcome_index,
                "repeat_consistent": repeat_ok,
            }
        )
        series.extend((i, d, k, frequencies[k]) for k in range(d))
        all_within = all_within and within
        all_repeat = all_repeat and repeat_ok

    results = {
        "pairs": pairs,
        "all_within_3_sigma": all_within,
        "all_repeat_consistent": all_repeat,
    }
    return Report("sample", config, results, all_within and all_repeat, 0.0, series)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if getattr(args, "threads", 1) < 1:
        parser.error("--threads must be at least 1")
    if getattr(args, "trials", 1) < 1:
        parser.error("--trials must be at least 1")
    if getattr(args, "shots", 1) < 1:
        parser.error("--shots must be at least 1")
    if getattr(args, "dims", None) is not None and min(args.dims) < 2:
        parser.error("dimensions must be integers >= 2")
    if getattr(args, "dim", None) is not None and args.dim < 2:
        parser.error("--dim must be at least 2")

    try:
        start = time.perf_counter()
        report = args.func(args)
        report.runtime_ms = (time.perf_counter() - start) * 1000.0

        text = report.to_csv() if args.format == "csv" else report.to_json()
        if not text.endswith("\n"):
            text += "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    except (rules.DomainError, OSError) as exc:
        parser.error(str(exc))
    return report.exit_code


def run() -> None:  # console entry point
    raise SystemExit(main())


if __name__ == "__main__":
    run()
