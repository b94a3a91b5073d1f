"""The three workloads as argv lists for ``bornlab.cli.main``, and the check
applied to each reply.

Every workload repeats a fixed round of configurations.  The workload seed
draws each invocation's ``--seed`` and the rule parameters, so the mix of
commands, dimensions, thread counts and formats, and with it the cost per
invocation, is the same for every seed.  ``--seconds`` sets the number of
rounds from the nominal round time below (measured on a 2-core x86-64 VM,
Python 3.11, numpy 2.4 with OpenBLAS), so both sides of a comparison run the
same work however fast they are.

Why these workloads:

* ``defect-scan``: plain rules through ``falsify`` at ``--threads 1``; the
  per-trial path streams -> quantum.haar_state and validation -> rules, with
  no linalg or invariance work.
* ``independence-threads``: ``independence`` and ``falsify renorm:*``, each
  at ``--threads 1`` and ``--threads 2``; the main user of linalg and
  invariance, and the only user of the thread pool.
* ``fit-and-sample``: ``recover``, ``stationarity``, ``spin1`` and ``sample``;
  large vectorized draws, large CSV reports, variational fits and the
  Jacobi eigensolver.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass

DIMS = range(2, 9)
TOL = 1e-12                # the CLI's default --tol-defect and --tol-spread
RESIDUAL_TOL = 1e-6        # stationarity residual threshold
COEFFICIENT_TOL = 1e-3     # recovered coefficients vs (0, 1, 0, 0)
ROUND_SECONDS = {"defect-scan": 3.5, "independence-threads": 5.0, "fit-and-sample": 0.5}

# Defects listed in ROADMAP item 3.  They stay in the campaign and count as
# failed invocations; they leave the run marked correct, any other miss does not.
KNOWN_DEFECTS = {
    "renorm-d2-pass": "falsify renorm:* --dim 2 reports a pass instead of inconclusive",
    "sample-false-alarm": "sample fails its uncorrected per-cell 3-sigma bands on a correct sampler",
}


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    twin: int = -1  # earlier --threads 1 invocation whose results must match, or -1


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(2**31))


def _defect_round(rng: random.Random) -> list[Invocation]:
    p_low = round(rng.uniform(0.5, 1.9), 3)
    p_high = round(rng.uniform(2.1, 4.0), 3)
    out = []
    for d in DIMS:
        offset = rng.randint(1, 8) / 64           # s + d*m = 1 holds exactly in binary
        scale = 1.0 - d * offset
        shifted = scale + rng.choice((-1, 1)) * rng.randint(1, 8) / 16
        for rule in ("born", f"power:{p_low!r}", f"power:{p_high!r}",
                     f"affine:{scale!r}:{offset!r}", f"affine:{shifted!r}:{offset!r}"):
            out.append(Invocation(("falsify", "--rule", rule, "--dim", str(d),
                                   "--seed", _seed(rng), "--threads", "1")))
    return out


def _independence_round(rng: random.Random, start: int) -> list[Invocation]:
    p_low = round(rng.uniform(0.5, 1.9), 3)
    p_high = round(rng.uniform(2.1, 4.0), 3)
    out: list[Invocation] = []
    for d in DIMS:
        # --trials 100 is the README scale of independence; at the falsify
        # default of 1000 a run would hold too few invocations for a p90.
        for argv in (("independence", "--rule", "born"),
                     ("falsify", "--rule", f"renorm:power:{p_low!r}", "--trials", "100"),
                     ("falsify", "--rule", f"renorm:power:{p_high!r}", "--trials", "100")):
            argv += ("--dim", str(d), "--seed", _seed(rng))
            out.append(Invocation(argv + ("--threads", "1")))
            out.append(Invocation(argv + ("--threads", "2"), twin=start + len(out) - 1))
    return out


def _fit_round(rng: random.Random, index: int) -> list[Invocation]:
    fmt = ("--format", "csv") if index % 2 else ()
    return [
        Invocation(("recover", "--seed", _seed(rng)) + fmt),
        Invocation(("stationarity", "--seed", _seed(rng)) + fmt),
        Invocation(("spin1", "--seed", _seed(rng)) + fmt),
        Invocation(("sample", "--seed", _seed(rng))),
    ]


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def build(workload: str, seed: int, rounds: int) -> list[Invocation]:
    """The campaign of one workload: ``rounds`` rounds drawn from ``seed``."""
    rng = random.Random(f"{workload}/{seed}")
    out: list[Invocation] = []
    for index in range(rounds):
        if workload == "defect-scan":
            out += _defect_round(rng)
        elif workload == "independence-threads":
            out += _independence_round(rng, len(out))
        elif workload == "fit-and-sample":
            out += _fit_round(rng, index)
        else:
            raise ValueError(f"unknown workload {workload!r}")
    return out


def _option(argv: tuple[str, ...], flag: str, default: str | None = None) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else default


def results_payload(argv: tuple[str, ...], text: str) -> str:
    """The part of a report that must not depend on timing or thread count."""
    if _option(argv, "--format") == "csv":
        return text
    return json.dumps(json.loads(text)["results"], sort_keys=True)


def _csv_values(text: str) -> list[float]:
    return [float(row["value"]) for row in csv.DictReader(io.StringIO(text))]


def check(argv: tuple[str, ...], code: int, text: str) -> str:
    """Classify one reply: "ok", a KNOWN_DEFECTS key, or "unexpected: <why>"."""
    command = argv[0]
    is_csv = _option(argv, "--format") == "csv"
    results = None if is_csv else json.loads(text)["results"]
    if command == "falsify":
        return _check_falsify(argv, code, results)
    if command == "independence":
        ok = code == 0 and results["max_spread"] <= TOL
        return "ok" if ok else f"unexpected: exit {code}, spread {results['max_spread']!r}"
    if command == "recover":
        coefficients = _csv_values(text) if is_csv else results["recovery"]["coefficients"]
        error = max(abs(c - t) for c, t in zip(coefficients, (0.0, 1.0, 0.0, 0.0)))
        ok = code == 0 and len(coefficients) == 4 and error <= COEFFICIENT_TOL
        return "ok" if ok else f"unexpected: exit {code}, coefficient error {error!r}"
    if command == "stationarity":
        worst = max(_csv_values(text)) if is_csv else max(
            results["max_sum_residual"], results["max_outcome_residual"])
        ok = code == 0 and worst <= RESIDUAL_TOL
        return "ok" if ok else f"unexpected: exit {code}, residual {worst!r}"
    if command == "spin1":
        worst = max(_csv_values(text)) if is_csv else results["max_probability_delta"]
        ok = code == 0 and worst <= TOL
        return "ok" if ok else f"unexpected: exit {code}, delta {worst!r}"
    if command == "sample":
        if code == 0 and results["all_within_3_sigma"] and results["all_repeat_consistent"]:
            return "ok"
        if code == 1 and results["all_repeat_consistent"]:
            return "sample-false-alarm"
        return f"unexpected: exit {code}, repeat consistent {results['all_repeat_consistent']}"
    return f"unexpected: no check for {command}"


def _check_falsify(argv: tuple[str, ...], code: int, results: dict) -> str:
    rule = _option(argv, "--rule")
    d = int(_option(argv, "--dim"))
    falsified = results["falsified"]
    max_defect = results["defect"]["max_defect"]
    if rule.startswith("renorm:"):
        if d == 2:
            return "ok" if falsified is None else "renorm-d2-pass"
        ok = code == 1 and falsified is True
        return "ok" if ok else f"unexpected: exit {code}, falsified {falsified}"
    kind, *params = rule.split(":")
    if kind == "born":
        expected, bound = False, TOL
    elif kind == "power":
        # the symmetric state sets the extreme of sum a_i^p on the unit orthant
        expected, bound = True, abs(d ** (1.0 - float(params[0]) / 2.0) - 1.0) + TOL
    else:
        # sum_i (s a_i^2 + m) - 1 = s + d m - 1 for every state
        exact = abs(float(params[0]) + d * float(params[1]) - 1.0)
        expected, bound = exact > TOL, exact + 1e-9
        if expected and max_defect < exact - 1e-9:
            return f"unexpected: defect {max_defect!r} below the closed form {exact!r}"
    ok = code == (1 if expected else 0) and falsified is expected and max_defect <= bound
    return "ok" if ok else f"unexpected: exit {code}, falsified {falsified}, defect {max_defect!r}"
