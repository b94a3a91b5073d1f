#!/usr/bin/env python3
"""Tabulate which candidate rules survive falsify's checks, rule by rule and d by d.

Each cell is one cli.FALSIFIERS row run as falsify runs it: rule R's cells at d
replay with `bornlab falsify --rule R --dim d --seed s --trials t`.  A power:p
defect cell also gives its worst defect |d^(1-p/2) - 1|, at the symmetric state.
Exits 1 if a spelling of the quadratic rule fails a cell.
"""

import argparse
import contextlib
import csv
import dataclasses
import sys

from bornlab import cli, invariance, rules
from bornlab.tolerances import TOL

POWERS = [f"power:{0.5 + 0.25 * i!r}" for i in range(15)]  # 0.5 ... 4 in steps of 0.25
# s + d*m = 1 at d = 2, 3 and 4; the last, on the line at d = 4, gives p_k = 0.5 - a_k^2 < 0 once a_k > 0.71
AFFINE = ["affine:0.5:0.25", "affine:0.7:0.1", "affine:0.5:0.125", "affine:-1:0.5"]
RENORM = ["born", "power:1", "power:2.1", "power:4", "power:100", "power:1e-13", "affine:1:0.1", "affine:0:1"]
RULES = ["born"] + POWERS + AFFINE + [f"renorm:{base}" for base in RENORM]


def cells(rule: rules.Rule, d: int, trials: int, seed: int):
    """Per FALSIFIERS row: check, statistic, tolerance, verdict and reference (None where none)."""
    outcomes = cli.run_falsifiers(rule, d, trials, seed, dataclasses.asdict(TOL))
    for (check, *_), outcome in zip(cli.FALSIFIERS, outcomes):
        name = check.__name__.strip("_").removesuffix("_check")
        statistic, tolerance = (outcome[0][2], outcome[1]) if outcome else (None, None)
        power = name == "defect" and rule.name.startswith("power:")  # power:p's one term is (1, p)
        reference = abs(d ** (1.0 - rule.terms[0][1] / 2.0) - 1.0) if power else None
        yield name, statistic, tolerance, cli.row_verdict(outcome), reference  # csv writes None as ""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", **cli.COMMANDS["falsify"][3]["--trials"])
    parser.add_argument("--dims", **cli.COMMANDS["verify-born"][3]["--dims"])
    parser.add_argument("--out", default=None, help="CSV path (default: stdout)")
    args = parser.parse_args(argv)
    # the CLI's bounds, checked before anything is written; renorm: rules need MIN_DRAWS trials
    for name, value, low in ("seed", args.seed, 0), ("trials", args.trials, invariance.MIN_DRAWS), ("dims", min(args.dims), 2):
        if value < low:
            parser.error(f"--{name} must be at least {low}")
    try:
        handle = open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext(sys.stdout)
    except OSError as exc:  # as the CLI reports --out into a missing directory
        parser.error(str(exc))
    quadratic_fails = 0
    with handle as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["rule", "d", "check", "statistic", "tolerance", "verdict", "reference"])
        for rule in map(rules.parse_rule, RULES):
            for d in args.dims:
                for check, statistic, tolerance, verdict, reference in cells(rule, d, args.trials, args.seed):
                    writer.writerow([rule.name, d, check, statistic, tolerance, verdict, reference])
                    if verdict == "fail" and rule.terms == rules.Born().terms:
                        quadratic_fails += 1
                        print(f"atlas.py: the quadratic rule {rule.name} fails {check} at d={d}", file=sys.stderr)
    return 1 if quadratic_fails else 0


if __name__ == "__main__":
    raise SystemExit(main())
