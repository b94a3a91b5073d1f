#!/usr/bin/env python3
"""Sweep the exponent of pure power rules and chart the normalization defect.

For each exponent p the scan records the worst |sum_i a_i^p - 1| over
Haar-random states at d = 2, next to the analytic worst case
|2^(1 - p/2) - 1| attained at the symmetric state.  The defect vanishes
only at p = 2.  Output is a CSV ready for plotting.
"""

import argparse
import csv
import sys

import numpy as np

from bornlab.rules import Born, Power, defect_scan


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--trials", type=int, default=2000)
    parser.add_argument("--dim", type=int, default=2)
    parser.add_argument("--out", default="-", help="CSV path, '-' for stdout")
    args = parser.parse_args()
    # the CLI's lower bounds: a d=1 state has the single modulus 1, so no
    # exponent can be told from another there
    for name, low in {"seed": 0, "trials": 1, "dim": 2}.items():
        if getattr(args, name) < low:
            parser.error(f"--{name} must be at least {low}")

    exponents = np.concatenate([np.arange(0.5, 2.0, 0.25), [2.0], np.arange(2.25, 4.25, 0.25)])
    try:
        handle = sys.stdout if args.out == "-" else open(args.out, "w", encoding="utf-8")
    except OSError as exc:  # as the CLI reports --out into a missing directory
        parser.error(str(exc))
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(["exponent", "max_defect", "mean_defect", "symmetric_point_defect"])
    for p in (float(x) for x in exponents):
        rule = Born() if p == 2.0 else Power(p)
        report = defect_scan(rule, args.dim, args.trials, args.seed)
        analytic = abs(args.dim ** (1.0 - p / 2.0) - 1.0)
        writer.writerow(
            [f"{p:g}", repr(report.max_defect), repr(report.mean_defect), repr(analytic)]
        )
    if handle is not sys.stdout:
        handle.close()
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
