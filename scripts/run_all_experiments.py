#!/usr/bin/env python3
"""Run every experiment command with its default configuration.

Writes one JSON report per command into an output directory and prints a
pass/fail line per command.  Falsification runs against non-quadratic
rules are supposed to come back falsified; the script counts those as
expected.  Exits nonzero if anything surprising happens.
"""

import argparse
from pathlib import Path

from bornlab import cli

COMMANDS = [
    ["verify-born", "--dims", "2,3,4,5,6,7,8", "--trials", "2000"],
    ["falsify", "--rule", "power:1", "--dim", "2"],
    ["falsify", "--rule", "power:3", "--dim", "2"],
    ["falsify", "--rule", "power:4", "--dim", "2"],
    ["falsify", "--rule", "affine:0.5:0.2", "--dim", "3"],
    ["falsify", "--rule", "renorm:power:1", "--dim", "3"],
    ["falsify", "--rule", "renorm:power:4", "--dim", "3"],
    ["falsify", "--rule", "born", "--dim", "4"],
    ["independence", "--rule", "born", "--dim", "4"],
    ["recover", "--dims", "2,3", "--trials", "500"],
    ["stationarity", "--dims", "2,3", "--trials", "500"],
    ["spin1", "--trials", "1000"],
    ["sample", "--dim", "3", "--shots", "100000", "--trials", "10"],
]


def expect_falsified(argv: list[str]) -> bool:
    return argv[0] == "falsify" and argv[2] != "born"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--outdir", default="runs")
    args = parser.parse_args()
    if args.seed < 0:  # the CLI's bound, checked before the output directory exists
        parser.error("--seed must be at least 0")

    outdir = Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.error(str(exc))

    surprises = 0
    for argv in COMMANDS:
        name = "_".join(argv).replace("--", "").replace(":", "-").replace(",", "-")
        path = outdir / f"{name}.json"
        code = cli.main(argv + ["--seed", str(args.seed), "--out", str(path)])
        expected = 1 if expect_falsified(argv) else 0
        verdict = "ok" if code == expected else "SURPRISE"
        if code != expected:
            surprises += 1
        print(f"[{verdict}] exit={code} (expected {expected})  {' '.join(argv)}")
    print(f"\nreports written to {outdir}/")
    return 1 if surprises else 0


if __name__ == "__main__":
    raise SystemExit(main())
