#!/usr/bin/env python3
"""Print the result-hash table that shows whether a change keeps results.

Each command runs twice in-process at one seed, once as JSON and once as
CSV.  A row gives the first 16 hex digits of the sha256 of
``json.dumps({"results", "config", "pass"})`` (keys in the order the report
emits them), the same digits for the CSV text, and both exit codes.  A
runtime failure (exit 4) writes no report, and its digest is that of the
empty string.  Each --seed (repeatable; 10 when none is given) prints one
block, its header line first, and blocks are separated by an empty line.
Run it on two checkouts and diff the output:

    PYTHONPATH=src python3 scripts/result_hashes.py --seed 10 --seed 11 --seed 12
"""

import argparse
import contextlib
import hashlib
import io
import json

from bornlab import cli

# the determinism criterion's commands (tests/test_acceptance.py loads this list),
# the plain-rule falsify grid, independence on plain rules, both independence
# checks of a renormalized rule at d=2 (inconclusive), both checks of a
# renormalized two-term rule and of renormalized born at d=3, the fit and
# sample commands at their README defaults, hundreds of rows each, then the
# collapse at d=8, independence on born's formula under another name,
# falsify on the uniform rule p_k = 1/d, born's two independence commands
# at a zero spread tolerance, scan summaries whose extremes lie past the
# first 128 draws, a renormalized rule's scans at d=16, past the benchmark's d <= 8,
# its observable scan at d=128, where a draw's eigenbasis is never formed,
# stationarity and recover at d = 7, 8 and 9, on both sides of the 8 entries
# from which numpy sums a row pairwise (linalg.row_sum), stationarity at
# d = 16 and 32, where the outcome form moves one of many coordinates at a time,
# sample with every pair's counts pooled into one cell (inconclusive), and one
# falsify run down each path of the verdict rule: a rule that misses
# certainty and spreads at rounding level above a zero --tol-spread is
# falsified by certainty (the earlier row), then by its spread once certainty
# is tolerated, and at d=2, where both spreads vanish, is inconclusive
CRITERION_10_COMMANDS = [
    ["verify-born", "--dims", "2,3", "--trials", "150"],
    ["falsify", "--rule", "power:1", "--dim", "2", "--trials", "150"],
    ["falsify", "--rule", "renorm:power:4", "--dim", "3", "--trials", "60"],
    ["independence", "--rule", "renorm:power:1", "--dim", "3", "--trials", "60"],
    ["recover", "--dims", "2,3", "--trials", "120"],
    ["stationarity", "--dims", "3", "--trials", "60"],
    ["spin1", "--trials", "200"],
    ["sample", "--dim", "3", "--shots", "20000", "--trials", "3"],
]
PLAIN_RULES = ["born", "power:1", "power:3", "affine:0.5:0.125", "affine:0.7:0.1"]
FALSIFY_GRID = [["falsify", "--rule", rule, "--dim", str(d)] for d in range(2, 9) for rule in PLAIN_RULES]
INDEPENDENCE = [["independence", "--rule", rule, "--dim", "3"] for rule in PLAIN_RULES]
RENORM_D2 = [[command, "--rule", "renorm:power:4", "--dim", "2"] for command in ("falsify", "independence")]
RENORM_D3 = [
    [command, "--rule", rule, "--dim", "3", "--trials", "60"]
    for rule in ("renorm:affine:1:0.1", "renorm:born")
    for command in ("falsify", "independence")
]
DEFAULT_SCALE = [[command] for command in ("recover", "stationarity", "spin1", "sample")]
EDGE_CASES = [
    ["sample", "--dim", "8", "--shots", "5000", "--trials", "4"],
    ["independence", "--rule", "power:2", "--dim", "3"],
    ["falsify", "--rule", "renorm:affine:0:1", "--dim", "3"],
    ["independence", "--rule", "born", "--dim", "8", "--tol-spread", "0"],
    ["verify-born", "--dims", "2,3", "--trials", "150", "--tol-spread", "0"],
    ["independence", "--rule", "renorm:power:4", "--dim", "5", "--trials", "300"],
    ["falsify", "--rule", "renorm:power:4", "--dim", "16", "--trials", "300"],
    ["independence", "--rule", "renorm:power:4", "--dim", "128", "--trials", "300"],
    ["stationarity", "--dims", "7,8,9", "--trials", "200"],
    ["recover", "--dims", "7,8,9", "--trials", "200"],
    ["stationarity", "--dims", "16,32", "--trials", "50"],
    ["sample", "--dim", "2", "--shots", "5", "--trials", "3"],
    ["falsify", "--rule", "renorm:affine:1:0.1", "--dim", "3", "--tol-spread", "0"],
    ["falsify", "--rule", "renorm:affine:1:0.1", "--dim", "3", "--tol-defect", "1", "--tol-spread", "0"],
    ["falsify", "--rule", "renorm:affine:1:0.1", "--dim", "2", "--tol-defect", "1"],
]
COMMANDS = CRITERION_10_COMMANDS + FALSIFY_GRID + INDEPENDENCE + RENORM_D2 + RENORM_D3 + DEFAULT_SCALE + EDGE_CASES


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def row(argv: list[str], seed: int) -> str:
    argv = argv + ["--seed", str(seed)]
    json_code, text = run(argv)
    report = json.loads(text) if text else {}
    payload = json.dumps({key: report[key] for key in ("results", "config", "pass")}) if report else ""
    csv_code, csv_text = run(argv + ["--format", "csv"])
    return f"{' '.join(argv)}\t{digest(payload)}\t{digest(csv_text)}\texit {json_code}/{csv_code}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, action="append", help="master seed of one block; repeat for more (default 10)")
    seeds = parser.parse_args(argv).seed or [10]
    if min(seeds) < 0:  # the CLI's bound, checked before any table header
        parser.error("--seed must be at least 0")
    for block, seed in enumerate(seeds):
        if block:
            print()  # an empty line between blocks
        print("command\tjson\tcsv\texit json/csv")
        for command in COMMANDS:
            print(row(command, seed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
