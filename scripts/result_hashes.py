#!/usr/bin/env python3
"""Print the result-hash table that shows whether a change keeps results.

Each command runs twice in-process at one seed, once as JSON and once as
CSV.  A row gives the first 16 hex digits of the sha256 of
``json.dumps({"results", "config", "pass"})`` (keys in the order the report
emits them), the same digits for the CSV text, and both exit codes.  A
runtime failure (exit 4) writes no report, and its digest is that of the
empty string.  Run it on two checkouts and diff the output:

    PYTHONPATH=src python3 scripts/result_hashes.py --seed 10
"""

import argparse
import contextlib
import hashlib
import io
import json

from bornlab import cli

# the determinism criterion's commands (the list of tests/test_acceptance.py),
# the plain-rule falsify grid, and independence on plain rules
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
COMMANDS = CRITERION_10_COMMANDS + FALSIFY_GRID + INDEPENDENCE


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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=10)
    args = parser.parse_args()
    if args.seed < 0:  # the CLI's bound, checked before the table header
        parser.error("--seed must be at least 0")
    print("command\tjson\tcsv\texit json/csv")
    for argv in COMMANDS:
        print(row(argv, args.seed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
