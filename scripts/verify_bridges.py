#!/usr/bin/env python3
"""Sweep the block bridge verification battery and print a summary table.

Example:
    python scripts/verify_bridges.py --kappa-c 0 1 --max-n 8
"""

import argparse
import json
import os
import sys
from pathlib import Path

# Import the package from this checkout's src/, installed or not.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from klrblocks.morita import ALL_CHECKS, iter_bridges, known_checks, verify_bridge


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kappa-c", type=int, nargs="+", default=[0, 1])
    parser.add_argument("--max-n", type=int, default=8)
    parser.add_argument("--checks", default=",".join(ALL_CHECKS))
    parser.add_argument("--json", action="store_true",
                        help="dump the full reports instead of the table")
    args = parser.parse_args()
    try:
        checks = known_checks(args.checks.split(","))
    except ValueError as exc:
        parser.error(f"{exc}; choose from {','.join(ALL_CHECKS)}")
    if args.max_n < 0:
        parser.error(f"--max-n must be non-negative, got {args.max_n}")
    if any(k < 0 for k in args.kappa_c):
        parser.error(f"--kappa-c must be non-negative, got {min(args.kappa_c)}")

    reports = []
    for kappa_c in args.kappa_c:
        for b in iter_bridges(kappa_c, args.max_n):
            reports.append(verify_bridge(b, checks))

    try:
        if args.json:
            json.dump(reports, sys.stdout, indent=2)
            print()
        else:
            for r in reports:
                b = r["bridge"]
                cells = "  ".join(
                    f"{name}={'ok' if v['pass'] else 'FAIL'}"
                    for name, v in r["checks"].items()
                )
                print(f"kappa_c={b['kappa_c']} a0={b['a0']} "
                      f"beta={json.dumps(b['beta'])}  {cells}")
            n_fail = sum(not r["pass"] for r in reports)
            print(f"{len(reports)} bridges, {n_fail} failing")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; what is still buffered goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 1 if any(not r["pass"] for r in reports) else 0


if __name__ == "__main__":
    sys.exit(main())
