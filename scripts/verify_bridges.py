#!/usr/bin/env python3
"""Sweep the block bridge verification battery and print a summary table.

Examples:
    python scripts/verify_bridges.py --kappa-c 0 1 --max-n 8
    python scripts/verify_bridges.py --kappa-c 0 --beta '{"0": 2, "1": 2, "2": 1}'
"""

import argparse
import json
import os
import sys
from pathlib import Path

# Import the package from this checkout's src/, installed or not.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from klrblocks.cartan import CartanType
from klrblocks.cli import parse_beta
from klrblocks.morita import (ALL_CHECKS, iter_bridges, known_checks, one_block_bridge,
                              verify_bridge)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kappa-c", type=int, nargs="+", default=[0, 1])
    which = parser.add_mutually_exclusive_group()
    which.add_argument("--max-n", type=int,
                       help="every block up to this height (default 8)")
    which.add_argument("--beta", help="one block, as type-C RootVector JSON; "
                                      "takes exactly one --kappa-c")
    parser.add_argument("--checks", default=",".join(ALL_CHECKS))
    parser.add_argument("--json", action="store_true",
                        help="dump the full reports instead of the table")
    args = parser.parse_args()
    try:
        checks = known_checks(args.checks.split(","))
    except ValueError as exc:
        parser.error(f"{exc}; choose from {','.join(ALL_CHECKS)}")
    max_n = 8 if args.max_n is None else args.max_n
    if max_n < 0:
        parser.error(f"--max-n must be non-negative, got {max_n}")
    if any(k < 0 for k in args.kappa_c):
        parser.error(f"--kappa-c must be non-negative, got {min(args.kappa_c)}")
    if len(set(args.kappa_c)) != len(args.kappa_c):
        parser.error(f"--kappa-c repeats a charge: {' '.join(map(str, args.kappa_c))}")
    if args.beta is not None and len(args.kappa_c) != 1:
        parser.error("--beta checks one block: give exactly one --kappa-c")

    if args.beta is not None:
        try:
            bridges = [one_block_bridge(args.kappa_c[0],
                                        parse_beta(args.beta, CartanType.C))]
        except ValueError as exc:  # bad JSON, no bridge or an empty block
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        bridges = (b for kappa_c in args.kappa_c for b in iter_bridges(kappa_c, max_n))
    passes = []

    def reports():  # each written as soon as it is made, and not kept
        for b in bridges:
            r = verify_bridge(b, checks)
            passes.append(r["pass"])
            yield r

    try:
        if args.json:
            # the bytes of json.dump(all reports, indent=2), a report at a time
            head = "[\n  "
            for r in reports():
                sys.stdout.write(head + json.dumps(r, indent=2).replace("\n", "\n  "))
                head = ",\n  "
            print("\n]" if passes else "[]")
        else:
            for r in reports():
                b = r["bridge"]
                cells = "  ".join(
                    f"{name}={'ok' if v['pass'] else 'FAIL'}"
                    for name, v in r["checks"].items()
                )
                print(f"kappa_c={b['kappa_c']} a0={b['a0']} "
                      f"beta={json.dumps(b['beta'])}  {cells}")
            print(f"{len(passes)} bridges, {passes.count(False)} failing")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; what is still buffered goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0 if all(passes) else 1


if __name__ == "__main__":
    sys.exit(main())
