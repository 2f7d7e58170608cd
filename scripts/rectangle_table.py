#!/usr/bin/env python3
"""Tabulate the leading weight space of rectangular one-column blocks.

For each charge kappa_c and zero-node count a0, prints the graded
dimension of the row-initial residue weight space of the rectangle
(a0 ** (kappa_c + a0)) together with its extreme degrees.  The dimension
is (q + 1/q) ** (a0 // 2) with a unique tableau at each extreme.  Ctrl-C
stops the run with "error: interrupted" and exit code 130.
"""

import argparse
import os
import sys
from pathlib import Path

# Import the package from this checkout's src/, installed or not.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from klrblocks.cartan import CartanType
from klrblocks.graded import gdim_specht_weight
from klrblocks.tableaux import enumerate_standard


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-kappa", type=int, default=2)
    parser.add_argument("--max-a0", type=int, default=6)
    args = parser.parse_args()
    if args.max_kappa < 0:
        parser.error(f"--max-kappa must be non-negative, got {args.max_kappa}")
    if args.max_a0 < 1:
        parser.error(f"--max-a0 must be at least 1, got {args.max_a0}")

    C = CartanType.C
    try:
        for kappa_c in range(args.max_kappa + 1):
            for a0 in range(1, args.max_a0 + 1):
                rho = ((a0,) * (kappa_c + a0),)
                # the walk's first tableau is the row-reading one
                iword = next(enumerate_standard(rho, C, (kappa_c,))).word
                poly = gdim_specht_weight(rho, C, (kappa_c,), iword)
                print(f"kappa_c={kappa_c} a0={a0} "
                      f"dim={poly.eval_at_1():4d}  gdim={poly}")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; what is still buffered goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except KeyboardInterrupt:
        # 128 + SIGINT, as a shell reports a command stopped by Ctrl-C
        print("error: interrupted", file=sys.stderr)
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
