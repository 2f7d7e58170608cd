#!/usr/bin/env python3
"""Time each kind of single query in the benchmark's queries pool.

Builds bench/querygen.py's pool of valid klrblocks calls (block --beta,
tableaux, kleshchev, gdim, gdim --weight and bridge, 300 of each) and
asks every query through cli.main, its output captured and dropped as
bench/worker.py does.  The first pass asks each query once, in the order
the queries workload draws at seed 1, in this fresh interpreter, so every
memo starts cold; then ROUNDS more passes ask them warm.  One line per
kind gives, in microseconds, the median of the first pass's times (cold)
and the median over the kind's queries of each query's median over the
warm passes (warm), each also at the benchmark's reference speed (us-ref):
every time scaled by bench/worker.py's probe loop, timed just before and
just after its pass (probe_ms, at_ref_speed), so that the medians compare
across runs while the machine's speed drifts:

    gdim_weight  cold   61.2 us   55.4 us-ref  warm   24.9 us   22.6 us-ref  (300 queries)

A query that does not exit 0 stops the run with exit 1.  Imported into a
process that has answered queries already, the first pass is not cold,
so run it as a program.  Ctrl-C stops the run with "error: interrupted"
and exit code 130.

Example:
    python scripts/query_kinds.py
"""

import argparse
import os
import statistics
import sys
import time
from pathlib import Path

# Import the package from this checkout's src/, installed or not, and the
# benchmark's query pool and query runner from its bench/, writing no
# bytecode into either: bench/ is only read, and scripts/bench_pairs.py
# refuses a checkout whose src/klrblocks holds compiled files.
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
sys.dont_write_bytecode = True

from klrblocks import cli
from querygen import PER_CELL, build_pool, cells, draw
from worker import at_ref_speed, probe_ms, query_op

ROUNDS = 7  # warm passes
SEED = 1  # the order of the cold pass, as bench/run.py --seed 1 draws it


def timed(argv) -> float:
    """One query's seconds; a query that does not exit 0 raises."""
    start = time.perf_counter()
    code, _ = query_op(cli, argv)
    seconds = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}")
    return seconds


def timed_pass(argvs) -> list:
    """Each query's (seconds, seconds at the reference speed) in one pass
    over argvs, scaled by the probes taken on either side of the pass."""
    before = probe_ms()
    seconds = [timed(argv) for argv in argvs]
    after = probe_ms()
    return [(t, at_ref_speed(t, before, after)) for t in seconds]


def medians():
    """{kind: (cold medians, warm medians, queries)}, each pair of medians
    (raw, at the reference speed) in seconds, kinds in pool order."""
    pool = build_pool()
    kinds = [cells()[k // PER_CELL][0] for k in range(len(pool))]
    order = draw(SEED)
    cold = dict(zip(order, timed_pass([pool[k] for k in order])))
    warm = [[] for _ in pool]
    for _ in range(ROUNDS):
        for times, t in zip(warm, timed_pass(pool)):
            times.append(t)
    out = {}
    for kind in dict.fromkeys(kinds):
        ks = [k for k in range(len(pool)) if kinds[k] == kind]
        # j = 0 reads the raw times, j = 1 those at the reference speed
        out[kind] = ([statistics.median(cold[k][j] for k in ks) for j in (0, 1)],
                     [statistics.median(statistics.median(t[j] for t in warm[k]) for k in ks)
                      for j in (0, 1)], len(ks))
    return out


def main():
    argparse.ArgumentParser(description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    try:
        for kind, ((cold, cold_ref), (warm, warm_ref), n) in medians().items():
            print(f"{kind:<12} cold {cold * 1e6:8.1f} us {cold_ref * 1e6:8.1f} us-ref  "
                  f"warm {warm * 1e6:8.1f} us {warm_ref * 1e6:8.1f} us-ref  ({n} queries)")
        sys.stdout.flush()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
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
