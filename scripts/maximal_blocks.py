#!/usr/bin/env python3
"""Time the five bridge checks on the maximal blocks at one kappa_c.

The maximal block of defect a0 at kappa_c = K is the block of the
rectangle (a0^(2 a0 + 2 K)) of charge K: its height is 2 a0 (a0 + K) and
it has C(2 a0 + K, a0) shapes.  For each a0 up to
--max-a0 the block is listed once; then each check runs in its own
verify_bridge call, in a child process forked after the listing, with
the package's memos cleared, so that its time and memory are its cost
alone.  One line per block gives each check's seconds, its seconds at
the benchmark's reference speed and the peak RSS of its process, as
count=2.120s/1.874s-ref/83.1MB, and the verdict.  The reference time is
the measured one scaled by bench/worker.py's probe loop, timed in the
child just before and just after the check (probe_ms, at_ref_speed), so
that it compares across runs while the machine's speed drifts.  A
child's peak includes whatever the forking process held: run on its
own, the script holds the interpreter and the listing, but a caller that
runs main() inside a large process reads that process's size, not the
check's.  A check that runs out of memory is written as check=MemoryError/<peak>MB,
and one whose process ends without a verdict as check=died/<peak>MB;
either fails the block, and the run goes on with the next check and
exits 1 at the end.  Ctrl-C stops the run with "error: interrupted" and exit code 130.

Example:
    python scripts/maximal_blocks.py --max-a0 5 --kappa-c 1
"""

import argparse
import os
import signal
import sys
import time
import traceback
from pathlib import Path

# Import the package from this checkout's src/, installed or not, and the
# benchmark's probe from its bench/.
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from klrblocks import graded, morita
from klrblocks.cartan import CartanType
from klrblocks.morita import ALL_CHECKS, one_block_bridge, verify_bridge
from klrblocks.partitions import content
from worker import at_ref_speed, probe_ms

MEMOS = (graded._gdim, morita.c_walk, morita.a_walk, morita.rectangle, morita.rho_gdim,
         morita._lane_rows, morita._image_top, morita._image_bottom)
TABLES = (morita._C_KLESHCHEV, morita._A_KLESHCHEV, morita._C_GOOD)  # the dict memos


def timed(b, check):
    """One check's seconds, plain and at the reference speed, and its
    verdict, run on cleared memos."""
    for memo in MEMOS:
        memo.cache_clear()
    for table in TABLES:
        table.clear()
    before = probe_ms()
    start = time.perf_counter()
    try:
        passed = verify_bridge(b, [check])["pass"]
    except MemoryError:
        return "MemoryError", False
    seconds = time.perf_counter() - start
    ref = at_ref_speed(seconds, before, probe_ms())
    return f"{seconds:.3f}s/{ref:.3f}s-ref", passed


def run_alone(b, check):
    """timed(b, check) in a child process, and the child's peak RSS in MB.
    A child stopped by Ctrl-C stops the run."""
    r, w = os.pipe()
    # forked, not spawned: the child starts with the listed block
    pid = os.fork()
    if pid == 0:  # the child, which never returns into the caller
        code = 1
        try:
            os.close(r)
            cell, passed = timed(b, check)
            os.write(w, f"{cell} {int(passed)}".encode())
            code = 0
        except KeyboardInterrupt:
            code = 130
        except Exception:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(w)
    try:
        with os.fdopen(r, "rb") as reader:
            verdict = reader.read().decode().split()
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        # the parent is stopped first: the child must not run on alone
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    if os.waitstatus_to_exitcode(status) == 130:
        raise KeyboardInterrupt
    cell, passed = verdict if verdict else ("died", "0")
    return f"{cell}/{usage.ru_maxrss / 1024:.1f}MB", passed == "1"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--max-a0", type=int, required=True)
    parser.add_argument("--kappa-c", type=int, default=0)
    args = parser.parse_args()
    if args.max_a0 < 1:
        parser.error(f"--max-a0 must be at least 1, got {args.max_a0}")
    if args.kappa_c < 0:
        parser.error(f"--kappa-c must be at least 0, got {args.kappa_c}")
    kappa_c = args.kappa_c

    all_ok = True
    try:
        for a0 in range(1, args.max_a0 + 1):
            rect = ((a0,) * (2 * a0 + 2 * kappa_c),)
            b = one_block_bridge(kappa_c, content(CartanType.C, (kappa_c,), rect))
            cells, ok = [], True
            for check in ALL_CHECKS:
                cell, passed = run_alone(b, check)
                ok = passed and ok
                cells.append(f"{check}={cell}")
            all_ok = all_ok and ok
            print(f"a0={a0} height={b.beta.height} shapes={len(b.c_shapes)}  "
                  f"{'  '.join(cells)}  {'pass' if ok else 'FAIL'}", flush=True)
    except BrokenPipeError:
        # the reader closed stdout early; what is still buffered goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except KeyboardInterrupt:
        # 128 + SIGINT, as a shell reports a command stopped by Ctrl-C
        print("error: interrupted", file=sys.stderr)
        return 130
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
