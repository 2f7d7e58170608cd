#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternating pairs.

Pair k (k = 1..N) runs ``bench/run.py --workload W --seed K+k-1
--seconds S --trace 0`` with this interpreter at the root of both
checkouts, the parent first when k is odd and the change first when k
is even.  Only the last line
of each run's stdout is read; a run that exits non-zero, reads
``correct: false`` or counts a failed operation stops the comparison
with exit 1.  A checkout that holds ``src/klrblocks/__pycache__`` is
refused with exit 2 before the first pair: its workers would load the
package's bytecode instead of compiling its sources, and ``setup_s`` of
the two sides would not compare.  For each end-to-end metric of the change's
``BENCHMARK.json`` one line gives the parent's median and quartiles, the
change's median, the change in percent, the pairs the change won (ties
count for neither side) and a verdict: ``gain`` when the change won at
least 9 in 10 of the pairs and its median is better than the parent's by
more than the parent's interquartile range; else ``unresolved`` when that
range is wider than the metric's ``bound`` (a fraction of the parent's
median) and some run of the change is no better than some run of the
parent, since a spread that wide hides a change within the bound;
else ``worse`` when the change's median is worse than the parent's by
more than the bound, else ``-``.  With ``--label L`` the last pair's
two lines are written, as run.py printed them, to ``BENCH_L_parent.json``
and ``BENCH_L_change.json`` in the current directory.

Example:
    python scripts/bench_pairs.py --parent ../parent --change . \\
        --workload queries --pairs 10 --first-seed 31 --label pr27_queries
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


class Refused(Exception):
    pass


def run_once(root: Path, workload: str, seed: int, seconds: int) -> str:
    """The last stdout line of one benchmark run in the checkout root."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise Refused(f"{root} seed {seed}: bench/run.py exited {proc.returncode}: "
                      f"{proc.stderr.strip()[-500:]}")
    line = lines[-1]
    try:
        result = json.loads(line)
        ok = result["correct"] is True and result["failed"] == 0
    except (ValueError, KeyError, TypeError):
        raise Refused(f"{root} seed {seed}: no result line: {line[:200]}") from None
    if not ok:
        raise Refused(f"{root} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}")
    return line


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summary(metrics, runs):
    """One line per metric of runs = {side: [result, ...]}, pair by pair."""
    n = len(runs["parent"])
    lines = [f"{'metric':<12} {'unit':<6} {'parent':>10} {'q1':>10} {'q3':>10} "
             f"{'change':>10} {'delta':>8} {'wins':>7} verdict"]
    for m in metrics:
        name = m["name"]
        parent, change = ([r["metrics"][name]["value"] for r in runs[side]]
                          for side in SIDES)
        sign = 1 if m["better"] == "lower" else -1
        wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
        p_med, c_med = statistics.median(parent), statistics.median(change)
        q1, q3 = quartiles(parent)
        delta = f"{100 * (c_med - p_med) / p_med:+.1f}%" if p_med else "n/a"
        # a parent spread wider than the bound hides any change within it,
        # unless every run of the change beats every run of the parent
        apart = max(sign * c for c in change) < min(sign * p for p in parent)
        hidden = q3 - q1 > m["bound"] * abs(p_med) and not apart
        if 10 * wins >= 9 * n and sign * (p_med - c_med) > q3 - q1:
            verdict = "gain"
        elif hidden:
            verdict = "unresolved"
        elif sign * (c_med - p_med) > m["bound"] * abs(p_med):
            verdict = "worse"
        else:
            verdict = "-"
        lines.append(f"{name:<12} {m['unit']:<6} {p_med:>10.4g} {q1:>10.4g} "
                     f"{q3:>10.4g} {c_med:>10.4g} {delta:>8} {f'{wins}/{n}':>7} {verdict}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int,
                        help="length of each run (default: run_seconds of the "
                             "change's BENCHMARK.json)")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--label")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    roots = {"parent": args.parent, "change": args.change}
    compiled = [str(root) for root in roots.values()
                if (root / "src" / "klrblocks" / "__pycache__").exists()]
    if compiled:
        print(f"bench_pairs: refused: {', '.join(compiled)} holds "
              f"src/klrblocks/__pycache__; remove it, or setup_s times loading "
              f"bytecode on one side and compiling on the other", file=sys.stderr)
        return 2
    lines = {side: [] for side in SIDES}
    try:
        for k in range(1, args.pairs + 1):
            seed = args.first_seed + k - 1
            for side in SIDES if k % 2 else SIDES[::-1]:
                lines[side].append(run_once(roots[side], args.workload, seed, seconds))
            print(f"pair {k}/{args.pairs} (seed {seed}) done", file=sys.stderr)
    except Refused as exc:
        print(f"bench_pairs: refused: {exc}", file=sys.stderr)
        return 1
    runs = {side: [json.loads(line) for line in lines[side]] for side in SIDES}
    last = args.first_seed + args.pairs - 1
    print(f"{args.workload}: {args.pairs} pairs, seeds {args.first_seed}-{last}, "
          f"{seconds} s per run")
    for line in summary(bench["end_to_end"], runs):
        print(line)
    if args.label:
        for side in SIDES:
            Path(f"BENCH_{args.label}_{side}.json").write_text(lines[side][-1] + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
