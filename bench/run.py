"""The klrblocks benchmark.

    python3 bench/run.py --workload battery|crystal|queries --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout.  Every pass of a workload runs in a fresh
interpreter (``worker.py``), so the package's caches start cold.  A run
makes a fixed number of passes: ``--seconds`` over the pass time the
workload had at the seed.  Every output is checked against
``pinned.json``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``; with ``--trace 1`` the per-layer metrics of a
separate traced pass, which wraps the package from outside (``spans.py``).
Workload parameters are in ``workloads.json``, and the ``why`` of each
workload in ``BENCHMARK.json`` must name them; ``pin.py`` rebuilds the
pinned data.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import querygen  # noqa: E402
import worker  # noqa: E402

RUN_LIMIT_S = 170  # a run must end well inside 180 s
SETUP_SAMPLES = 30  # set-up times per run: the passes' and set-up-only ones
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.5, 99.9)
LAYERS = ("partitions", "tableaux", "graded", "crystal", "morita", "cli", "json")
SPANS_DIR = ".bench_out"


def load(name: str, where: str = HERE) -> dict:
    with open(os.path.join(where, name)) as f:
        return json.load(f)


def tail_percentile(n: int) -> float:
    """The highest candidate percentile with at least ten ops beyond it
    (nearest-rank), or the lowest candidate when n is too small."""
    best = TAIL_PERCENTILES[0]
    for p in TAIL_PERCENTILES:
        if n - math.ceil(n * p / 100) >= 10:
            best = p
    return best


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * p / 100) - 1)]


class Failure(RuntimeError):
    pass


def run_worker(job: dict, deadline: float) -> dict:
    timeout = max(5.0, deadline - time.monotonic())
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")],
        input=json.dumps(job), capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise Failure(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def documented_params(spec: dict) -> List[str]:
    """The phrases a sweep's ``why`` in BENCHMARK.json must contain, so that
    the prose and ``workloads.json`` cannot drift apart."""
    if spec["kind"] != "sweep":
        return []
    return [f"kappa_c {','.join(map(str, spec['kappa_c']))}",
            f"max_n {spec['max_n']}"]


class Workload:
    def __init__(self, name: str, seed: int):
        params = load("workloads.json")["workloads"]
        if name not in params:
            raise Failure(f"unknown workload {name!r}; one of {sorted(params)}")
        self.name, self.seed, self.spec = name, seed, params[name]
        why = {w["name"]: w["why"] for w in load("BENCHMARK.json", ROOT)["workloads"]}
        missing = [p for p in documented_params(self.spec) if p not in why.get(name, "")]
        if missing:
            raise Failure(f"BENCHMARK.json does not describe {name} with {missing}")
        self.pinned = load("pinned.json")
        self.kind = self.spec["kind"]
        if self.kind == "queries":
            self.pool = querygen.build_pool()
            if querygen.pool_fingerprint(self.pool) != self.pinned["queries"]["fingerprint"]:
                raise Failure("query pool differs from the pinned one")
            self.picks = querygen.draw(seed)

    def job(self, **extra) -> dict:
        if self.kind == "sweep":
            job = {k: self.spec[k] for k in ("kappa_c", "max_n", "checks")}
        else:
            job = {"argvs": [self.pool[i] for i in self.picks]}
        job.update(kind=self.kind, **extra)
        return job

    def passes(self, seconds: int) -> int:
        """Passes per run.  The count depends on ``--seconds`` and on the
        pass time measured at the seed, never on the speed of the code
        under test, so both sides of a comparison take their medians over
        as many passes."""
        return max(3, round(seconds / self.spec["pass_s"]))

    def expected(self) -> List[dict]:
        """The pinned bridges of a sweep, in the order ``iter_bridges``
        yields them for each ``kappa_c`` of the spec."""
        sweeps = self.pinned["sweeps"]
        return [e for kc in self.spec["kappa_c"] for e in sweeps
                if e["kappa_c"] == kc and e["height"] <= self.spec["max_n"]]

    def score(self, res: dict) -> Tuple[int, int]:
        """(attempted, failed) for one pass.  An op fails if it raised or
        its output differs from the pinned data.  In a sweep, the i-th
        output must be the i-th pinned bridge; a missing or extra bridge
        counts as a failed op."""
        got = res["outputs"]
        if self.kind == "queries":
            want = self.pinned["queries"]["digests"]
            return len(got), sum(g != want[i] for g, i in zip(got, self.picks))
        want = self.expected()
        fields = list(self.spec["checks"]) + ["block"]
        failed = 0
        for i in range(max(len(got), len(want))):
            g = got[i] if i < len(got) else {}
            w = want[i] if i < len(want) else {}
            digests = g.get("digests", {})
            if (not w or g.get("key") != w["key"]
                    or any(c not in w or digests.get(c) != w[c] for c in fields)):
                failed += 1
        return max(len(got), len(want)), failed

    @property
    def has_facts(self) -> bool:
        return self.kind == "sweep" and "dominance" in self.spec["checks"]

    def facts_hold(self, res: dict) -> bool:
        """The known dominance refinement: the witness census by height
        matches the pinned one, and order preservation holds everywhere."""
        if not self.has_facts:
            return True
        outs = res["outputs"]
        if not all(o.get("order_preserving") for o in outs):
            return False  # also when an op raised and left no output
        for kc in self.spec["kappa_c"]:
            census = self.pinned["census"][str(kc)]
            for h in range(1, self.spec["max_n"] + 1):
                got = sum(1 for o in outs if o["key"].startswith(f"{kc}:")
                          and o["height"] <= h and o["witnesses"])
                if got != census[str(h)]:
                    return False
        return True


def end_to_end(wl: Workload, seconds: int, deadline: float) -> dict:
    n = wl.passes(seconds)
    extra = max(0, SETUP_SAMPLES - n)
    passes, setups = [], []
    for i in range(n):
        passes.append(run_worker(wl.job(), deadline))
        setups.append(passes[-1]["setup_ref_s"])
        # Set-up-only processes, spread over the run: a set-up time is a
        # few tens of milliseconds, so one per pass is too few to be steady.
        for _ in range(extra * (i + 1) // n - extra * i // n):
            setups.append(run_worker(wl.job(setup_only=True), deadline)["setup_ref_s"])
    scores = [wl.score(p) for p in passes]
    attempted = sum(a for a, _ in scores)
    failed = sum(f for _, f in scores)
    facts = all(wl.facts_hold(p) for p in passes)
    n_ops = len(passes[0]["ops_ms"])
    pct = tail_percentile(n_ops)
    med = statistics.median
    print(f"{wl.name}: {len(passes)} passes of {n_ops} ops; op_tail_ms is p{pct}")
    if wl.has_facts:
        print(f"dominance witness census and order preservation "
              f"{'hold' if facts else 'BROKEN'}")
    # Every pass asks the same ops in the same order.  An op's time is its
    # median over the passes, in reference ms (worker.py), and wall_s is
    # the sum of those medians.
    per_op = [med(times) for times in zip(*(p["ops_ref_ms"] for p in passes))]
    plain = sum(med(times) for times in zip(*(p["ops_ms"] for p in passes))) / 1e3
    probe = med(x for p in passes for x in p["probe_ms"])
    print(f"wall_s in plain seconds: {plain:.4f}; median probe {probe:.4f} ms "
          f"against {worker.PROBE_REF_MS} ms at reference speed")
    metrics = {
        "setup_s": (med(setups), "s"),
        "wall_s": (sum(per_op) / 1e3, "s"),
        "op_p50_ms": (percentile(per_op, 50), "ms"),
        "op_tail_ms": (percentile(per_op, pct), "ms"),
        "peak_rss_mb": (med(p["peak_rss_mb"] for p in passes), "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    return {"correct": failed == 0 and facts, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def layer_metrics(plain: dict, traced: dict,
                  per_check: Optional[dict]) -> Dict[str, tuple]:
    tr = traced["trace"]
    per = tr["per_name"]

    def g(name: str, field: str) -> float:
        return per.get(name, {}).get(field, 0)

    caches = traced.get("caches", {})
    klesh = caches.get("kleshchev", {})
    lookups = klesh.get("hits", 0) + klesh.get("misses", 0)
    kept = g("partitions.enumerate_block", "items")
    scanned = tr["edges"].get("partitions.enumerate_block>partitions.content", 0)
    m: Dict[str, tuple] = {}
    for name in ("enumerate_block", "content", "dominates"):
        m[f"partitions.{name}.calls"] = (g(f"partitions.{name}", "calls"), "count")
    m["partitions.enumerate_block.s"] = (g("partitions.enumerate_block", "s"), "s")
    m["partitions.enumerate_block.kept"] = (kept, "count")
    m["partitions.enumerate_block.yield"] = (kept / scanned if scanned else 1.0, "ratio")
    m["partitions.partitions_of.cache_size"] = (
        caches.get("partitions_of", {}).get("currsize", 0), "count")
    for name in ("factorizable_tableaux", "enumerate_standard"):
        m[f"tableaux.{name}.calls"] = (g(f"tableaux.{name}", "calls"), "count")
        m[f"tableaux.{name}.s"] = (g(f"tableaux.{name}", "s"), "s")
        m[f"tableaux.{name}.tableaux"] = (g(f"tableaux.{name}", "items"), "count")
    m["tableaux.degree.calls"] = (g("tableaux.degree", "calls"), "count")
    m["tableaux.degree.s"] = (g("tableaux.degree", "s"), "s")
    for name in ("graded.gdim_specht", "graded.gdim_specht_weight",
                 "crystal.is_kleshchev", "crystal.factors_through",
                 "crystal.cogood_path"):
        m[f"{name}.calls"] = (g(name, "calls"), "count")
        m[f"{name}.s"] = (g(name, "s"), "s")
    m["crystal.kleshchev_cache.hit_ratio"] = (
        klesh.get("hits", 0) / lookups if lookups else 0.0, "ratio")
    m["crystal.kleshchev_cache.size"] = (klesh.get("currsize", 0), "count")
    m["morita.iter_bridges.s"] = (g("morita.iter_bridges", "s"), "s")
    m["morita.block.s"] = (g("morita.c_block", "s") + g("morita.a_block", "s"), "s")
    checks_per = (per_check or {}).get("trace", {}).get("per_name", {})
    for c in ("count", "graded", "dominance", "kleshchev", "goodpath"):
        m[f"morita.check.{c}.s"] = (
            checks_per.get(f"bench.check.{c}", {}).get("self_s", 0.0), "s")
    m["morita.bridges"] = (g("morita.iter_bridges", "items"), "count")
    m["morita.shapes"] = (g("morita.c_block", "items"), "count")
    m["cli.main.calls"] = (g("cli.main", "calls"), "count")
    m["cli.build_parser.s"] = (g("cli.build_parser", "s"), "s")
    m["cli.self.s"] = (tr["layer_self_s"].get("cli", 0.0), "s")
    m["cli.output_bytes"] = (traced["output_bytes"], "bytes")
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = (tr["layer_self_s"].get(layer, 0.0), "s")
    m["trace.wall_s"] = (traced["wall_s"], "s")
    m["trace.untraced_wall_s"] = (plain["wall_s"], "s")
    m["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    m["trace.unattributed_s"] = (traced["wall_s"] - tr["root_s"], "s")
    m["trace.spans"] = (tr["spans"], "count")
    m["trace.absent"] = (len(tr["absent"]), "count")
    m["machine.probe_ms"] = (statistics.median(plain["probe_ms"]), "ms")
    m["op_tail.percentile"] = (tail_percentile(len(plain["ops_ms"])), "pct")
    return m


def per_layer(wl: Workload, seconds: int, deadline: float) -> dict:
    os.makedirs(SPANS_DIR, exist_ok=True)
    stop = time.monotonic() + seconds
    cycles: List[Dict[str, tuple]] = []
    attempted = failed = 0
    same = facts = True
    while not cycles or time.monotonic() < stop:
        plain = run_worker(wl.job(), deadline)
        spans_out = os.path.join(SPANS_DIR, f"spans-{wl.name}.tsv.gz")
        traced = run_worker(wl.job(trace=True, spans_out=spans_out), deadline)
        per_check = None
        runs = [plain, traced]
        if wl.kind == "sweep":
            per_check = run_worker(wl.job(trace=True, per_check=True), deadline)
            runs.append(per_check)
        for res in runs:
            a, f = wl.score(res)
            attempted += a
            failed += f
            facts = facts and wl.facts_hold(res)
            same = same and res["bytes_digests"] == plain["bytes_digests"]
        cycles.append(layer_metrics(plain, traced, per_check))
        if traced["trace"]["absent"]:
            print(f"absent: {', '.join(traced['trace']['absent'])}")
    print(f"{wl.name}: {len(cycles)} traced cycles; traced outputs "
          f"{'identical' if same else 'DIFFER'}; spans in {spans_out}")
    # median_low: with an even number of cycles, a value that was measured
    metrics = {name: (statistics.median_low(c[name][0] for c in cycles), unit)
               for name, (_, unit) in cycles[0].items()}
    return {"correct": failed == 0 and same and facts, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not os.path.isfile(os.path.join("src", "klrblocks", "__init__.py")):
        print("bench: run from the root of a klrblocks checkout (no src/klrblocks)",
              file=sys.stderr)
        return 2
    try:
        wl = Workload(args.workload, args.seed)
        # Byte-compile the package once, untimed: a user's later runs
        # find it compiled too.
        run_worker(wl.job(setup_only=True), deadline)
        run = per_layer if args.trace else end_to_end
        result = run(wl, args.seconds, deadline)
    except (Failure, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    result["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
