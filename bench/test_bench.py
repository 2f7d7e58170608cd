"""Tests of the benchmark itself:  python3 -m pytest bench"""

from __future__ import annotations

import os
import time

import pytest

import querygen
import run

ROOT = os.path.dirname(run.HERE)
SMALL_SWEEP = {"kappa_c": [0, 1], "max_n": 8,
               "checks": ["count", "graded", "dominance", "kleshchev", "goodpath"]}


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def small(name: str, **spec) -> run.Workload:
    wl = run.Workload(name, seed=7)
    wl.spec = dict(wl.spec, **spec)
    return wl


def test_query_generator_is_deterministic():
    pool = querygen.build_pool()
    assert pool == querygen.build_pool()
    assert querygen.pool_fingerprint(pool) == run.load("pinned.json")["queries"]["fingerprint"]
    assert querygen.draw(3) == querygen.draw(3)
    assert querygen.draw(3) != querygen.draw(4)


def test_a_run_asks_every_pool_query_once():
    assert sorted(querygen.draw(5)) == list(range(len(querygen.build_pool())))


def test_bridge_queries_have_a_zero_residue_node():
    for argv in querygen.build_pool():
        if argv[0] == "bridge":
            kappa_c = int(argv[1].split("=")[1])
            parts = argv[2].split("=")[1].split(",")
            assert len(parts) > kappa_c


@pytest.mark.parametrize("n, pct", [(19, 50), (20, 50), (183, 90), (424, 95),
                                    (1080, 99), (2000, 99.5), (10000, 99.9)])
def test_tail_percentile_leaves_ten_ops_beyond(n, pct):
    assert run.tail_percentile(n) == pct
    values = list(range(1, n + 1))
    beyond = sum(v > run.percentile(values, pct) for v in values)
    assert beyond >= 10 or n < 20


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert run.percentile(values, 50) == 3.0
    assert run.percentile(values, 90) == 5.0
    assert run.percentile(values, 20) == 1.0


def test_traced_sweep_reproduces_untraced_outputs():
    wl = small("battery", **SMALL_SWEEP)
    deadline = time.monotonic() + 120
    plain = run.run_worker(wl.job(), deadline)
    traced = run.run_worker(wl.job(trace=True), deadline)
    per_check = run.run_worker(wl.job(trace=True, per_check=True), deadline)
    assert plain["bytes_digests"] == traced["bytes_digests"] == per_check["bytes_digests"]
    assert wl.score(plain) == (len(plain["ops_ms"]), 0) and wl.facts_hold(plain)
    assert traced["trace"]["absent"] == []
    checks = per_check["trace"]["per_name"]
    assert all(checks[f"bench.check.{c}"]["calls"] == len(plain["ops_ms"])
               for c in SMALL_SWEEP["checks"])


def test_times_are_scaled_by_the_probes_around_them():
    import worker
    ref = worker.PROBE_REF_MS
    assert worker.at_ref_speed(10.0, ref, ref) == 10.0
    assert worker.at_ref_speed(10.0, 2 * ref, 2 * ref) == 5.0
    assert worker.at_ref_speed(10.0, ref, 3 * ref) == 5.0
    wl = small("crystal", max_n=7)
    res = run.run_worker(wl.job(), time.monotonic() + 60)
    assert len(res["ops_ref_ms"]) == len(res["ops_ms"]) and len(res["probe_ms"]) >= 2


def test_traced_queries_reproduce_untraced_outputs():
    wl = run.Workload("queries", seed=11)
    wl.picks = wl.picks[:120]
    deadline = time.monotonic() + 60
    plain = run.run_worker(wl.job(), deadline)
    traced = run.run_worker(wl.job(trace=True), deadline)
    assert plain["outputs"] == traced["outputs"]
    assert wl.score(plain) == (120, 0)
    assert traced["trace"]["per_name"]["cli.main"]["calls"] == 120


def test_a_wrong_output_counts_as_failed():
    wl = small("crystal", max_n=6)
    res = run.run_worker(wl.job(), time.monotonic() + 60)
    n = len(wl.expected())
    assert n > 3 and wl.score(res) == (n, 0)
    res["outputs"][0]["digests"]["kleshchev"] = "0" * 16
    assert wl.score(res) == (n, 1)


@pytest.mark.parametrize("change, failed", [
    (lambda outs: outs.pop(), 1),                      # a bridge dropped
    (lambda outs: outs.append(dict(outs[0])), 1),      # a bridge added
    (lambda outs: outs.insert(1, outs.pop(2)), 2),     # two bridges swapped
    (lambda outs: outs[1]["digests"].update(block="0" * 16), 1),  # a shape lost
])
def test_the_bridge_list_and_blocks_must_match_the_pinned_ones(change, failed):
    wl = small("crystal", max_n=6)
    res = run.run_worker(wl.job(), time.monotonic() + 60)
    change(res["outputs"])
    attempted, got = wl.score(res)
    assert got == failed and attempted == max(len(res["outputs"]), len(wl.expected()))


def test_the_block_digest_covers_every_shape():
    import worker
    c, a = [(2, 1), (3,)], [((1,), ()), ((), (1,))]
    assert worker.block_digest(c, a) == worker.block_digest(c[::-1], a[::-1])
    assert worker.block_digest(c[:1], a) != worker.block_digest(c, a)
    assert worker.block_digest(c, a[:1]) != worker.block_digest(c, a)


def test_the_pass_count_does_not_depend_on_the_code_under_test():
    wl = run.Workload("battery", seed=1)
    assert wl.passes(30) == round(30 / wl.spec["pass_s"])
    assert wl.passes(1) == 3


def test_benchmark_json_names_each_sweeps_parameters():
    for name, spec in run.load("workloads.json")["workloads"].items():
        why = {w["name"]: w["why"] for w in run.load("BENCHMARK.json", ROOT)["workloads"]}
        assert all(p in why[name] for p in run.documented_params(spec))
