import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from math import comb
from pathlib import Path

import pytest

from klrblocks import crystal, graded
from klrblocks.cartan import RootVector
from klrblocks.cli import main
from klrblocks.morita import (ALL_CHECKS, BridgeError, iter_bridges, one_block_bridge,
                              verify_bridge)

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script,args,first_line", [
    ("verify_bridges.py", ["--max-n", "4"],
     'kappa_c=0 a0=1 beta={"0": 1}  count=ok  graded=ok  dominance=ok  '
     "kleshchev=ok  goodpath=ok"),
    ("rectangle_table.py", ["--max-kappa", "1", "--max-a0", "4"],
     "kappa_c=0 a0=1 dim=   1  gdim=1"),
])
def test_runs_without_pythonpath(tmp_path, script, args, first_line):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == first_line


def test_broken_pipe_exits_1_quietly(tmp_path):
    # stdout is a pipe whose read end is already closed
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, str(SCRIPTS / "verify_bridges.py"), "--max-n", "4"],
            cwd=tmp_path, stdout=w, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (1, "")


@pytest.mark.parametrize("script,args", [
    ("verify_bridges.py", ["--checks", "bogus"]),
    ("verify_bridges.py", ["--checks", "count,bogus"]),
    ("verify_bridges.py", ["--max-n", "-1"]),
    ("verify_bridges.py", ["--kappa-c", "0", "-1"]),
    ("rectangle_table.py", ["--max-kappa", "-1"]),
    ("rectangle_table.py", ["--max-a0", "0"]),
    ("verify_bridges.py", ["--max-n", "0", "--checks", "bogus"]),
    ("verify_bridges.py", ["--beta", '{"0":1}']),
    ("verify_bridges.py", ["--kappa-c", "0", "1", "--beta", '{"0":1}']),
    ("verify_bridges.py", ["--kappa-c", "0", "--max-n", "3", "--beta", '{"0":1}']),
    ("verify_bridges.py", ["--kappa-c", "0", "--beta", "{"]),
    ("verify_bridges.py", ["--kappa-c", "0", "--beta", '{"-1":1,"0":1}']),
    ("verify_bridges.py", ["--kappa-c", "0", "0", "--max-n", "2"]),
    ("maximal_blocks.py", ["--max-a0", "0"]),
    ("maximal_blocks.py", ["--max-a0", "1", "--kappa-c", "-1"]),
])
def test_bad_input_exits_2(tmp_path, script, args):
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr


def verify_bridges(tmp_path, *args):
    return subprocess.run([sys.executable, str(SCRIPTS / "verify_bridges.py"), *args],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)


BETA = '{"0": 2, "1": 2, "2": 1}'


def test_beta_row_is_the_sweeps(tmp_path):
    sweep = verify_bridges(tmp_path, "--kappa-c", "0", "--max-n", "5").stdout
    one = verify_bridges(tmp_path, "--kappa-c", "0", "--beta", BETA)
    assert one.returncode == 0, one.stderr
    rows = [line for line in sweep.splitlines() if f" beta={BETA} " in line]
    assert one.stdout.splitlines() == rows + ["1 bridges, 0 failing"]
    assert len(rows) == 1


def test_beta_json_report_is_the_sweeps(tmp_path):
    sweep = json.loads(verify_bridges(tmp_path, "--kappa-c", "0", "--max-n", "5",
                                      "--json").stdout)
    one = json.loads(verify_bridges(tmp_path, "--kappa-c", "0", "--beta", BETA,
                                    "--json").stdout)
    assert one == [r for r in sweep if r["bridge"]["beta"] == json.loads(BETA)]
    assert len(one) == 1


def test_beta_errors_are_the_clis(tmp_path, capsys):
    # no zero node, and a bridge whose type-C block is empty
    for beta in ('{"1":2}', '{"0":1,"5":1}'):
        proc = verify_bridges(tmp_path, "--kappa-c", "0", "--beta", beta)
        code = main(["verify", "--kappa-c", "0", "--beta", beta])
        err = capsys.readouterr().err
        assert err.startswith("error: ") and code == 2
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", err)


@pytest.mark.parametrize("kappa_c", [0, 1])
def test_one_block_bridge_is_the_sweeps(kappa_c):
    # the one block that both --beta entry points check is the sweep's
    # bridge, shapes and all
    for b in iter_bridges(kappa_c, 9):
        assert one_block_bridge(kappa_c, b.beta) == b
    # rho's content and one node of residue 9: a bridge, but no partition
    empty = RootVector({0: 1, 9: 1} if kappa_c == 0 else {0: 1, 1: 1, 9: 1})
    with pytest.raises(BridgeError, match=f"charge {kappa_c} has content"):
        one_block_bridge(kappa_c, empty)


def test_maximal_blocks_lines(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(SCRIPTS / "maximal_blocks.py"),
                           "--max-a0", "3"],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3
    for a0, line in enumerate(lines, start=1):
        head, *cells, verdict, rss = line.split("  ")
        assert head == f"a0={a0} height={2 * a0 * a0} shapes={comb(2 * a0, a0)}"
        assert [cell.split("=")[0] for cell in cells] == list(ALL_CHECKS)
        assert all(re.fullmatch(r"\d+\.\d{3}s", cell.split("=")[1]) for cell in cells)
        assert verdict == "pass"
        assert re.fullmatch(r"peak_rss_mb=\d+\.\d", rss)


def test_maximal_blocks_at_kappa_c(tmp_path):
    # the maximal block of defect a0 at kappa_c = 1: the block of the
    # rectangle (a0^(2 a0 + 2)), of height 2 a0 (a0 + 1), with C(2 a0 + 1, a0)
    # shapes
    proc = subprocess.run([sys.executable, str(SCRIPTS / "maximal_blocks.py"),
                           "--kappa-c", "1", "--max-a0", "2"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    heads = [line.split("  ")[0] for line in proc.stdout.splitlines()]
    assert heads == [f"a0={a0} height={2 * a0 * (a0 + 1)} shapes={comb(2 * a0 + 1, a0)}"
                     for a0 in (1, 2)]
    assert all(line.split("  ")[-2] == "pass" for line in proc.stdout.splitlines())


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_maximal_blocks_times_each_check_cold(monkeypatch, capsys):
    # every check runs alone, in its own verify_bridge call, on empty memos
    script = load_script("maximal_blocks")
    real, calls = script.verify_bridge, []

    def recording(b, checks):
        sizes = [memo.cache_info().currsize
                 for memo in (crystal._kleshchev, crystal._good_walk, graded._gdim,
                              graded.c_walk, graded.a_walk)]
        calls.append((b.a0, tuple(checks), sizes))
        return real(b, checks)

    monkeypatch.setattr(script, "verify_bridge", recording)
    monkeypatch.setattr(sys, "argv", ["maximal_blocks.py", "--max-a0", "2"])
    assert script.main() == 0
    assert len(capsys.readouterr().out.splitlines()) == 2
    assert calls == [(a0, (check,), [0] * 5)
                     for a0 in (1, 2) for check in ALL_CHECKS]


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_verify_bridges_writes_each_row_before_the_next_report(monkeypatch, extra):
    script = load_script("verify_bridges")
    out, written = io.StringIO(), []

    def recording(b, checks):
        written.append(len(out.getvalue()))
        return verify_bridge(b, checks)

    monkeypatch.setattr(script, "verify_bridge", recording)
    monkeypatch.setattr(sys, "argv", ["verify_bridges.py", "--kappa-c", "0", "1",
                                      "--max-n", "6", *extra])
    with redirect_stdout(out):
        assert script.main() == 0
    # the first report is made before anything is written
    assert written[0] == 0 and len(written) > 3
    assert all(a < b for a, b in zip(written, written[1:]))


@pytest.mark.parametrize("kappa_c, max_n", [((0, 1), 6), ((0,), 0)])
def test_verify_bridges_json_is_the_dump_of_all_reports(monkeypatch, kappa_c, max_n):
    reports = [verify_bridge(b) for k in kappa_c for b in iter_bridges(k, max_n)]
    monkeypatch.setattr(sys, "argv", ["verify_bridges.py", "--kappa-c",
                                      *map(str, kappa_c), "--max-n", str(max_n), "--json"])
    out = io.StringIO()
    with redirect_stdout(out):
        assert load_script("verify_bridges").main() == 0
    assert out.getvalue() == json.dumps(reports, indent=2) + "\n"
