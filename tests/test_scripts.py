import hashlib
import importlib.util
import json
import os
import pkgutil
import re
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import klrblocks
from klrblocks import graded, morita
from klrblocks.morita import ALL_CHECKS

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
NO_PYTHONPATH = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


@pytest.mark.parametrize("script,args,first_line", [
    ("rectangle_table.py", ["--max-kappa", "1", "--max-a0", "4"],
     "kappa_c=0 a0=1 dim=   1  gdim=1"),
])
def test_runs_without_pythonpath(tmp_path, script, args, first_line):
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          cwd=tmp_path, env=NO_PYTHONPATH, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == first_line


def test_rectangle_table_default_output_is_pinned(tmp_path):
    proc = subprocess.run([sys.executable, str(SCRIPTS / "rectangle_table.py")],
                          cwd=tmp_path, env=NO_PYTHONPATH, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "eceb2ee73f8246c6e09035953e3a200778eae543c8606b85b9803dea827020f1")


@pytest.mark.parametrize("script", sorted(p.name for p in SCRIPTS.glob("*.py")))
def test_every_script_is_documented_and_runs_from_anywhere(tmp_path, script):
    assert f"scripts/{script}" in (ROOT / "README.md").read_text()
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), "--help"],
                          cwd=tmp_path, env=NO_PYTHONPATH, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("script,args", [
    ("rectangle_table.py", []),
    ("maximal_blocks.py", ["--max-a0", "2"]),
])
def test_broken_pipe_exits_1_quietly(tmp_path, script, args):
    # stdout is a pipe whose read end is already closed
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, str(SCRIPTS / script), *args],
            cwd=tmp_path, stdout=w, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (1, "")


@pytest.mark.parametrize("script,args", [
    ("rectangle_table.py", ["--max-kappa", "-1"]),
    ("rectangle_table.py", ["--max-a0", "0"]),
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


def test_maximal_blocks_lines(tmp_path):
    proc = subprocess.run([sys.executable, str(SCRIPTS / "maximal_blocks.py"),
                           "--max-a0", "3"],
                          cwd=tmp_path, env=NO_PYTHONPATH, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3
    for a0, line in enumerate(lines, start=1):
        head, *cells, verdict = line.split("  ")
        assert head == f"a0={a0} height={2 * a0 * a0} shapes={comb(2 * a0, a0)}"
        assert [cell.split("=")[0] for cell in cells] == list(ALL_CHECKS)
        # seconds, seconds at the benchmark's reference speed, peak RSS
        assert all(re.fullmatch(r"\d+\.\d{3}s/\d+\.\d{3}s-ref/\d+\.\dMB", cell.split("=")[1])
                   for cell in cells)
        assert verdict == "pass"


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
    assert all(line.split("  ")[-1] == "pass" for line in proc.stdout.splitlines())


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def logged(path, *record):
    # each check runs in a child process, which can pass nothing back but a file
    with open(path, "a") as log:
        log.write(json.dumps(record) + "\n")


def read_log(path):
    return [tuple(json.loads(line)) for line in path.read_text().splitlines()]


def test_maximal_blocks_times_each_check_cold(monkeypatch, capsys, tmp_path):
    # every check runs alone, in its own verify_bridge call, on empty memos,
    # in a process of its own
    script = load_script("maximal_blocks")
    real, log = script.verify_bridge, tmp_path / "calls"

    def recording(b, checks):
        sizes = [len(morita._C_KLESHCHEV), len(morita._A_KLESHCHEV), len(morita._C_GOOD)] + [
            memo.cache_info().currsize
            for memo in (graded._gdim, morita.c_walk, morita.a_walk, morita.rectangle,
                         morita.rho_gdim)]
        logged(log, b.a0, checks, sizes, os.getpid())
        return real(b, checks)

    monkeypatch.setattr(script, "verify_bridge", recording)
    monkeypatch.setattr(sys, "argv", ["maximal_blocks.py", "--max-a0", "2"])
    assert script.main() == 0
    assert len(capsys.readouterr().out.splitlines()) == 2
    calls = read_log(log)
    assert [call[:3] for call in calls] == [(a0, [check], [0] * 8)
                                            for a0 in (1, 2) for check in ALL_CHECKS]
    assert len({pid for *_, pid in calls} - {os.getpid()}) == len(calls)


# maximal_blocks.py run with its graded check holding 100 MB more than the
# others: a new interpreter, whose peak before the checks is small
GRADED_GROWS = """\
import importlib.util, sys
spec = importlib.util.spec_from_file_location("maximal_blocks", sys.argv[1])
script = importlib.util.module_from_spec(spec)
spec.loader.exec_module(script)
real = script.verify_bridge

def graded_grows(b, checks):
    ballast = b"x" * (100 << 20) if checks == ["graded"] else b""  # held until return
    return real(b, checks)

script.verify_bridge = graded_grows
sys.argv[1:] = ["--max-a0", "1"]
sys.exit(script.main())
"""


def test_maximal_blocks_peak_is_each_checks_own(tmp_path):
    # the graded check reads 100 MB more than the others, and the check
    # after it does not inherit its peak
    proc = subprocess.run([sys.executable, "-c", GRADED_GROWS,
                           str(SCRIPTS / "maximal_blocks.py")],
                          cwd=tmp_path, env=NO_PYTHONPATH, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    _, *cells, _ = proc.stdout.rstrip("\n").split("  ")
    # the peak is each cell's last field
    peaks = {cell.split("=")[0]: float(cell.split("/")[-1][:-2]) for cell in cells}
    others = [peaks[check] for check in ALL_CHECKS if check != "graded"]
    assert peaks["graded"] > max(others) + 90
    assert peaks["dominance"] < peaks["graded"] - 90


@pytest.mark.parametrize("script,work,argv", [
    ("maximal_blocks", "verify_bridge", ["--max-a0", "2"]),
    ("rectangle_table", "gdim_specht_weight", []),
])
def test_ctrl_c_exits_130_quietly(monkeypatch, capsys, script, work, argv):
    # Ctrl-C in the work loop prints one line and no traceback, as the
    # command line does
    module = load_script(script)

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(module, work, interrupted)
    monkeypatch.setattr(sys, "argv", [f"{script}.py", *argv])
    assert module.main() == 130
    assert capsys.readouterr() == ("", "error: interrupted\n")


def test_maximal_blocks_goes_on_after_running_out_of_memory(monkeypatch, capsys, tmp_path):
    # a check that runs out of memory is written as such, and every later
    # check still runs, on cleared memos
    script = load_script("maximal_blocks")
    real, log = script.verify_bridge, tmp_path / "calls"

    def graded_runs_out(b, checks):
        logged(log, b.a0, checks, morita.c_walk.cache_info().currsize)
        if checks == ["graded"]:
            morita.c_walk(*morita.c_state(b.rho, b.kappa_c))  # fills a memo
            raise MemoryError
        return real(b, checks)

    monkeypatch.setattr(script, "verify_bridge", graded_runs_out)
    monkeypatch.setattr(sys, "argv", ["maximal_blocks.py", "--max-a0", "2"])
    assert script.main() == 1
    assert read_log(log) == [(a0, [check], 0) for a0 in (1, 2) for check in ALL_CHECKS]
    for line in capsys.readouterr().out.splitlines():
        _, *cells, verdict = line.split("  ")
        assert [cell.split("=")[1].split("/")[0] == "MemoryError" for cell in cells] == [
            check == "graded" for check in ALL_CHECKS]
        assert verdict == "FAIL"


def test_maximal_blocks_check_that_dies_fails_the_block(monkeypatch, capsys):
    # a check whose process ends without a verdict fails its block, and the
    # run goes on
    script = load_script("maximal_blocks")
    real = script.verify_bridge

    def kleshchev_breaks(b, checks):
        if checks == ["kleshchev"]:
            raise RuntimeError("broken")
        return real(b, checks)

    monkeypatch.setattr(script, "verify_bridge", kleshchev_breaks)
    monkeypatch.setattr(sys, "argv", ["maximal_blocks.py", "--max-a0", "2"])
    assert script.main() == 1
    for line in capsys.readouterr().out.splitlines():
        _, *cells, verdict = line.split("  ")
        assert [cell.split("=")[1].split("/")[0] == "died" for cell in cells] == [
            check == "kleshchev" for check in ALL_CHECKS]
        assert verdict == "FAIL"


def test_query_kinds_lines(tmp_path):
    # one line per kind of the queries pool, in pool order; the run reads
    # bench/ and writes nothing there or into the package
    def listing():
        return sorted((p, p.stat().st_mtime_ns)
                      for root in (ROOT / "bench", ROOT / "src" / "klrblocks")
                      for p in root.rglob("*"))

    before = listing()
    proc = subprocess.run([sys.executable, str(SCRIPTS / "query_kinds.py")],
                          cwd=tmp_path, env=NO_PYTHONPATH, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines] == [
        "block", "tableaux", "kleshchev", "gdim", "gdim_weight", "bridge"]
    for line in lines:
        assert re.fullmatch(r"\w+ +cold +\d+\.\d us +\d+\.\d us-ref  "
                            r"warm +\d+\.\d us +\d+\.\d us-ref  \(300 queries\)", line), line
    assert listing() == before


def test_every_memo_is_cleared():
    # the memos of the package's modules, found by their cache_clear, are
    # those maximal_blocks.py clears before each check and those the README
    # lists, so a memo added without an entry in either fails here; the
    # script empties the bridge's three dict memos too
    found = set()
    for info in pkgutil.iter_modules(klrblocks.__path__):
        module = importlib.import_module(f"klrblocks.{info.name}")
        found.update(memo_name(obj) for obj in vars(module).values()
                     if hasattr(obj, "cache_clear"))
    script = load_script("maximal_blocks")
    assert {memo_name(memo) for memo in script.MEMOS} == found
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("Eight memos live"):readme.index("Each is a `functools")]
    assert set(re.findall(r"^- `(\w+\.\w+)`", section, re.M)) == found
    assert len(found) == 8
    assert [id(table) for table in script.TABLES] == [
        id(morita._C_KLESHCHEV), id(morita._A_KLESHCHEV), id(morita._C_GOOD)]


def memo_name(memo):
    """A memo's module within the package and its name, as the README gives
    them."""
    return f"{memo.__module__.rpartition('.')[2]}.{memo.__qualname__}"


# bench_pairs.py against two checkouts whose bench/run.py prints canned
# lines: each stub logs its checkout and argv, prints a line of progress,
# then the result pinned for its seed
STUB_RUN = """\
import json, sys
from pathlib import Path
root = Path.cwd()
with open(root.parent / "log", "a") as f:
    f.write(root.name + " " + " ".join(sys.argv[1:]) + "\\n")
seed = sys.argv[sys.argv.index("--seed") + 1]
print("progress")
print(json.dumps(json.loads((root / "canned.json").read_text())[seed]))
"""
STUB_BENCHMARK = {"run_seconds": 3, "end_to_end": [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.15},
    {"name": "ok_ratio", "unit": "ratio", "better": "higher", "bound": 0.0005},
]}


def stub_result(wall_s, correct=True, failed=0, ok_ratio=None):
    ok = (10 - failed) / 10 if ok_ratio is None else ok_ratio
    return {"correct": correct, "attempted": 10, "failed": failed, "metrics": {
        "wall_s": {"value": wall_s, "unit": "s"},
        "ok_ratio": {"value": ok, "unit": "ratio"}}}


def stub_checkouts(tmp_path, parent, change):
    """Two stub checkouts answering seeds 5, 6, ... with the given results."""
    for name, results in (("parent", parent), ("change", change)):
        root = tmp_path / name
        (root / "bench").mkdir(parents=True)
        (root / "bench" / "run.py").write_text(STUB_RUN)
        (root / "BENCHMARK.json").write_text(json.dumps(STUB_BENCHMARK))
        canned = {str(seed): r for seed, r in enumerate(results, 5)}
        (root / "canned.json").write_text(json.dumps(canned))
    out = tmp_path / "out"
    out.mkdir()
    return out


def bench_pairs(tmp_path, pairs, *extra):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / "bench_pairs.py"), "--parent",
         str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
         "--workload", "queries", "--pairs", str(pairs), "--first-seed", "5", *extra],
        cwd=tmp_path / "out", capture_output=True, text=True, timeout=120)


def test_bench_pairs_alternates_and_summarises(tmp_path):
    parent = [stub_result(w) for w in (1.0, 1.2, 1.1, 1.3)]
    change = [stub_result(w) for w in (0.9, 1.3, 1.0, 1.0)]
    out = stub_checkouts(tmp_path, parent, change)
    proc = bench_pairs(tmp_path, 4, "--label", "t")
    assert proc.returncode == 0, proc.stderr
    # the parent runs first on odd pairs; --seconds defaults to run_seconds
    runs = (tmp_path / "log").read_text().splitlines()
    order = ["parent", "change", "change", "parent"] * 2
    assert [r.split()[0] for r in runs] == order
    seeds = [5, 5, 6, 6, 7, 7, 8, 8]
    assert [r.split(" ", 1)[1] for r in runs] == [
        f"--workload queries --seed {s} --seconds 3 --trace 0" for s in seeds]
    lines = proc.stdout.splitlines()
    assert lines[0] == "queries: 4 pairs, seeds 5-8, 3 s per run"
    # medians 1.15 and 1.0, quartiles of the parent 1.025 and 1.275, 3 wins
    # of 4: no gain, and the parent's spread of 0.25 is wider than the
    # bound, 0.15 of 1.15, so unresolved; on ok_ratio all 4 pairs tie
    assert lines[1].split()[-1] == "verdict"
    assert lines[2].split() == ["wall_s", "s", "1.15", "1.025", "1.275", "1",
                                "-13.0%", "3/4", "unresolved"]
    assert lines[3].split() == ["ok_ratio", "ratio", "1", "1", "1", "1", "+0.0%", "0/4",
                                "-"]
    for side, results in (("parent", parent), ("change", change)):
        written = (out / f"BENCH_t_{side}.json").read_text()
        assert written == json.dumps(results[-1]) + "\n"
    # ten pairs against a parent whose wall_s has median 1.0 and quartiles
    # 0.95 and 1.05, inside the bound, or, wide, median 1.4 and quartiles
    # 1.15 and 1.65, beyond it; the verdicts of wall_s and ok_ratio
    narrow = (0.9, 0.95, 0.95, 1.0, 1.0, 1.0, 1.0, 1.05, 1.05, 1.1)
    wide = (1.0, 1.2, 1.4, 1.6, 1.8) * 2
    for k, (parent, walls, ok_ratio, verdicts) in enumerate([
        # 9 of 10 wins and a median gap of 0.2, beyond the IQR of 0.1;
        # ok_ratio 0.999 against 1 is worse by more than its bound 0.0005
        (narrow, [0.8] * 9 + [2.0], 0.999, ["gain", "worse"]),
        # 8 of 10 wins with the same medians: not a gain
        (narrow, [0.8] * 8 + [2.0] * 2, 1.0, ["-", "-"]),
        # 9 of 10 wins, by a median gap of 0.06, inside the IQR
        (narrow, [0.95 - 0.002 * j for j in range(10)], 1.0, ["-", "-"]),
        # 16% slower than the parent's median, beyond wall_s's bound 0.15;
        # ok_ratio 0.9996 is inside its bound
        (narrow, [1.16] * 10, 0.9996, ["worse", "-"]),
        # 21% slower, but the parent's spread of 0.5 hides it
        (wide, [1.7] * 10, 1.0, ["unresolved", "-"]),
        # every run of the change beats every run of the parent, so the
        # spread hides nothing: a gap of 0.45 inside the IQR, then a gain
        (wide, [0.95] * 10, 1.0, ["-", "-"]),
        (wide, [0.8] * 10, 1.0, ["gain", "-"]),
    ]):
        case = tmp_path / f"case{k}"
        stub_checkouts(case, [stub_result(w) for w in parent],
                       [stub_result(w, ok_ratio=ok_ratio) for w in walls])
        proc = bench_pairs(case, 10)
        assert proc.returncode == 0, proc.stderr
        assert [line.split()[-1] for line in proc.stdout.splitlines()[2:]] == verdicts


@pytest.mark.parametrize("side", ["parent", "change"])
def test_bench_pairs_refuses_a_compiled_checkout(tmp_path, side):
    # a checkout holding the package's bytecode would time loading it, not
    # compiling, in setup_s: refused before any run
    out = stub_checkouts(tmp_path, [stub_result(1.0)] * 2, [stub_result(1.0)] * 2)
    (tmp_path / side / "src" / "klrblocks" / "__pycache__").mkdir(parents=True)
    proc = bench_pairs(tmp_path, 2, "--label", "t")
    assert proc.returncode == 2
    assert "refused" in proc.stderr and str(tmp_path / side) in proc.stderr
    assert "__pycache__" in proc.stderr and proc.stdout == ""
    assert not (tmp_path / "log").exists()
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("bad", [stub_result(1.0, correct=False),
                                 stub_result(1.0, failed=1)])
def test_bench_pairs_refuses_a_bad_run(tmp_path, bad):
    out = stub_checkouts(tmp_path, [stub_result(1.0)] * 3,
                         [stub_result(1.0), bad, stub_result(1.0)])
    proc = bench_pairs(tmp_path, 3, "--label", "t")
    assert proc.returncode == 1
    assert "refused" in proc.stderr and "seed 6" in proc.stderr
    assert list(out.iterdir()) == []
