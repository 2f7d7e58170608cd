import os
import subprocess
import sys
from pathlib import Path

import pytest

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
])
def test_bad_input_exits_2(tmp_path, script, args):
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr
