"""The scripts under scripts/ run end to end against the library."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_enumerate_cyclic():
    lines = run_script("enumerate_cyclic.py")
    assert lines[-1] == (
        "36 structures (36 degenerate) for period 5, shift 3, bound 2"
    )
    assert len(lines) == 36 + 2


def test_fit_pv_parameters():
    # underdetermined cases admit a line of parameters; the script checks
    # the implemented map on that line instead of a unique solution
    lines = run_script("fit_pv_parameters.py")
    assert len(lines) == 26
    assert all(
        line.endswith("== implemented map")
        or line.endswith("(implemented map verified on the line)")
        for line in lines
    )
    assert sum(line.endswith("== implemented map") for line in lines) == 24
