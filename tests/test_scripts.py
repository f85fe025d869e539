"""The script under scripts/ and README's library example run end to end
against the library."""

import os
import re
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


def test_readme_library_example():
    # the python block of README's Library section, as written
    section = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
