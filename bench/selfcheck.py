"""Fast self-check of the benchmark itself (about half a minute).

    python3 bench/selfcheck.py

Run from a checkout root.  For every workload, on a handful of jobs, it
checks that:

* an untraced run emits every end-to-end metric of BENCHMARK.json with its
  unit, and every job verifies (failed_frac 0);
* a traced run emits every per-layer metric with its unit;
* altering one job's expected output fails that job (in every round) and
  the run;

and that, without the engine's sources, the benchmark exits non-zero and
prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(BENCH_DIR))
from run import OUT_DIR, ROUNDS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*args: str, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--seed", "3", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc


def expect(cond: bool, what: str, proc=None) -> None:
    if not cond:
        if proc is not None:
            sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit("selfcheck FAILED: " + what)


def check_metrics(result: dict, declared: list, what: str, proc) -> None:
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    expect(got == want, "%s metrics/units differ: %r vs %r" % (what, got, want), proc)
    for name, entry in result["metrics"].items():
        expect(isinstance(entry["value"], (int, float)), "%s %s not a number" % (what, name))


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    for workload in WORKLOADS:
        w = ["--workload", workload, "--seconds", "1"]

        code, result, proc = bench(*w, "--trace", "0", "--max-jobs", "4")
        expect(code == 0 and result["correct"], workload + " untraced run", proc)
        expect(result["attempted"] == 4 * ROUNDS and result["failed"] == 0,
               workload + " failed_frac is not 0", proc)
        check_metrics(result, declared["end_to_end"], workload + " untraced", proc)

        code, result, proc = bench(*w, "--trace", "1", "--max-jobs", "3")
        expect(code == 0 and result["correct"], workload + " traced run", proc)
        check_metrics(result, declared["per_layer"], workload + " traced", proc)

        code, result, proc = bench(*w, "--trace", "0", "--max-jobs", "3",
                                   "--alter-expected", "1")
        expect(code == 1 and not result["correct"]
               and result["failed"] == ROUNDS,
               workload + " altered expected output was not caught", proc)
        print("%s: ok" % workload, flush=True)

    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in declared["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, result, proc = bench("--workload", WORKLOADS[0], "--seconds", "1",
                               "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    expect(code != 0 and result is None, "bare directory run did not fail cleanly", proc)
    print("bare directory: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
