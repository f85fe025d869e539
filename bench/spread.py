"""Run-to-run spread of the end-to-end metrics, and the baseline record.

    python3 bench/spread.py --workloads odd_ladders,painleve_cli --seeds 1-10
    python3 bench/spread.py --seeds 1-10 --record   # rewrite baseline.json

Runs bench/run.py once per (workload, seed), one run at a time, and
reports for every end-to-end metric the median and the distance between
the first and third quartiles (statistics.quantiles, n=4) as a share of
the median.  With --record it writes those figures, the machine, and the
run digest (every job's output, in order) of every workload and seed into
bench/baseline.json (replacing the entries of the workloads it ran);
run.py then fails any later run of a recorded seed whose run digest
differs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
from run import END_TO_END, OUT_DIR  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {}
    digests = {}
    for workload in args.workloads.split(","):
        values = {name: [] for name, _ in END_TO_END}
        digests[workload] = {}
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                raise SystemExit("run failed: %s" % " ".join(cmd))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(OUT_DIR / ("last-%s-seed%d.json" % (workload, seed))) as fh:
                digests[workload][str(seed)] = json.load(fh)["info"]["run_digest"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print("%s seed %d: %s" % (workload, seed, ", ".join(
                "%s=%.5g" % (n, v[-1]) for n, v in values.items())), flush=True)
        summary[workload] = {}
        for name, unit in END_TO_END:
            vals = values[name]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            summary[workload][name] = {
                "unit": unit, "median": med, "q1": q1, "q3": q3,
                "spread": spread, "bound": bounds[name], "values": vals,
            }
            print("  %-14s median %12.6g %-5s spread %6.2f%% (bound %g%%)" % (
                name, med, unit, 100 * spread, 100 * bounds[name]))

    if args.record:
        with open(BENCH_DIR / "baseline.json") as fh:
            record = json.load(fh)
        record.update({
            "machine": {
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "platform": platform.platform(),
            },
            "seconds": seconds,
            "seeds": args.seeds,
        })
        record.setdefault("end_to_end", {}).update(summary)
        record.setdefault("run_digests", {}).update(digests)
        with open(BENCH_DIR / "baseline.json", "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
