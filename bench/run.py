"""dresschain benchmark: one command, three seeded closed-loop workloads.

    python3 bench/run.py --workload odd_ladders --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Every measured job set runs in a fresh
worker interpreter (bench/worker.py), one at a time, so the orthopoly
caches start empty as they do for every CLI invocation and nothing else
runs beside the workload.

The work of a run is fixed per workload, so that a seed always measures
the same inputs whatever the speed of the host or of the code: --trace 0
runs ROUNDS whole workload rounds and prints the end-to-end metrics;
--trace 1 runs three pairs of untraced and traced workers over the first
TRACE_JOBS jobs of round 0, prints the per-layer metrics computed from the
traced workers' span dumps, and the tracing overhead from the medians of
the pairs.  Both are sized to take about --seconds (run_seconds in
BENCHMARK.json) on the baseline machine; --seconds itself sizes nothing.

Every job's output is checked against its exact expected value.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
The exit code is 0 only when every job was correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH_DIR))
from tracer import LAYER_METRICS, layer_metrics, median_metrics, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("verified_frac", "frac"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)
# Whole rounds per untraced run.  A round is one draw of the seed's inputs
# (flip orders, alphas); two per run halve the seed-to-seed variance of
# the work measured.  painleve_cli rounds hold 57 jobs, so a run holds 114.
ROUNDS = 2
# Jobs of round 0 run by each of the six trace workers.
TRACE_JOBS = {"odd_ladders": 160, "even_alpha_sweep": 160, "painleve_cli": 16}
SETUP_SAMPLES = 25  # set-ups per run; setup_s is their median
WORKER_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def run_worker(spec: dict) -> dict:
    """Run one worker to completion; return its result and set-up time."""
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / ("worker-%s.json" % spec["workload"])
    spec = dict(spec, out_path=str(out_path))
    t_spawn = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(spec)],
        cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
    )
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise BenchError("worker exited with code %d" % code)
    with open(out_path) as fh:
        result = json.load(fh)
    out_path.unlink()
    result["setup_s"] = result["ready"] - t_spawn
    return result


def run_digest(rounds) -> str:
    """sha256 over every job's digest, in run order."""
    digests = (d for r in rounds for d in r["digests"])
    return hashlib.sha256("\n".join(map(str, digests)).encode()).hexdigest()


def percentile_ms(times, q: int) -> float:
    if len(times) < 2:
        return times[0] * 1e3
    return statistics.quantiles(times, n=100, method="inclusive")[q - 1] * 1e3


def measure(base: dict):
    """Untraced run: ROUNDS whole rounds, with the set-up samples spread
    between them."""
    probe = dict(base, round=0, setup_only=True)
    rounds, setups = [], []
    for index in range(ROUNDS):
        setups.extend(run_worker(probe)["setup_s"]
                      for _ in range(SETUP_SAMPLES // ROUNDS - 1))
        res = run_worker(dict(base, round=index))
        rounds.append(res)
        setups.append(res["setup_s"])
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(probe)["setup_s"])

    times = [t for r in rounds for t in r["times"]]
    failed = [k for r in rounds for k in r["failed"]]
    attempted = len(times)
    metrics = {
        # per second of job time: the output checks between jobs are the
        # benchmark's own work
        "jobs_per_s": (attempted - len(failed)) / sum(times),
        "job_p50_ms": percentile_ms(times, 50),
        "job_p90_ms": percentile_ms(times, 90),
        "verified_frac": (attempted - len(failed)) / attempted,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r["rss_kb"] for r in rounds) / 1024,
    }
    info = {
        "rounds": len(rounds),
        "jobs": attempted,
        "failed_frac": len(failed) / attempted,
        "failed_jobs": failed,
        "setup_samples": len(setups),
        "run_digest": run_digest(rounds),
    }
    return attempted, failed, metrics, info


def trace(base: dict):
    """Traced run: pairs (U, T), (T, U), (U, T) of untraced and traced
    workers on the same first jobs of round 0."""
    fixed = dict(base, round=0)
    if fixed.get("max_jobs") is None:
        fixed["max_jobs"] = TRACE_JOBS[base["workload"]]
    untraced, traced, per_worker, selfs = [], [], [], []
    for with_trace in (False, True, True, False, False, True):
        if not with_trace:
            untraced.append(run_worker(fixed))
            continue
        dump_path = OUT_DIR / ("trace-%s-seed%d-%d.json"
                               % (base["workload"], base["seed"], len(traced)))
        traced.append(run_worker(dict(fixed, trace=True, dump_path=str(dump_path))))
        with open(dump_path) as fh:
            dump = json.load(fh)
        per_worker.append(layer_metrics(dump))
        selfs.append(self_times(dump))
    metrics = median_metrics(per_worker)
    metrics["trace.overhead_frac"] = (
        statistics.median(sum(r["times"]) for r in traced)
        / statistics.median(sum(r["times"]) for r in untraced) - 1
    )
    workers = untraced + traced
    attempted = sum(r["jobs"] for r in workers)
    failed = [k for r in workers for k in r["failed"]]
    # every layer's self time, the benchmark loop's ("job") included;
    # they add up to trace.job_wall_s
    layer_self = {k: round(v, 6) for k, v in median_metrics(selfs).items()}
    info = {"jobs": fixed["max_jobs"], "pairs": len(traced),
            "failed_frac": len(failed) / attempted, "failed_jobs": failed,
            "self_s_by_layer": layer_self}
    return attempted, failed, metrics, info


def load_recorded_digests() -> dict:
    with open(BENCH_DIR / "baseline.json") as fh:
        return json.load(fh).get("run_digests", {})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-jobs", type=int, default=None,
                        help="self-check only: cap the jobs of each worker")
    parser.add_argument("--alter-expected", type=int, default=None,
                        help="self-check only: corrupt one job's expected output")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dresschain" / "__init__.py").is_file():
        print("bench: run from a checkout root that has src/dresschain",
              file=sys.stderr)
        return 2
    base = {"workload": args.workload, "seed": args.seed,
            "max_jobs": args.max_jobs, "alter_expected": args.alter_expected}
    t_start = perf_counter()
    try:
        if args.trace:
            attempted, failed, metrics, info = trace(base)
        else:
            attempted, failed, metrics, info = measure(base)
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2
    info["elapsed_s"] = round(perf_counter() - t_start, 1)

    n_failed = len(failed)
    if not args.trace and args.max_jobs is None:
        recorded = load_recorded_digests().get(args.workload, {}).get(str(args.seed))
        info["run_digest_recorded"] = recorded
        if recorded is not None and recorded != info["run_digest"]:
            # the record does not say which job differs: every job counts
            info["digest_mismatch"] = True
            n_failed = attempted
            info["failed_frac"] = 1.0
            metrics["verified_frac"] = 0.0

    units = dict(LAYER_METRICS if args.trace else END_TO_END)
    with open(OUT_DIR / ("last-%s-seed%d%s.json" % (
            args.workload, args.seed, "-trace" if args.trace else "")), "w") as fh:
        json.dump({"info": info, "metrics": metrics}, fh, indent=1)
    print("workload %s seed %d: %s" % (
        args.workload, args.seed,
        ", ".join("%s=%s" % kv for kv in info.items() if kv[0] != "failed_jobs")))
    for key in info["failed_jobs"]:
        print("FAILED job: %s" % key)
    for name, unit in units.items():
        print("  %-32s %14.6g %s" % (name, metrics[name], unit))
    print(json.dumps({
        "correct": n_failed == 0,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if n_failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
