"""One benchmark worker: a fresh interpreter that sets up one workload
round and runs its jobs in a closed loop.

    python3 bench/worker.py '<spec json>'

The spec says which round to generate, how many of its jobs to run (all,
or the first max_jobs), whether to trace, and where to write the result.
Run by bench/run.py; the parent's perf_counter and this one's share the
system-wide monotonic clock, which is how set-up time is measured from
interpreter start to the end of input generation.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()


def _import_engine():
    """Import dresschain from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import dresschain
    import dresschain.chain
    import dresschain.cli
    import dresschain.maya
    import dresschain.orthopoly

    origin = Path(dresschain.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit("dresschain was imported from %s, not %s" % (origin, src))
    return dresschain


def _cache_misses(dc) -> int:
    return (dc.orthopoly.hermite.cache_info().misses
            + dc.orthopoly.laguerre.cache_info().misses)


def main(spec: dict) -> None:
    dc = _import_engine()
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    jobs = workloads.GENERATORS[spec["workload"]](dc, spec["seed"], spec["round"])
    ready = perf_counter()  # set-up ends: the program's inputs exist
    if spec.get("setup_only"):
        with open(spec["out_path"], "w") as fh:
            json.dump({"ready": ready}, fh)
        return
    if spec.get("max_jobs") is not None:
        jobs = jobs[: spec["max_jobs"]]

    # the expected outputs are the benchmark's own work: neither set-up
    # nor job time
    with open(BENCH_DIR / "reference.json") as fh:
        ref = json.load(fh)
    expected = [job.expect(ref) for job in jobs]
    if spec.get("alter_expected") is not None:
        expected[spec["alter_expected"]] = "0" * 64

    tracer = None
    if spec.get("trace"):
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
        job_nid = tracer.name_id(tracer_mod.JOB)

    result = {"ready": ready, "times": [], "digests": [], "failed": []}
    misses0 = _cache_misses(dc)
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job_index = index
            sid = tracer.begin(job_nid)
        t0 = perf_counter()
        try:
            raw, error = job.run(), None
        except Exception:
            raw, error = None, traceback.format_exc()
        t1 = perf_counter()
        if tracer is not None:
            tracer.finish(sid)
            tracer.annotate()
        ok, digest = False, None
        if error is None:
            try:
                ok, digest = job.check(raw, expected[index])
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            sys.stderr.write(error)
        result["times"].append(t1 - t0)
        result["digests"].append(digest)
        if not ok:
            result["failed"].append(job.key)
    result["jobs"] = len(result["times"])
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None:
        tracer.uninstall()
        with open(spec["dump_path"], "w") as fh:
            json.dump(tracer.dump({
                "workload": spec["workload"],
                "seed": spec["seed"],
                "jobs": [job.key for job in jobs],
                "cache_misses": _cache_misses(dc) - misses0,
            }), fh, separators=(",", ":"))
    with open(spec["out_path"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
