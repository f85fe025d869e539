"""Span tracing of the engine's public functions, from outside the program.

Each layer is timed by replacing a public function at the name where its
caller looks it up (for example dresschain.wronskian.det_poly_matrix, the
name chain-building code reaches the determinant through).  Spans are kept
in memory as flat arrays and written out once, when the traced worker ends;
the per-layer metrics are computed from that file by `layer_metrics`.

A span's self time is its duration minus the durations of its direct
children.  Every job is wrapped in a root "job" span, so the self times of
all layers plus the job spans' own self time (the benchmark loop) add up to
the traced job wall time exactly.
"""

from __future__ import annotations

import importlib
import json
import statistics
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional

JOB = "job"

# (module, attribute, layer).  An attribute "Class.method" is replaced on
# the class.  Every lookup site of a wrapped function is listed, so a call
# is timed whichever module makes it.
SITES = (
    ("dresschain.wronskian", "hermite", "orthopoly"),
    ("dresschain.wronskian", "laguerre", "orthopoly"),
    ("dresschain.wronskian", "falling_factorial", "orthopoly"),
    ("dresschain.wronskian", "det_poly_matrix", "exact.det"),
    ("dresschain.exact", "poly_gcd", "exact.gcd"),
    ("dresschain.exact", "RationalFunction.__init__", "exact.ratfunc"),
    ("dresschain.exact", "Polynomial.__divmod__", "exact.divmod"),
    ("dresschain.chain", "hermite_wronskian", "wronskian"),
    ("dresschain.chain", "laguerre_pseudo_wronskian", "wronskian"),
    ("dresschain.chain", "build_diagram", "maya"),
    ("dresschain.chain", "static_flip_chain", "maya"),
    ("dresschain.chain", "uc_flip_chain", "maya"),
    ("dresschain.chain", "apply_uc_flip", "maya"),
    ("dresschain.cli", "build_diagram", "maya"),
    ("dresschain.cli", "static_flip_chain", "maya"),
    ("dresschain.chain", "build_odd_chain", "chain.build"),
    ("dresschain.chain", "build_even_chain", "chain.build"),
    ("dresschain.painleve", "build_odd_chain", "chain.build"),
    ("dresschain.cli", "build_odd_chain", "chain.build"),
    ("dresschain.cli", "build_even_chain", "chain.build"),
    ("dresschain.chain", "verify_chain", "chain.verify"),
    ("dresschain.cli", "verify_chain", "chain.verify"),
    ("dresschain.painleve", "piv_residual", "painleve.residual"),
    ("dresschain.painleve", "pv_residual", "painleve.residual"),
    ("dresschain.cli", "piv_residual", "painleve.residual"),
    ("dresschain.cli", "pv_residual", "painleve.residual"),
    ("dresschain.painleve", "piv_from_chain", "painleve.reduce"),
    ("dresschain.cli", "piv_families", "painleve.reduce"),
    ("dresschain.cli", "piv_from_chain", "painleve.reduce"),
    ("dresschain.cli", "pv_from_chain", "painleve.reduce"),
    ("dresschain.cli", "main", "cli"),
)


def _coeff_bits(poly) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length())
         for c in poly.coeffs),
        default=0,
    )


class Tracer:
    """Records nested spans (name, parent, job, start, end) in flat arrays."""

    def __init__(self):
        self.names: List[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.attrs: Dict[int, dict] = {}
        self.job_index = -1
        self._stack = [-1]
        self._notes = []
        self._restore = []

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def begin(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.job.append(self.job_index)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def finish(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    def wrap(self, layer: str, fn: Callable, note: Optional[str]) -> Callable:
        nid = self.name_id(layer)
        begin, finish, notes = self.begin, self.finish, self._notes

        def traced(*args, **kwargs):
            sid = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(sid)
            if note is not None:
                notes.append((sid, note, args, result))
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, layer in SITES:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            note = {"exact.det": "det", "wronskian": "wronskian"}.get(layer)
            setattr(owner, attr, self.wrap(layer, original, note))
            self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def annotate(self) -> None:
        """Attach the recorded counts to their spans.  Runs between jobs,
        outside every span, so its cost is not attributed to any layer."""
        from dresschain.maya import canonicalize

        for sid, kind, args, result in self._notes:
            if kind == "det":
                self.attrs[sid] = {"n": len(args[0]), "bits": _coeff_bits(result)}
                continue
            if len(args) == 1:  # hermite_wronskian(diagram)
                entries = args[0].entries
                canon, _ = canonicalize(entries)
                key = [list(entries)]
                ckey = [list(canon.entries)]
            else:  # laguerre_pseudo_wronskian(uc, alpha)
                uc, alpha = args
                c1, off1 = canonicalize(uc.first.entries)
                c2, off2 = canonicalize(uc.second.entries)
                a = alpha.value
                # raw = translate(canon, -offset); the translation identity
                # moves the parameter by k1 - k2 = off2 - off1
                key = [list(uc.first.entries), list(uc.second.entries), str(a)]
                ckey = [list(c1.entries), list(c2.entries), str(a + off2 - off1)]
            self.attrs[sid] = {"key": json.dumps(key), "canon": json.dumps(ckey)}
        self._notes.clear()  # the wrappers hold this very list

    def dump(self, extra: dict) -> dict:
        t0 = self.start[0] if self.start else 0.0
        out = {
            "names": self.names,
            "name": list(self.name),
            "parent": list(self.parent),
            "job": list(self.job),
            "start_ns": [round((t - t0) * 1e9) for t in self.start],
            "end_ns": [round((t - t0) * 1e9) for t in self.end],
            "attrs": {str(k): v for k, v in self.attrs.items()},
        }
        out.update(extra)
        return out


# -- analysis ----------------------------------------------------------------------

# Per-layer metrics and their units, in report order.
LAYER_METRICS = (
    ("orthopoly.calls", "count"),
    ("orthopoly.self_s", "s"),
    ("orthopoly.cache_misses", "count"),
    ("exact.det.calls", "count"),
    ("exact.det.self_s", "s"),
    ("exact.det.max_n", "count"),
    ("exact.det.n3_sum", "count"),
    ("exact.det.max_coeff_bits", "bits"),
    ("exact.gcd.calls", "count"),
    ("exact.gcd.self_s", "s"),
    ("exact.ratfunc.calls", "count"),
    ("exact.ratfunc.norm_s", "s"),
    ("exact.divmod_s", "s"),
    ("wronskian.calls", "count"),
    ("wronskian.self_s", "s"),
    ("wronskian.distinct_ratio", "ratio"),
    ("wronskian.canonical_ratio", "ratio"),
    ("maya.self_s", "s"),
    ("chain.build.self_s", "s"),
    ("chain.verify.calls", "count"),
    ("chain.verify.self_s", "s"),
    ("chain.verify.fallback_ratfuncs", "count"),
    ("painleve.residual.calls", "count"),
    ("painleve.residual.self_s", "s"),
    ("painleve.reduce.self_s", "s"),
    ("cli.self_s", "s"),
    ("bench.self_s", "s"),
    ("trace.job_wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

SPAN_LAYERS = tuple(dict.fromkeys(layer for _, _, layer in SITES)) + (JOB,)


def self_times(dump: dict) -> Dict[str, float]:
    """Seconds of self time per span name; the values sum to the job wall."""
    start, end, parent = dump["start_ns"], dump["end_ns"], dump["parent"]
    dur = [e - s for s, e in zip(start, end)]
    child = [0] * len(dur)
    for sid, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[sid]
    out = dict.fromkeys(SPAN_LAYERS, 0.0)
    for sid, nid in enumerate(dump["name"]):
        out[dump["names"][nid]] += (dur[sid] - child[sid]) * 1e-9
    return out


def layer_metrics(dump: dict) -> Dict[str, float]:
    """The per-layer metrics of one traced worker, except the overhead."""
    names, name, parent = dump["names"], dump["name"], dump["parent"]
    start, end = dump["start_ns"], dump["end_ns"]
    selfs = self_times(dump)
    calls = dict.fromkeys(SPAN_LAYERS, 0)
    total = dict.fromkeys(SPAN_LAYERS, 0.0)
    for sid, nid in enumerate(name):
        layer = names[nid]
        calls[layer] += 1
        total[layer] += (end[sid] - start[sid]) * 1e-9

    # RationalFunctions built anywhere below a verify_chain span
    verify_id = names.index("chain.verify")
    fallback = 0
    for sid, nid in enumerate(name):
        if names[nid] != "exact.ratfunc":
            continue
        p = parent[sid]
        while p >= 0 and name[p] != verify_id:
            p = parent[p]
        fallback += p >= 0

    attrs = dump["attrs"].values()
    dets = [a for a in attrs if "n" in a]
    wr = [a for a in attrs if "key" in a]
    n_wr = len(wr)
    return {
        "orthopoly.calls": calls["orthopoly"],
        "orthopoly.self_s": selfs["orthopoly"],
        "orthopoly.cache_misses": dump["cache_misses"],
        "exact.det.calls": calls["exact.det"],
        "exact.det.self_s": selfs["exact.det"],
        "exact.det.max_n": max((a["n"] for a in dets), default=0),
        "exact.det.n3_sum": sum(a["n"] ** 3 for a in dets),
        "exact.det.max_coeff_bits": max((a["bits"] for a in dets), default=0),
        "exact.gcd.calls": calls["exact.gcd"],
        "exact.gcd.self_s": selfs["exact.gcd"],
        "exact.ratfunc.calls": calls["exact.ratfunc"],
        "exact.ratfunc.norm_s": total["exact.ratfunc"],
        "exact.divmod_s": total["exact.divmod"],
        "wronskian.calls": calls["wronskian"],
        "wronskian.self_s": selfs["wronskian"],
        "wronskian.distinct_ratio":
            len(set(a["key"] for a in wr)) / n_wr if n_wr else 0.0,
        "wronskian.canonical_ratio":
            len(set(a["canon"] for a in wr)) / n_wr if n_wr else 0.0,
        "maya.self_s": selfs["maya"],
        "chain.build.self_s": selfs["chain.build"],
        "chain.verify.calls": calls["chain.verify"],
        "chain.verify.self_s": selfs["chain.verify"],
        "chain.verify.fallback_ratfuncs": fallback,
        "painleve.residual.calls": calls["painleve.residual"],
        "painleve.residual.self_s": selfs["painleve.residual"],
        "painleve.reduce.self_s": selfs["painleve.reduce"],
        "cli.self_s": selfs["cli"],
        "bench.self_s": selfs[JOB],
        "trace.job_wall_s": total[JOB],
    }


def median_metrics(per_worker: List[Dict[str, float]]) -> Dict[str, float]:
    return {k: statistics.median(m[k] for m in per_worker) for k in per_worker[0]}
