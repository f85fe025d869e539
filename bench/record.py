"""Record bench/reference.json, the exact expected outputs of every job.

    python3 bench/record.py

Run from a checkout root, at the commit whose outputs are the reference
(the seed commit of the benchmark).  It records:

* odd_levels, odd_start: the static flip levels and the start diagram of
  every criterion-4 structure;
* hermite_wronskian: the polynomial digest of the Hermite Wronskian of
  every diagram an odd chain of any permutation can pass through;
* even_flips: the (level, slot) flips of every criterion-6 cell;
* painleve_stdout_sha256: the sha256 of the CLI stdout for every job any
  seed can draw (each must exit 0 and report "ok": true).

It then cross-checks the expected-output oracle of the library workloads
against the program once per structure and cell, and refuses to write the
file if they disagree.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(0, str(BENCH_DIR))

import dresschain.chain as chain  # noqa: E402
import dresschain.cli as cli  # noqa: E402
import dresschain.maya as maya  # noqa: E402
import dresschain.wronskian as wronskian  # noqa: E402
from dresschain.orthopoly import AlphaParam  # noqa: E402

import workloads as wl  # noqa: E402


def main() -> int:
    ref = {"odd_levels": {}, "odd_start": {}, "hermite_wronskian": {},
           "even_flips": [], "painleve_stdout_sha256": {}}
    for cs in wl.odd_structures(maya.enumerate_structures):
        key = wl.structure_key(cs.k, cs.okamoto, cs.second_type)
        levels = list(maya.static_flip_chain(cs).levels())
        start = list(maya.build_diagram(cs)[0].entries)
        ref["odd_levels"][key] = levels
        ref["odd_start"][key] = start
        # every diagram a permutation of the flips can pass through
        for subset in itertools.product((0, 1), repeat=len(levels)):
            state = sorted(set(start).symmetric_difference(
                level for level, bit in zip(levels, subset) if bit))
            dkey = wl.diagram_key(state)
            if dkey not in ref["hermite_wronskian"]:
                pw = wronskian.hermite_wronskian(maya.MayaDiagram(tuple(state)))
                ref["hermite_wronskian"][dkey] = wl.poly_digest(pw.poly)
        delta = Fraction(cs.k * wl.OMEGA)
        for perm in (list(range(cs.p)), list(reversed(range(cs.p)))):
            sol = chain.build_odd_chain(cs, perm, allow_degenerate=True)
            states = wl.odd_ladder_states(start, levels, perm)
            ladder = [ref["hermite_wronskian"][wl.diagram_key(s)] for s in states]
            eps = wl.expected_eps(wl.odd_seeds(levels, perm), delta)
            want = wl.expected_chain_output(cs.p, delta, eps, ladder)
            got, _ = wl.render_chain((sol, chain.verify_chain(sol)), odd=True)
            if got != want:
                raise SystemExit("odd oracle disagrees at %s perm %s" % (key, perm))

    alpha = wl.ALPHA_POOL[0]
    for s1, s2, perm in wl.even_cells():
        cs1, cs2 = maya.CyclicStructure(*s1), maya.CyclicStructure(*s2)
        flips = [[f.level, f.slot] for f in maya.uc_flip_chain(cs1, cs2)[1].flips]
        ref["even_flips"].append(flips)
        sol = chain.build_even_chain(cs1, cs2, AlphaParam(alpha), perm)
        order = perm if perm is not None else range(len(flips))
        seeds = wl.even_seeds(flips, order, alpha)
        delta = Fraction(2 * s1[0] * wl.OMEGA)
        want = wl.expected_chain_output(len(flips), delta, wl.expected_eps(seeds, delta))
        got, _ = wl.render_chain((sol, chain.verify_chain(sol)), odd=False)
        if got != want:
            raise SystemExit("even oracle disagrees at %r" % ((s1, s2),))

    for argv in wl.painleve_universe():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        out = buf.getvalue()
        if code != 0 or json.loads(out).get("ok") is not True:
            raise SystemExit("painleve job fails: %s" % " ".join(argv))
        ref["painleve_stdout_sha256"][" ".join(argv)] = wl.sha256_text(out)

    with open(BENCH_DIR / "reference.json", "w") as fh:
        json.dump(ref, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print("recorded %d odd structures, %d ladder diagrams, %d even cells, "
          "%d painleve jobs" % tuple(len(ref[k]) for k in (
              "odd_levels", "hermite_wronskian", "even_flips",
              "painleve_stdout_sha256")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
