"""Seeded job generators for the three benchmark workloads, and the exact
expected output of every job.

A workload round is one complete job set drawn from (workload, seed,
round): every structure or cell of the workload's box, each with its
seed-drawn inputs, in a seed-shuffled order.  The program only ever sees
the generated job descriptions.

Why each workload exists:

* odd_ladders -- dominated by integer Hermite determinants whose inputs are
  heavily shared between jobs (ladder diagrams repeat, and reduce to far
  fewer canonical representatives).  A canonical-ladder cache or a faster
  Bareiss kernel shows here.
* even_alpha_sweep -- the same exact and wronskian layers, but with
  Fraction-valued Laguerre entries at fresh alphas, so determinants rarely
  repeat.  An integer-primitive polynomial core shows here; a cache keyed
  on diagrams mostly does not, so the cost such a cache adds shows here.
* painleve_cli -- dominated by RationalFunction normalisation and the PIV
  and PV residuals; determinants are a few percent of its time.  It is the
  only workload that goes through the user-facing CLI and its JSON output.

Expected outputs.  For the library workloads the report of a correct chain
is fixed by its energy differences, which follow from the flip levels of
the structure (recorded in reference.json at the seed commit), the
permutation and alpha.  An odd chain's ladder of Hermite Wronskians is
fixed by the diagrams the flips pass through; the digest of the
polynomial of every diagram any seed can reach is recorded, so content
and sign of each determinant are checked too.  The ladder of an even
chain depends on alpha; its digest enters only the run digest, which is
recorded for the baseline seeds (bench/baseline.json).  For painleve_cli
the recorded value is the sha256 of the CLI's stdout for each job of the
finite job universe.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from fractions import Fraction
from math import gcd
from typing import Callable, Dict, List, Tuple

WORKLOADS = ("odd_ladders", "even_alpha_sweep", "painleve_cli")

OMEGA = 2

# Alphas are drawn from p/q with q in {3, 5, 7} and 0 < |p| < q, one per
# denominator in each round.  Two alphas of different denominators never
# differ, or sum, by an integer, so within a round Laguerre cache
# behaviour is the same for every draw (no shared shifted parameters),
# and the job universe of painleve_cli stays finite.
ALPHA_DENOMINATORS = (3, 5, 7)
ALPHA_POOL = tuple(
    Fraction(p, q)
    for q in ALPHA_DENOMINATORS
    for p in range(-q + 1, q)
    if p and gcd(p, q) == 1
)


def frac_text(q: Fraction) -> str:
    return "%d/%d" % (q.numerator, q.denominator)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def poly_digest(poly) -> str:
    """First 64 bits of the sha256 of a polynomial's exact coefficients."""
    return sha256_text(",".join(str(c) for c in poly.coeffs))[:16]


def diagram_key(entries) -> str:
    return ",".join(str(n) for n in entries)


def structure_key(k: int, okamoto, pairs) -> str:
    return "k=%d;o=%s;b=%s" % (
        k,
        ",".join(str(a) for a in okamoto),
        ",".join("%d:%d" % tuple(p) for p in pairs),
    )


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random("%s/%d/%d" % (workload, seed, round_index))


def _draw_alphas(rng: random.Random) -> List[Fraction]:
    return [rng.choice([a for a in ALPHA_POOL if a.denominator == q])
            for q in ALPHA_DENOMINATORS]


# -- job boxes -----------------------------------------------------------------


def odd_structures(enumerate_structures) -> list:
    """The criterion-4 box: p, k in {1, 3, 5}, parameters <= 3."""
    out = []
    for p in (1, 3, 5):
        for k in (1, 3, 5):
            if k <= p and (p - k) % 2 == 0:
                out.extend(enumerate_structures(p, k, 3))
    return out


def even_cells() -> List[Tuple[tuple, tuple, tuple]]:
    """The 145 criterion-6 cells as ((k, okamoto, pairs) x 2, perm)."""
    cells = [((1, (), ()), (1, (), ()), None)]
    for lam, mu in itertools.product((1, 2), repeat=2):
        cells.append(((1, (), ((lam, mu),)), (1, (), ()), (1, 2, 0, 3)))
    for a1, b1 in itertools.product((0, 1, 2), repeat=2):
        cells.append(((2, (a1,), ()), (2, (b1,), ()), (1, 0, 3, 2)))
    for l1, m1, g, m2 in itertools.product((1, 2), repeat=4):
        pairs = ((l1, m1), (l1 + m1 + g, m2))
        cells.append(((1, (), pairs), (1, (), ()), (1, 2, 3, 4, 0, 5)))
    for a1, b1, m1 in itertools.product((0, 1, 2), (0, 1, 2), (1, 2)):
        cells.append(
            ((2, (a1,), ((2, m1),)), (2, (b1,), ()), (1, 2, 3, 0, 5, 4))
        )
    for a1, a2, b1, b2 in itertools.product((0, 1, 2), repeat=4):
        cells.append(((3, (a1, a2), ()), (3, (b1, b2), ()), (1, 2, 0, 4, 5, 3)))
    for l1, m1, r1, s1 in itertools.product((1, 2), repeat=4):
        cells.append(
            ((1, (), ((l1, m1),)), (1, (), ((r1, s1),)), (1, 2, 0, 4, 5, 3))
        )
    return cells


def piv_argvs() -> List[List[str]]:
    """PIV for every 3-cyclic structure of the criterion-5 box."""
    out = []
    for lam, mu in itertools.product((1, 2, 3), repeat=2):
        out.append(["painleve", "--period", "3", "--shift", "1",
                    "--params", "%d,%d" % (lam, mu)])
    for a1, a2 in itertools.product((0, 1, 2), repeat=2):
        out.append(["painleve", "--period", "3", "--shift", "3",
                    "--params", "%d,%d" % (a1, a2)])
    return out


def pv_argv(cell: Tuple[str, str, str], alpha: Fraction) -> List[str]:
    """One PV job.  The alpha goes in as --alpha=<p/q>: argparse reads a
    separate "-4/3" argument as an option and exits 2."""
    case, params, perm = cell
    return ["painleve", "--period", "4", "--case", case, "--params", params,
            "--perm", perm, "--alpha=" + frac_text(alpha)]


def pv_cells() -> List[Tuple[str, str, str]]:
    """The criterion-7 cells: split (3,1) with lam, mu <= 2 and split (2,2)
    with a1, b1 <= 2."""
    cells = [("3,1", "%d,%d" % lm, "1,2,0,3")
             for lm in itertools.product((1, 2), repeat=2)]
    cells += [("2,2", "%d,%d" % ab, "1,0,3,2")
              for ab in itertools.product((0, 1, 2), repeat=2)]
    return cells


def painleve_universe() -> List[List[str]]:
    """Every painleve_cli job any seed can draw."""
    return piv_argvs() + [pv_argv(c, a) for a in ALPHA_POOL for c in pv_cells()]


# -- expected outputs ------------------------------------------------------------


def expected_eps(seeds: List[Fraction], delta: Fraction) -> List[Fraction]:
    """Energy differences of a chain: consecutive seed gaps, the last one
    closing the cycle through the shift."""
    p = len(seeds)
    out = [seeds[i] - seeds[i + 1] for i in range(p - 1)]
    out.append(seeds[p - 1] - seeds[0] - delta)
    return out


def odd_seeds(levels: List[int], order) -> List[Fraction]:
    """Seed energies of an odd chain: flip level times omega."""
    return [Fraction(levels[i] * OMEGA) for i in order]


def odd_ladder_states(start: List[int], levels: List[int], order) -> List[tuple]:
    """The diagrams an odd chain passes through: each flip toggles a level."""
    state = set(start)
    out = [tuple(sorted(state))]
    for i in order:
        state ^= {levels[i]}
        out.append(tuple(sorted(state)))
    return out


def even_seeds(flips: List[List[int]], order, alpha: Fraction) -> List[Fraction]:
    """Seed energies of an even chain: 2 level omega for a spectrum flip
    (slot 1), 2 (level - alpha) omega for a shadow flip (slot 2)."""
    return [2 * (Fraction(flips[i][0]) - (alpha if flips[i][1] == 2 else 0)) * OMEGA
            for i in order]


def chain_output_text(report_json: dict, eps_text: List[str], ladder=None) -> str:
    """Canonical serialisation of a library job's checked outputs; `ladder`
    is the list of ladder polynomial digests of an odd chain."""
    out = {"report": report_json, "expected_eps": eps_text}
    if ladder is not None:
        out["ladder"] = ladder
    return json.dumps(out, sort_keys=True, separators=(",", ":"))


def expected_chain_output(period: int, delta: Fraction, eps: List[Fraction],
                          ladder=None) -> str:
    """The output of a chain whose every identity holds."""
    eps_text = [frac_text(e) for e in eps]
    report = {
        "period": period,
        "delta": frac_text(delta),
        "equations": [
            {"residual_constant": True, "value": e, "expected": e, "match": True}
            for e in eps_text
        ],
        "sum_rule": True,
    }
    return chain_output_text(report, eps_text, ladder)


def render_chain(raw, odd: bool) -> Tuple[str, str]:
    """(checked text, unchecked ladder text) of a built and verified chain."""
    sol, report = raw
    if not report.ok:
        raise AssertionError("verify_chain reported a failed identity")
    ladder = [poly_digest(pw.poly) for pw in sol.ladder]
    checked = chain_output_text(report.to_json(),
                                [frac_text(e) for e in sol.expected_eps],
                                ladder if odd else None)
    return checked, "" if odd else ",".join(ladder)


def render_cli(stdout: str) -> Tuple[str, str]:
    if json.loads(stdout).get("ok") is not True:
        raise AssertionError("CLI reported ok != true")
    return stdout, ""


# -- jobs ------------------------------------------------------------------------


class Job:
    """One closed-loop job.

    `run` calls the program and returns its raw result; it is the only
    timed part.  `render` checks the result's own verdict and turns it
    into the checked text and an unchecked extra text; `expect` gives the
    expected sha256 of the checked text from the reference.
    """

    def __init__(self, key: str, run: Callable, render: Callable,
                 expect: Callable[[dict], str]):
        self.key = key
        self.run = run
        self.render = render
        self.expect = expect

    def check(self, raw, expected: str) -> Tuple[bool, str]:
        """Whether the output is the expected one, and the job's digest for
        the run digest (checked and extra text together)."""
        checked, extra = self.render(raw)
        return (sha256_text(checked) == expected,
                sha256_text(checked + "\n" + extra))


def _chain_run(build: Callable, dc) -> Callable:
    def run():
        sol = build()
        return sol, dc.chain.verify_chain(sol)

    return run


def odd_jobs(dc, seed: int, round_index: int) -> List[Job]:
    rng = _rng("odd_ladders", seed, round_index)
    jobs = []
    for cs in odd_structures(dc.maya.enumerate_structures):
        perm = list(range(cs.p))
        rng.shuffle(perm)
        key = structure_key(cs.k, cs.okamoto, cs.second_type)

        def build(cs=cs, perm=tuple(perm)):
            return dc.chain.build_odd_chain(cs, perm, allow_degenerate=True)

        def expect(ref, key=key, cs=cs, perm=perm):
            levels = ref["odd_levels"][key]
            delta = Fraction(cs.k * OMEGA)
            states = odd_ladder_states(ref["odd_start"][key], levels, perm)
            ladder = [ref["hermite_wronskian"][diagram_key(s)] for s in states]
            eps = expected_eps(odd_seeds(levels, perm), delta)
            return sha256_text(expected_chain_output(cs.p, delta, eps, ladder))

        jobs.append(Job("%s;perm=%s" % (key, perm), _chain_run(build, dc),
                        lambda raw: render_chain(raw, odd=True), expect))
    rng.shuffle(jobs)
    return jobs


def even_jobs(dc, seed: int, round_index: int) -> List[Job]:
    rng = _rng("even_alpha_sweep", seed, round_index)
    alphas = _draw_alphas(rng)
    CS = dc.maya.CyclicStructure
    jobs = []
    for index, (s1, s2, perm) in enumerate(even_cells()):
        cs1, cs2 = CS(*s1), CS(*s2)
        for a in alphas:
            def build(cs1=cs1, cs2=cs2, a=a, perm=perm):
                return dc.chain.build_even_chain(
                    cs1, cs2, dc.orthopoly.AlphaParam(a), perm
                )

            def expect(ref, index=index, a=a, perm=perm, k=s1[0]):
                flips = ref["even_flips"][index]
                order = perm if perm is not None else range(len(flips))
                delta = Fraction(2 * k * OMEGA)
                eps = expected_eps(even_seeds(flips, order, a), delta)
                return sha256_text(expected_chain_output(len(flips), delta, eps))

            jobs.append(Job("cell=%d;alpha=%s" % (index, frac_text(a)),
                            _chain_run(build, dc),
                            lambda raw: render_chain(raw, odd=False), expect))
    rng.shuffle(jobs)
    return jobs


def painleve_jobs(dc, seed: int, round_index: int) -> List[Job]:
    rng = _rng("painleve_cli", seed, round_index)
    alphas = _draw_alphas(rng)
    argvs = piv_argvs() + [pv_argv(c, a) for a in alphas for c in pv_cells()]
    jobs = []
    for argv in argvs:
        key = " ".join(argv)

        def run(argv=argv) -> str:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = dc.cli.main(argv)
            if code != 0:
                raise AssertionError("CLI exit code %r" % (code,))
            return buf.getvalue()

        jobs.append(Job(key, run, render_cli,
                        lambda ref, key=key: ref["painleve_stdout_sha256"][key]))
    rng.shuffle(jobs)
    return jobs


GENERATORS: Dict[str, Callable] = {
    "odd_ladders": odd_jobs,
    "even_alpha_sweep": even_jobs,
    "painleve_cli": painleve_jobs,
}
