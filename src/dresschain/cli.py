"""Batch command line: enumerate structures, build and verify chains,
export Painleve solutions, run the acceptance suite.

All numbers cross the boundary as exact "p/q" strings; reports are
deterministic byte-for-byte for a fixed invocation.  Exit codes: 0 all
verifications passed, 1 at least one identity failed, 2 invalid input.
The acceptance suite and the LaTeX writers are imported only by the
commands that run them, so no other job loads or holds them; and each
call builds the parser of its own command only.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import partial
from typing import List, Optional, Sequence, Tuple

from .chain import OMEGA, build_even_chain, build_odd_chain, verify_chain
from .exact import frac_str, parse_frac
from .maya import (
    CyclicStructure,
    admitted_shifts,
    build_diagram,
    enumerate_structures,
    static_flip_chain,
)
from .orthopoly import AlphaParam
from .painleve import (
    piv_families,
    piv_from_chain,
    piv_residual,
    pv_from_chain,
    pv_residual,
)


class UsageError(ValueError):
    """Invalid job description; surfaces as exit code 2."""


class _Parser(argparse.ArgumentParser):
    """Refuses a malformed command line as a UsageError, with exit code 2."""

    def error(self, message):
        raise UsageError("%s: %s" % (self.prog, message))


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError("cannot write --out %r: %s" % (out, exc.strerror))
    else:
        sys.stdout.write(text)


def _parse_int_list(text: str) -> List[int]:
    if not text:
        return []
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise UsageError("expected a comma list of integers, got %r" % text)


def _parse_alpha_list(text: str) -> List[AlphaParam]:
    out = []
    for tok in text.split(","):
        try:
            out.append(AlphaParam(parse_frac(tok)))
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError("bad alpha %r: %s" % (tok, exc))
    return out


def _job_name(periods: Sequence[int]) -> str:
    return "%s %s" % ("case" if len(periods) > 1 else "period", ",".join(map(str, periods)))


def _shift(args, periods: Sequence[int]) -> int:
    """--shift, or the one shift the periods admit when it is left out."""
    shifts = admitted_shifts(*periods)
    if args.shift is None and len(shifts) == 1:
        return shifts[0]
    if args.shift is not None and args.shift in shifts:
        return args.shift
    have = "shifts %d..%d step 2" % (shifts[0], shifts[-1]) if shifts else "no shift"
    got = "pick one with --shift" if args.shift is None else "not --shift %d" % args.shift
    raise UsageError("%s admits %s: %s" % (_job_name(periods), have, got))


def _structures(args) -> Tuple[CyclicStructure, ...]:
    """The structures a job describes, all with one shift k: one for an
    odd --period, one per component of an even --case.  A component of
    period p reads p - 1 parameters from --params, k - 1 Okamoto lengths
    and then (p - k) / 2 block pairs."""
    if args.period % 2:
        periods = [args.period]
    elif not args.case:
        raise UsageError("even periods need --case p1,p2")
    else:
        periods = _parse_int_list(args.case)
        if len(periods) != 2:
            raise UsageError("case %r is not a split p1,p2" % (args.case,))
        if sum(periods) != args.period:
            raise UsageError("case %r has period %d, not --period %d"
                             % (args.case, sum(periods), args.period))
    k = _shift(args, periods)
    params = _parse_int_list(args.params or "")
    need = [p - 1 for p in periods]
    if len(params) != sum(need):
        raise UsageError("%s shift %d needs %s parameters, got %d" % (
            _job_name(periods), k, "+".join(map(str, need)), len(params)))
    out = []
    for n in need:
        own, params = params[:n], params[n:]
        try:
            out.append(CyclicStructure(k, tuple(own[:k - 1]),
                                       tuple(zip(own[k - 1::2], own[k::2]))))
        except ValueError as exc:
            raise UsageError(str(exc))
    return tuple(out)


def _refuse_unread(args, *names: str) -> None:
    """A job refuses the options it would ignore, e.g. --alpha on an odd
    period, rather than running without them."""
    given = ["--" + n.replace("_", "-")
             for n in names if getattr(args, n) not in (None, False)]
    if given:
        raise UsageError("this job does not read %s" % ", ".join(given))


def _solution_json(sol) -> dict:
    return {
        "period": sol.period,
        "delta": frac_str(sol.delta),
        "omega": frac_str(OMEGA),
        "flips": [[f.level, f.sign, f.slot] for f in sol.flips],
        "expected_eps": [frac_str(e) for e in sol.expected_eps],
        "ladder": [pw.to_json() for pw in sol.ladder],
    }


def _build_solutions(args):
    """Construct the chain(s) a job describes; even jobs sweep alphas,
    which each chain carries on its ladder."""
    perm = None if args.perm is None else _parse_int_list(args.perm)
    if args.period % 2:
        _refuse_unread(args, "alpha", "case")
        (cs,) = _structures(args)
        return [build_odd_chain(cs, perm=perm, allow_degenerate=args.allow_degenerate)]
    _refuse_unread(args, "allow_degenerate")
    alphas = ([AlphaParam(Fraction(1, 3))] if args.alpha is None
              else _parse_alpha_list(args.alpha))
    if len({a.value for a in alphas}) != len(alphas):
        raise UsageError("alpha samples must be distinct")
    cs1, cs2 = _structures(args)
    return [build_even_chain(cs1, cs2, a, perm=perm) for a in alphas]


def _with_alpha(entry: dict, sol) -> dict:
    """entry, with the alpha an even chain's ladder carries."""
    alpha = sol.ladder[0].alpha
    return entry if alpha is None else dict(entry, alpha=frac_str(alpha))


def cmd_enum(args) -> int:
    shift = _shift(args, [args.period])
    structures = enumerate_structures(args.period, shift, args.bound)

    diagrams, rows = [], []
    for cs in structures:
        diagram, degenerate = build_diagram(cs)
        diagrams.append(diagram)
        rows.append({
            "structure": cs.to_json(),
            "diagram": diagram.to_json(),
            "degenerate": degenerate,
            "flip_levels": list(static_flip_chain(cs).levels()),
        })
    if args.format == "json":
        _emit(_dump({"command": "enum", "period": args.period, "shift": shift,
                     "bound": args.bound, "structures": rows}), args.out)
    elif args.format == "latex":
        from .latex import diagram_latex, structure_latex
        lines = [
            "%s & %s & %s \\\\" % (
                structure_latex(cs),
                diagram_latex(diagram),
                "degenerate" if r["degenerate"] else ",".join(map(str, r["flip_levels"])),
            )
            for cs, diagram, r in zip(structures, diagrams, rows)
        ]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        lines = [
            "%-28s diagram=%-16s %s" % (
                r["structure"], r["diagram"],
                "DEGENERATE" if r["degenerate"] else "chain=%s" % (r["flip_levels"],),
            )
            for r in rows
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_build(args) -> int:
    solutions = _build_solutions(args)
    if args.format == "latex":
        from .latex import chain_latex
        _emit("\n".join(chain_latex(sol) for sol in solutions) + "\n", args.out)
    else:
        payload = [_with_alpha(_solution_json(sol), sol) for sol in solutions]
        _emit(_dump({"command": "build", "chains": payload}), args.out)
    return 0


def cmd_verify(args) -> int:
    entries = []
    oks = []
    for sol in _build_solutions(args):
        report = verify_chain(sol)
        entry = _with_alpha(report.to_json(), sol)
        ok = report.ok
        if sol.period == 3 and not sol.is_even:
            residual_zero = piv_residual(piv_from_chain(sol))
            entry["piv_residual_zero"] = residual_zero
            ok = ok and residual_zero
        if sol.period == 4 and sol.is_even:
            residual_zero = pv_residual(pv_from_chain(sol))
            entry["pv_residual_zero"] = residual_zero
            ok = ok and residual_zero
        entries.append(entry)
        oks.append(ok)
    all_ok = all(oks)
    if args.format == "text":
        lines = []
        for entry, ok in zip(entries, oks):
            tag = "alpha=%s " % entry.get("alpha", "") if "alpha" in entry else ""
            lines.append("%speriod=%d delta=%s %s" % (
                tag, entry["period"], entry["delta"], "OK" if ok else "FAILED"))
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(_dump({"command": "verify", "reports": entries, "ok": all_ok}), args.out)
    return 0 if all_ok else 1


def cmd_painleve(args) -> int:
    if args.period == 3:
        _refuse_unread(args, "case", "alpha", "perm", "allow_degenerate")
        (cs,) = _structures(args)
        fams = piv_families(cs)
        payload = [f.to_json() for f in fams]
        ok = all(p["residual_zero"] for p in payload)
        if args.format == "latex":
            from .latex import piv_latex
            _emit("".join("y_{%d}: %s\n" % (i, piv_latex(f))
                          for i, f in enumerate(fams)), args.out)
        else:
            _emit(_dump({"command": "painleve", "equation": "PIV", "families": payload,
                         "ok": ok}), args.out)
        return 0 if ok else 1
    if args.period == 4:
        solutions = _build_solutions(args)
        instances = [pv_from_chain(sol) for sol in solutions]
        payload = [_with_alpha(inst.to_json(), sol) for inst, sol in zip(instances, solutions)]
        ok = all(p["residual_zero"] for p in payload)
        if args.format == "latex":
            from .latex import pv_latex
            _emit("\n".join(pv_latex(inst) for inst in instances) + "\n", args.out)
        else:
            _emit(_dump({"command": "painleve", "equation": "PV", "solutions": payload,
                         "ok": ok}), args.out)
        return 0 if ok else 1
    raise UsageError("painleve needs --period 3 (PIV) or 4 (PV)")


def cmd_selftest(args) -> int:
    criteria = None if args.criteria is None else _parse_int_list(args.criteria)
    from .selftest import run_all
    results = run_all(criteria)
    ok = all(r.ok for r in results)
    if args.format == "json":
        _emit(_dump({"command": "selftest", "ok": ok, "results": [
            {"criterion": r.criterion, "name": r.name, "ok": r.ok,
             "detail": r.detail} for r in results]}), args.out)
    else:
        _emit("".join(r.line() + "\n" for r in results), args.out)
    return 0 if ok else 1


def _enum_options(p) -> None:
    p.add_argument("--period", type=int, required=True)
    p.add_argument("--shift", type=int)
    p.add_argument("--bound", type=int, default=1)
    p.add_argument("--format", choices=("json", "text", "latex"), default="json")
    p.add_argument("--out")


def _job_options(formats, p) -> None:
    p.add_argument("--period", type=int, required=True)
    p.add_argument("--shift", type=int)
    p.add_argument("--case", help="even-period split, e.g. 3,1")
    p.add_argument("--params", help="comma list: Okamoto lengths then block pairs")
    p.add_argument("--alpha", help="comma list of rational samples, e.g. 1/3,2/5")
    p.add_argument("--perm", help="comma list: 0-based flip order")
    p.add_argument("--allow-degenerate", action="store_true")
    p.add_argument("--format", choices=formats, default="json")
    p.add_argument("--out")


def _selftest_options(p) -> None:
    p.add_argument("--criteria", help="comma list of criterion numbers to run")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--out")


# (name, help, option adder, handler) of each command, in the order --help lists them
_COMMANDS = (
    ("enum", "enumerate cyclic structures", _enum_options, cmd_enum),
    ("build", "construct a chain solution", partial(_job_options, ("json", "latex")), cmd_build),
    ("verify", "construct and verify a chain", partial(_job_options, ("json", "text")),
     cmd_verify),
    ("painleve", "export PIV/PV solutions", partial(_job_options, ("json", "latex")),
     cmd_painleve),
    ("selftest", "run the acceptance suite", _selftest_options, cmd_selftest),
)


def make_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of `command` alone, or of every command when `command`
    names none: --help and the invalid-choice error list them all."""
    parser = _Parser(
        prog="dresschain",
        description="Exact construction and verification of rational "
                    "dressing-chain and Painleve IV/V solutions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    rows = [row for row in _COMMANDS if row[0] == command] or _COMMANDS
    for name, help_text, add_options, fn in rows:
        p = sub.add_parser(name, help=help_text)
        add_options(p)
        p.set_defaults(fn=fn)
    return parser


_LIST_OPTIONS = ("--alpha", "--params", "--perm", "--case", "--criteria")


def _attach_list_values(argv: Sequence[str]) -> List[str]:
    """Join "--params -1,0" into "--params=-1,0" for every comma-list
    option: argparse takes a separate value that starts with "-" and is
    not a plain number for an option."""
    out: List[str] = []
    for tok in argv:
        if out and out[-1] in _LIST_OPTIONS and tok[:1] == "-" and tok[1:2].isdigit():
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = _attach_list_values(sys.argv[1:] if argv is None else argv)
    try:
        args = make_parser(argv[0] if argv else None).parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        sys.stdout.write(_dump({"error": str(exc)}))
        return 2
    except (ValueError, OverflowError, RecursionError) as exc:
        # every library ValueError rejects the job description: a bad
        # permutation or bound, a degenerate structure or alpha sample; an
        # OverflowError or RecursionError, a parameter too large to build a ladder from
        sys.stdout.write(_dump({"error": "%s: %s" % (type(exc).__name__, exc)}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
