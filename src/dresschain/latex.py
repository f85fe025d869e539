"""LaTeX rendering of diagrams, block structures, chains and solutions.

Output mirrors the conventional notation for these objects: calligraphic
H / L with seed-tuple superscripts, block notation (lam | mu)_k, and the
t/sqrt(k) arguments of the rescaled period-3 solutions.  Rendering is
purely presentational; nothing here participates in verification.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

from .chain import ChainSolution
from .exact import Polynomial, RationalFunction
from .maya import CyclicStructure, MayaDiagram
from .painleve import PIVInstance, PVInstance


def frac_latex(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    sign = "-" if q < 0 else ""
    return r"%s\frac{%d}{%d}" % (sign, abs(q.numerator), q.denominator)


def poly_latex(p: Polynomial, var: str = "z") -> str:
    return p.format(var, coeff=frac_latex, power="%s^{%d}", times="")


def ratfunc_latex(r: RationalFunction, var: str = "x") -> str:
    if r.den == Polynomial.one():
        return poly_latex(r.num, var)
    return r"\frac{%s}{%s}" % (poly_latex(r.num, var), poly_latex(r.den, var))


def diagram_latex(d: Union[MayaDiagram, Sequence[int]]) -> str:
    """A diagram, or its entry tuple, as (n_1,...,n_m)."""
    return "(" + ",".join(map(str, d)) + ")" if len(d) else r"\varnothing"


def structure_latex(cs: CyclicStructure) -> str:
    parts = [
        r"(%d \mid %d)_{%d}" % (l, a, cs.k)
        for l, a in enumerate(cs.okamoto, start=1)
        if a > 0
    ]
    parts.extend(
        r"(%d \mid %d)_{%d}" % (l, m, cs.k) for l, m in cs.second_type
    )
    return r"\varnothing" if not parts else "(" + ", ".join(parts) + ")"


def chain_latex(sol: ChainSolution) -> str:
    flips = sol.flips
    if sol.is_even:
        first = ",".join(str(f.level) for f in flips if f.slot == 1)
        second = ",".join(str(f.level) for f in flips if f.slot == 2)
        return r"(%s) \otimes (%s)" % (first, second)
    return "(" + ",".join(str(f.level) for f in flips) + ")"


def _wronskian_symbol(kind: str, label: str, arg: str) -> str:
    return r"\mathcal{%s}^{%s}(%s)" % (kind, label, arg)


def piv_latex(
    inst: PIVInstance, prev_diagram: Sequence[int], next_diagram: Sequence[int]
) -> str:
    """y(t) as the log-derivative of the two ladder diagrams' Wronskians,
    with the conventional t/sqrt(k) arguments when the shift is 2k."""
    k = int(1 / inst.c_sq)
    arg = "t" if k == 1 else r"t/\sqrt{%d}" % k
    # coefficient of t in y, whose denominator is monic
    lin_coeff = inst.y.num.coeff(inst.y.den.degree + 1)
    head = "" if lin_coeff == 0 else frac_latex(lin_coeff) + "t + "
    top = _wronskian_symbol("H", diagram_latex(prev_diagram), arg)
    bot = _wronskian_symbol("H", diagram_latex(next_diagram), arg)
    return r"y(t) = %s\frac{d}{dt}\log\frac{%s}{%s}" % (head, top, bot)


def pv_latex(inst: PVInstance) -> str:
    return "y(t) = " + ratfunc_latex(inst.y, "t") + (
        r",\quad (a,b,c,d) = \left(%s,\,%s,\,%s,\,%s\right)"
        % (
            frac_latex(inst.a),
            frac_latex(inst.b),
            frac_latex(inst.c),
            frac_latex(inst.d),
        )
    )
