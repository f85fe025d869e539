"""Reduction of period-3 and period-4 chains to the PIV and PV equations.

Each solution is stored as integer polynomials N, V in z = x**2, read off
two ladder entries (`ChainSolution.span_pair`) and unreduced; only the
printed y(t) is reduced, with one gcd.  Each residual is R / S, with R an
integer polynomial in N, V and their z-derivatives, homogeneous in (N, V),
so the equation holds iff R is the zero polynomial.  `piv_residual` and
`pv_residual` answer that with one `exact.vanishes` call (`_residual`),
and build no polynomial product, failing instance or not.

The PV parameter map (a, b, c, d) =
(e12**2/(2 D**2), -e34**2/(2 D**2), (D - e41 + e23)/4, -D**2/32)
was cross-checked against the equation itself: solving the PV identity
exactly for the parameters, given the constructed solutions, recovers
these values and no others (`test_pv_parameter_fit_recovers_the_map` in
tests/test_painleve.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Callable, Sequence, Tuple

from .chain import ChainSolution, build_odd_chain
from .exact import Polynomial, RationalFunction, frac_str, vanishes
from .maya import CyclicStructure, MayaDiagram


class WrongPeriod(ValueError):
    """The chain's period does not match the target equation."""


class ZeroDenominator(ValueError):
    """The candidate solution is identically 0 (or 1 for PV), or its
    denominator is: the equation has poles there and the residual is
    undefined."""


class DegenerateDenominator(ValueError):
    """w_1 + w_2 collapsed onto the shift line; the PV map is undefined."""


def _instance_json(equation: str, y: RationalFunction, residual_zero: bool,
                   **params: Fraction) -> dict:
    """The JSON record of a solution y(t) of the equation with these
    parameters, and whether its residual vanishes."""
    return {
        "equation": equation,
        "params": {name: frac_str(v) for name, v in params.items()},
        "solution_num": y.num.to_strings(),
        "solution_den": y.den.to_strings(),
        "variable": "t",
        "residual_zero": residual_zero,
    }


def _in_t(p: Polynomial, c_sq: Fraction) -> Polynomial:
    """p(c**2 t**2), a polynomial in t."""
    return Polynomial([coeff * c_sq ** i for i, coeff in enumerate(p.coeffs)]).of_square()


@dataclass(frozen=True)
class PIVInstance:
    """PIV data: y(t) = G(c**2 t**2) / t, G = num/den in z, solves the
    equation with parameters (a, b), and c_sq = c**2 = 2/shift is the
    scale of `piv_from_chain`'s y = c u(c t).  num and den are integer
    polynomials, unreduced.  labels are the diagrams of the two ladder
    entries whose log-ratio y is.

    The t map is the inverse of the y scaling (x = c t, not t = c x); the
    pair is pinned by the equation itself: under it the energy-difference
    parameter formulas satisfy PIV identically for every shift, and the
    worked k = 3 solutions take their familiar -2t/3 + d/dt log(... t/sqrt3)
    shape.  With the scaling printed the other way around, no parameter
    values satisfy PIV once the shift differs from 2 (exact check in the
    test suite).
    """

    num: Polynomial
    den: Polynomial
    c_sq: Fraction
    a: Fraction
    b: Fraction
    labels: Tuple[MayaDiagram, MayaDiagram]

    @cached_property
    def y(self) -> RationalFunction:
        """y(t) in lowest terms: G reduced in z and mapped to t, where its
        numerator and t times its denominator share t when G(0) = 0."""
        g = RationalFunction(self.num, self.den)
        num, den = (_in_t(p, self.c_sq) for p in (g.num, g.den))
        low, rest = num.split_lowest()
        if low:
            return RationalFunction.from_coprime(rest.shifted(low - 1), den)
        return RationalFunction.from_coprime(num, den.shifted(1))

    def to_json(self) -> dict:
        return _instance_json("PIV", self.y, piv_residual(self),
                              a=self.a, b=self.b, c_sq=self.c_sq)


@dataclass(frozen=True)
class PVInstance:
    """PV data: y(t) = num/den, t = z, solves the equation with parameters
    (a, b, c, d); num and den are integer polynomials, unreduced."""

    num: Polynomial
    den: Polynomial
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    @cached_property
    def y(self) -> RationalFunction:
        return RationalFunction(self.num, self.den)

    def to_json(self) -> dict:
        return _instance_json("PV", self.y, pv_residual(self),
                              a=self.a, b=self.b, c=self.c, d=self.d)


def piv_from_chain(sol: ChainSolution) -> PIVInstance:
    """Map a period-3 chain to its PIV instance: y(t) = c u(c t), with
    u = w_1 - (shift/2) x and c**2 = 2/shift.

    With v = x w_1 = A(z)/B(z) (`span_pair`(0, 1)), x u = G(z) with
    G = (A - (shift/2) z B) / B, and y = G(c**2 t**2) / t.
    """
    if sol.period != 3 or sol.is_even:
        raise WrongPeriod("PIV needs an odd chain of period 3")
    a, b = sol.span_pair(0, 1)
    e12, e23 = sol.expected_eps[0], sol.expected_eps[1]
    return PIVInstance(
        num=a - b.shifted(1) * (sol.delta / 2),
        den=b,
        c_sq=2 / sol.delta,
        a=-(sol.delta + e23 + 2 * e12) / sol.delta,
        b=-2 * e23 * e23 / (sol.delta * sol.delta),
        labels=sol.labels[:2],
    )


def _quotient_jets(N, V, sub) -> tuple:
    """(M, K) from the jets of N and V, with f = N/V, f' = M/V**2 and
    f'' = K/V**3."""
    n, n1, n2 = N
    v, v1, v2 = V
    m = sub(n1 * v, n * v1)
    return m, sub(sub(n2 * v, n * v2) * v, 2 * m * v1)


def _residual(numerator: Callable, inst, consts: Sequence[Fraction]) -> bool:
    """Whether the residual numerator of the instance's pair (N, V) is the
    zero polynomial.

    numerator(N, V, pt, ints) is homogeneous in (N, V); it reads their jets
    in z at the point pt (`exact.Point`), and the constants times their
    common denominator, as integers.  `exact.vanishes` tells whether it is 0.
    """
    scale = lcm(*(q.denominator for q in consts))
    ints = [q.numerator * (scale // q.denominator) for q in consts]
    return vanishes([lambda jets, pt: numerator(*jets, pt, ints)],
                    (inst.num.int_coeffs, inst.den.int_coeffs))[0]


def _piv_numerator(N, V, pt, consts):
    """L R of `piv_residual` at pt, with consts = L (1, k, k**2, 4ak, 2bk**2)."""
    s, c1, c2, c3, c4 = map(pt.const, consts)
    times = pt.times
    n, v = N[0], V[0]
    m, k = _quotient_jets(N, V, pt.sub)
    n2, v2 = n * n, v * v
    return pt.sub(3 * s * n2 * v2 + times(c3 * n2 * v2 + times(8 * s * n * k)),
                  3 * s * n2 * n2 + times(8 * c1 * n2 * n * v + times(
                      4 * s * m * m + 4 * c2 * n2 * v2 + c4 * v2 * v2)))


def piv_residual(inst: PIVInstance) -> bool:
    """Whether y(t) solves PIV exactly:

        y'' = y'**2/(2y) + (3/2) y**3 + 4t y**2 + 2(t**2 - a) y + b/y.

    lhs - rhs, with y = G(z)/t, z = c**2 t**2, G = N/V in z, G' = M/V**2
    and G'' = K/V**3, is R / (2 t**3 N V**3) with k = 1/c**2 and
    R = 3N**2 V**2 + 8z**2 NK - 4z**2 M**2 - 3N**4 - 8kz N**3 V
    - 4k**2 z**2 N**2 V**2 + 4akz N**2 V**2 - 2bk**2 z**2 V**4.
    PIV holds iff R is the zero polynomial, which `_residual` tells.
    """
    if inst.num.is_zero or inst.den.is_zero:
        raise ZeroDenominator("candidate PIV solution or its denominator is identically zero")
    k = 1 / inst.c_sq
    consts = (Fraction(1), k, k * k, 4 * inst.a * k, 2 * inst.b * k * k)
    return _residual(_piv_numerator, inst, consts)


def piv_families(cs: CyclicStructure) -> Tuple[PIVInstance, PIVInstance, PIVInstance]:
    """The three PIV solutions of a 3-cyclic structure.

    One instance per choice of first flip, obtained by cyclic rotation of
    the default chain order; the rotations put the first flip at level 0,
    then at each block flip in turn.  The diagram shifts (opening a block,
    closing it, or extending an Okamoto block) all come out of plain flip
    replay.
    """
    if cs.p != 3:
        raise WrongPeriod("three-member families need a period-3 structure")
    rotations = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    return tuple(piv_from_chain(build_odd_chain(cs, perm=rot)) for rot in rotations)


def pv_from_chain(sol: ChainSolution) -> PVInstance:
    """Map a period-4 chain to its PV instance.

    w_1 + w_2 = v(z)/x with v = A/B (`span_pair`(0, 2)) rational in z, so
    y = 1 - shift*z/(2 v(z)) = (2A - shift z B) / (2A) is an exact
    rational function of t = z = x**2.
    """
    if sol.period != 4 or not sol.is_even:
        raise WrongPeriod("PV needs an even chain of period 4")
    delta = sol.delta
    a, b = sol.span_pair(0, 2)
    num = 2 * a - b.shifted(1) * delta
    if a.is_zero or num.is_zero:  # v is 0 or the line shift*z/2
        raise DegenerateDenominator("w_1 + w_2 degenerates; PV map undefined")
    e12, e23, e34 = sol.expected_eps[0], sol.expected_eps[1], sol.expected_eps[2]
    e41 = sol.expected_eps[3] + delta
    return PVInstance(
        num=num,
        den=2 * a,
        a=e12 * e12 / (2 * delta * delta),
        b=-e34 * e34 / (2 * delta * delta),
        c=(delta - e41 + e23) / 4,
        d=-delta * delta / 32,
    )


def _pv_numerator(N, V, pt, consts):
    """L R of `pv_residual` at pt, with consts = L (1, 2a, 2b, 2c, 2d)."""
    s, ca, cb, cc, cd = map(pt.const, consts)
    sub = pt.sub
    n, v = N[0], V[0]
    m, k = _quotient_jets(N, V, sub)
    e, nv = sub(n, v), n * v
    ne = n * e
    inner = sub(2 * s * ne * k, s * (e + 2 * n) * m * m + cd * nv * nv * (n + v))
    mid = sub(pt.times(inner) + 2 * s * ne * v * m, cc * ne * v * nv)
    return sub(pt.times(mid), e * e * e * (ca * n * n + cb * v * v))


def pv_residual(inst: PVInstance) -> bool:
    """Whether y(t) solves PV exactly:

        y'' = (1/(2y) + 1/(y - 1)) y'**2 - y'/t
              + (y - 1)**2 (a y + b/y) / t**2 + c y/t + d y (y + 1)/(y - 1).

    lhs - rhs is R / (2 t**2 N E V**3) with y = N/V, E = N - V,
    y' = M/V**2 and y'' = K/V**3: R = 2t**2 NEK - t**2 (E + 2N) M**2 + 2tNEVM
    - 2E**3 (aN**2 + bV**2) - 2ctN**2 E V**2 - 2d t**2 N**2 (N + V) V**2.
    PV holds iff R is the zero polynomial, which `_residual` tells.
    """
    if inst.num.is_zero or inst.den.is_zero or inst.num == inst.den:
        raise ZeroDenominator("candidate PV solution is identically 0 or 1, or its denominator is")
    consts = (Fraction(1), 2 * inst.a, 2 * inst.b, 2 * inst.c, 2 * inst.d)
    return _residual(_pv_numerator, inst, consts)
