"""Reduction of period-3 and period-4 chains to the PIV and PV equations.

Both equations are verified in Q(t), with t the variable their solutions
are printed in (`piv_from_chain`, `pv_from_chain`).

Each residual is R / S, with R an integer polynomial in the solution's
numerator and denominator and their derivatives.  R is checked as one
integer, its value at 2**K (`_residual`); only a failing instance builds
R / S by polynomial products, with one gcd, to report it.

The PV parameter map (a, b, c, d) =
(e12**2/(2 D**2), -e34**2/(2 D**2), (D - e41 + e23)/4, -D**2/32)
was cross-checked against the equation itself: solving the PV identity
exactly for the parameters, given the constructed solutions, recovers
these values and no others (see scripts/fit_pv_parameters.py).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Sequence, Tuple

from .chain import ChainSolution, build_odd_chain
from .exact import Polynomial, RationalFunction, bits_above, frac_str, jet
from .maya import CyclicStructure, MayaDiagram


class WrongPeriod(ValueError):
    """The chain's period does not match the target equation."""


class ZeroDenominator(ValueError):
    """The candidate solution is identically 0 (or 1 for PV): the equation
    has poles there and the residual is undefined."""


class DegenerateDenominator(ValueError):
    """w_1 + w_2 collapsed onto the shift line; the PV map is undefined."""


def _instance_json(equation: str, y: RationalFunction, residual: RationalFunction,
                   **params: Fraction) -> dict:
    """The JSON record of a solution y(t) of the equation with these
    parameters, and whether its residual vanishes."""
    return {
        "equation": equation,
        "params": {name: frac_str(v) for name, v in params.items()},
        "solution_num": y.num.to_strings(),
        "solution_den": y.den.to_strings(),
        "variable": "t",
        "residual_zero": residual.is_zero,
    }


@dataclass(frozen=True)
class PIVInstance:
    """PIV data: y(t) solves the equation with parameters (a, b), and
    c_sq = c**2 = 2/shift is the scale of `piv_from_chain`'s y = c u(c t).
    labels are the diagrams of the two ladder entries whose log-ratio y
    is.

    The t map is the inverse of the y scaling (x = c t, not t = c x); the
    pair is pinned by the equation itself: under it the energy-difference
    parameter formulas satisfy PIV identically for every shift, and the
    worked k = 3 solutions take their familiar -2t/3 + d/dt log(... t/sqrt3)
    shape.  With the scaling printed the other way around, no parameter
    values satisfy PIV once the shift differs from 2 (exact check in the
    test suite).
    """

    y: RationalFunction
    c_sq: Fraction
    a: Fraction
    b: Fraction
    labels: Tuple[MayaDiagram, MayaDiagram]

    def to_json(self) -> dict:
        return _instance_json("PIV", self.y, piv_residual(self),
                              a=self.a, b=self.b, c_sq=self.c_sq)


@dataclass(frozen=True)
class PVInstance:
    """PV data: y(t) solves the equation with parameters (a, b, c, d)."""

    y: RationalFunction
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def to_json(self) -> dict:
        return _instance_json("PV", self.y, pv_residual(self),
                              a=self.a, b=self.b, c=self.c, d=self.d)


def piv_from_chain(sol: ChainSolution) -> PIVInstance:
    """Map a period-3 chain to its PIV instance: y(t) = c u(c t), with
    u = w_1 - (shift/2) x and c**2 = 2/shift.  u is odd (log-derivatives of
    fixed-parity polynomials), so y lies in Q(t) even when c is irrational."""
    if sol.period != 3 or sol.is_even:
        raise WrongPeriod("PIV needs an odd chain of period 3")
    c_sq = 2 / sol.delta
    u = sol.span(0, 1) - Polynomial((0, sol.delta / 2))

    def rescale(p: Polynomial, shift: int) -> Polynomial:
        # the coefficient of x**i moves with c**(shift + i), an even power
        if any(coeff and (shift + i) % 2 for i, coeff in enumerate(p.coeffs)):
            raise ValueError("solution is not odd in x")
        return Polynomial([
            coeff * c_sq ** ((shift + i) // 2) for i, coeff in enumerate(p.coeffs)
        ])

    # x -> c x keeps num and den coprime: no gcd
    sigma = u.den.degree % 2
    e12, e23 = sol.expected_eps[0], sol.expected_eps[1]
    return PIVInstance(
        y=RationalFunction.from_coprime(rescale(u.num, 1 + sigma), rescale(u.den, sigma)),
        c_sq=c_sq,
        a=-(sol.delta + e23 + 2 * e12) / sol.delta,
        b=-2 * e23 * e23 / (sol.delta * sol.delta),
        labels=sol.labels[:2],
    )


def _quotient_derivatives(*coeff_lists: Sequence[int]) -> tuple:
    """(P, P', P'') as polynomials for each integer coefficient list: the
    jets of N and V, f = N/V, that a failing residual is built from."""
    polys = [Polynomial(cs) for cs in coeff_lists]
    return tuple((p, p.derivative(), p.derivative().derivative()) for p in polys)


def _quotient_jets(N, V, sub) -> tuple:
    """(M, K) from the jets of N and V, with f = N/V, f' = M/V**2 and
    f'' = K/V**3."""
    n, n1, n2 = N
    v, v1, v2 = V
    m = sub(n1 * v, n * v1)
    return m, sub(sub(n2 * v, n * v2) * v, 2 * m * v1)


def _residual(
    numerator: Callable, denominator: Callable, f: RationalFunction,
    consts: Sequence[Fraction],
) -> RationalFunction:
    """The residual numerator / (L denominator) of f = N/V, in Q(t).

    numerator(N, V, t, ints, sub) is homogeneous in (N, V), of the degree
    of denominator(N, V, t), so N and V may be the integer polynomials of
    `integer_pair`; it reads their jets at a point t, and the constants
    times their common denominator L.  At t = 1 on the l1 norms, with the
    constants in absolute value and sub the addition, it bounds its own l1
    norm, so its value at 2**bits_above(bound) is 0 exactly when it is the
    zero polynomial.  Only a nonzero one is built by polynomial products.
    """
    cs, vs = f.integer_pair()
    scale = lcm(*(q.denominator for q in consts))
    ints = [q.numerator * (scale // q.denominator) for q in consts]
    bound = numerator(
        jet([abs(c) for c in cs], 0), jet([abs(c) for c in vs], 0), 1,
        [abs(c) for c in ints], operator.add,
    )
    k = bits_above(bound)
    if numerator(jet(cs, k), jet(vs, k), 1 << k, ints, operator.sub) == 0:
        return RationalFunction.zero()
    N, V = _quotient_derivatives(cs, vs)
    t = Polynomial.x()
    return RationalFunction(
        numerator(N, V, t, ints, operator.sub), scale * denominator(N[0], V[0], t)
    )


def _piv_numerator(N, V, t, consts, sub):
    """L R of `piv_residual`, with consts = L (1, 8, 4, 4a, 2b)."""
    s, c1, c2, c3, c4 = consts
    n, v = N[0], V[0]
    m, k = _quotient_jets(N, V, sub)
    n2, v2 = n * n, v * v
    return sub(
        2 * s * n * k + c3 * n2 * v2,
        s * m * m + n2 * (3 * s * n2 + c1 * t * n * v + c2 * t * t * v2) + c4 * v2 * v2,
    )


def piv_residual(inst: PIVInstance) -> RationalFunction:
    """Exact PIV residual in Q(t); identically zero iff PIV holds:

        y'' = y'**2/(2y) + (3/2) y**3 + 4t y**2 + 2(t**2 - a) y + b/y.

    The returned residual is lhs - rhs, which is R / (2 N V**3) with
    y = N/V, y' = M/V**2, y'' = K/V**3; multiplying the equation by
    2 y V**4 gives R = 2NK - M**2 - 3N**4 - 8tN**3 V - (4t**2 - 4a) N**2 V**2
    - 2b V**4.  R is checked at t = 2**K (`_residual`); only a nonzero R is
    built by polynomial products and reduced, with one gcd.
    """
    if inst.y.is_zero:
        raise ZeroDenominator("candidate PIV solution is identically zero")
    consts = (1, 8, 4, 4 * inst.a, 2 * inst.b)
    return _residual(_piv_numerator, lambda n, v, t: 2 * n * v * v * v, inst.y, consts)


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

    w_1 + w_2 = v(z)/x with v = `span`(0, 2) rational in z, so
    y = 1 - shift*z/(2 v(z)) is an exact rational function of t = z = x**2.
    With v = A/B, y = (2A - shift z B) / (2A); a common factor of the two
    divides z B and A, which is coprime to B, so it is z, and only when
    A(0) = 0 (then B(0) != 0): y takes no gcd.
    """
    if sol.period != 4 or not sol.is_even:
        raise WrongPeriod("PV needs an even chain of period 4")
    delta = sol.delta
    v = sol.span(0, 2)
    if v.is_zero:
        raise DegenerateDenominator("w_1 + w_2 degenerates; PV map undefined")
    a, zb = v.num, v.den.shifted(1)
    low, rest = a.split_lowest()
    if low:
        a, zb = rest.shifted(low - 1), v.den
    num = 2 * a - delta * zb
    if num.is_zero:  # v is the line shift*z/2
        raise DegenerateDenominator("w_1 + w_2 degenerates; PV map undefined")
    y = RationalFunction.from_coprime(num, 2 * a)
    e12, e23, e34 = sol.expected_eps[0], sol.expected_eps[1], sol.expected_eps[2]
    e41 = sol.expected_eps[3] + delta
    return PVInstance(
        y=y,
        a=e12 * e12 / (2 * delta * delta),
        b=-e34 * e34 / (2 * delta * delta),
        c=(delta - e41 + e23) / 4,
        d=-delta * delta / 32,
    )


def pv_pieces(y: RationalFunction) -> tuple:
    """The RationalFunction form of PV, linear in its parameters:
    (base, A, B, C, E) with PV <=> base == a A + b B + c C + d E."""
    t = RationalFunction(Polynomial.x())
    dy = y.derivative()
    base = dy.derivative() - (1 / (2 * y) + 1 / (y - 1)) * dy * dy + dy / t
    y1sq = (y - 1) * (y - 1)
    return base, y1sq * y / (t * t), y1sq / (y * t * t), y / t, y * (y + 1) / (y - 1)


def _pv_numerator(N, V, t, consts, sub):
    """L R of `pv_residual`, with consts = L (1, 2a, 2b, 2c, 2d)."""
    s, ca, cb, cc, cd = consts
    n, v = N[0], V[0]
    m, k = _quotient_jets(N, V, sub)
    e, nv = sub(n, v), n * v
    ne = n * e
    inner = sub(2 * s * ne * k, s * (e + 2 * n) * m * m + cd * nv * nv * (n + v))
    mid = sub(t * inner + 2 * s * ne * v * m, cc * ne * v * nv)
    return sub(t * mid, e * e * e * (ca * n * n + cb * v * v))


def pv_residual(inst: PVInstance) -> RationalFunction:
    """Exact PV residual in Q(t); identically zero iff PV holds.

    The residual base - (a A + b B + c C + d E) of `pv_pieces`, which is
    R / (2 t**2 N E V**3) with y = N/V, E = N - V, y' = M/V**2 and
    y'' = K/V**3: R = 2t**2 NEK - t**2 (E + 2N) M**2 + 2tNEVM
    - 2E**3 (aN**2 + bV**2) - 2ctN**2 E V**2 - 2d t**2 N**2 (N + V) V**2.
    R is checked at t = 2**K (`_residual`); only a nonzero R is built by
    polynomial products and reduced, with one gcd.
    """
    if inst.y.is_zero or inst.y == 1:
        raise ZeroDenominator("candidate PV solution is identically 0 or 1")
    consts = (Fraction(1), 2 * inst.a, 2 * inst.b, 2 * inst.c, 2 * inst.d)
    return _residual(
        _pv_numerator, lambda n, v, t: 2 * t * t * n * (n - v) * v * v * v, inst.y, consts
    )
