"""Reduction of period-3 and period-4 chains to the PIV and PV equations.

PIV is verified in a rationalized form: with y = c u(x), t = c x and
c**2 = 2/shift, the equation multiplied through by c only involves c**2,
so the residual lives in Q(x) even when the shift makes c irrational.
PV is verified directly in Q(t), t = x**2.

The PV parameter map (a, b, c, d) =
(e12**2/(2 D**2), -e34**2/(2 D**2), (D - e41 + e23)/4, -D**2/32)
was cross-checked against the equation itself: solving the PV identity
exactly for the parameters, given the constructed solutions, recovers
these values and no others (see scripts/fit_pv_parameters.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .chain import ChainSolution, build_odd_chain
from .exact import Polynomial, RationalFunction, frac_str
from .maya import CyclicStructure


class WrongPeriod(ValueError):
    """The chain's period does not match the target equation."""


class ZeroDenominator(ValueError):
    """The candidate solution is identically 0 (or 1 for PV): the equation
    has poles there and the residual is undefined."""


class DegenerateDenominator(ValueError):
    """w_1 + w_2 collapsed onto the shift line; the PV map is undefined."""


@dataclass(frozen=True)
class PIVInstance:
    """Rationalized PIV data: y = c u(x), x = c t, c**2 = c_sq = 2/shift.

    The t map is the inverse of the y scaling (x = c t, not t = c x); the
    pair is pinned by the equation itself: under it the energy-difference
    parameter formulas satisfy PIV identically for every shift, and the
    worked k = 3 solutions take their familiar -2t/3 + d/dt log(... t/sqrt3)
    shape.  With the scaling printed the other way around, no parameter
    values satisfy PIV once the shift differs from 2 (exact check in the
    test suite).
    """

    u: RationalFunction
    c_sq: Fraction
    a: Fraction
    b: Fraction

    def y_of_t(self) -> RationalFunction:
        """The solution as an exact rational function of t.

        u is odd (log-derivatives of fixed-parity polynomials), so
        y(t) = c u(c t) rescales with integer powers of c**2 only.
        """
        def rescale(p: Polynomial, shift: int) -> Polynomial:
            # the coefficient of x**i moves with c**(shift + i), an even power
            out = []
            for i, coeff in enumerate(p.coeffs):
                e = shift + i
                if coeff and e % 2:
                    raise ValueError("solution is not odd in x")
                out.append(coeff * self.c_sq ** (e // 2) if coeff else Fraction(0))
            return Polynomial(out)

        sigma = self.u.den.degree % 2
        return RationalFunction(rescale(self.u.num, 1 + sigma), rescale(self.u.den, sigma))

    def to_json(self) -> dict:
        y = self.y_of_t()
        return {
            "equation": "PIV",
            "params": {
                "a": frac_str(self.a),
                "b": frac_str(self.b),
                "c_sq": frac_str(self.c_sq),
            },
            "solution_num": y.num.to_strings(),
            "solution_den": y.den.to_strings(),
            "variable": "t",
            "residual_zero": piv_residual(self).is_zero,
        }


@dataclass(frozen=True)
class PVInstance:
    """PV data: y(t) solves the equation with parameters (a, b, c, d)."""

    y: RationalFunction
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def to_json(self) -> dict:
        return {
            "equation": "PV",
            "params": {
                "a": frac_str(self.a),
                "b": frac_str(self.b),
                "c": frac_str(self.c),
                "d": frac_str(self.d),
            },
            "solution_num": self.y.num.to_strings(),
            "solution_den": self.y.den.to_strings(),
            "variable": "t",
            "residual_zero": pv_residual(self).is_zero,
        }


def piv_from_chain(sol: ChainSolution) -> PIVInstance:
    """Map a period-3 chain to its PIV instance: u = w_1 - (shift/2) x."""
    if sol.period != 3 or sol.is_even:
        raise WrongPeriod("PIV needs an odd chain of period 3")
    u = sol.span(0, 1) - RationalFunction(Polynomial((0, sol.delta / 2)))
    e12, e23 = sol.expected_eps[0], sol.expected_eps[1]
    return PIVInstance(
        u=u,
        c_sq=2 / sol.delta,
        a=-(sol.delta + e23 + 2 * e12) / sol.delta,
        b=-2 * e23 * e23 / (sol.delta * sol.delta),
    )


def _quotient_derivatives(f: RationalFunction) -> tuple:
    """N, D, M, K with f = N/D, f' = M/D**2 and f'' = K/D**3."""
    n, d = f.num, f.den
    dd = d.derivative()
    m = n.derivative() * d - n * dd
    return n, d, m, m.derivative() * d - 2 * m * dd


def piv_residual(inst: PIVInstance) -> RationalFunction:
    """Exact rationalized PIV residual; identically zero iff PIV holds.

    Substituting y = c u(x), x = c t into PIV and dividing by c**3 clears
    every odd power of c (c**2 = 2/shift is rational):

        u'' = u'**2/(2u) + (3/2) u**3 + 2 D x u**2
              + (D**2 x**2 / 2 - a D) u + (b D**2 / 4) / u,

    with D the shift.  The returned residual is lhs - rhs in Q(x), built as
    R / (2 N V**3) from u = N/V, u' = M/V**2, u'' = K/V**3; multiplying the
    equation by 2 u V**4 gives R = 2NK - M**2 - 3N**4 - 4DxN**3 V
    - (D**2 x**2 - 2aD) N**2 V**2 - (b D**2 / 2) V**4, so a solution takes
    no gcd.
    """
    if inst.u.is_zero:
        raise ZeroDenominator("candidate PIV solution is identically zero")
    n, v, m, k = _quotient_derivatives(inst.u)
    delta = 2 / inst.c_sq
    n2, v2, dx = n * n, v * v, Polynomial((0, delta))
    inner = 3 * n2 + 4 * dx * n * v + (dx * dx - 2 * inst.a * delta) * v2
    r = 2 * n * k - m * m - n2 * inner - inst.b * delta * delta / 2 * (v2 * v2)
    return RationalFunction(r, 2 * n * v2 * v)


# the default chain order rotated to start at each of its three flips
PIV_ROTATIONS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


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
    out = []
    for rot in PIV_ROTATIONS:
        sol = build_odd_chain(cs, perm=rot)
        out.append(piv_from_chain(sol))
    return tuple(out)


def pv_from_chain(sol: ChainSolution) -> PVInstance:
    """Map a period-4 chain to its PV instance.

    w_1 + w_2 = v(z)/x with v = `span`(0, 2) rational in z, so
    y = 1 - shift*z/(2 v(z)) is an exact rational function of t = z = x**2.
    """
    if sol.period != 4 or not sol.is_even:
        raise WrongPeriod("PV needs an even chain of period 4")
    v = sol.span(0, 2)
    z = RationalFunction(Polynomial.x())
    line = RationalFunction(Polynomial((0, sol.delta / 2)))
    if v.is_zero or v == line:
        raise DegenerateDenominator("w_1 + w_2 degenerates; PV map undefined")
    y = 1 - sol.delta * z / (2 * v)
    delta = sol.delta
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


def pv_residual(inst: PVInstance) -> RationalFunction:
    """Exact PV residual in Q(t); identically zero iff PV holds.

    The residual base - (a A + b B + c C + d E) of `pv_pieces`, built as
    R / (2 t**2 N E V**3) from y = N/V, E = N - V, y' = M/V**2 and
    y'' = K/V**3: R = 2t**2 NEK - t**2 (E + 2N) M**2 + 2tNEVM
    - 2E**3 (aN**2 + bV**2) - 2ctN**2 E V**2 - 2d t**2 N**2 (N + V) V**2,
    so a solution takes no gcd.
    """
    if inst.y.is_zero or inst.y == 1:
        raise ZeroDenominator("candidate PV solution is identically 0 or 1")
    n, v, m, k = _quotient_derivatives(inst.y)
    e, nv, t = n - v, n * v, Polynomial.x()
    ne = n * e
    r = t * (t * (2 * ne * k - (e + 2 * n) * m * m - 2 * inst.d * nv * nv * (n + v))
             + 2 * ne * v * (m - inst.c * nv))
    r -= 2 * e * e * e * (inst.a * n * n + inst.b * v * v)
    return RationalFunction(r, 2 * t * t * ne * v * v * v)
