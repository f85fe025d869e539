"""Classical orthogonal polynomials and factorial coefficients.

Hermite polynomials use the physicists' convention (weight exp(-z**2)); the
Laguerre normalization is pinned by dL_n^a/dz = -L_{n-1}^{a+1}.  Both
conventions are forced by the Hermite-Laguerre bridge
H_{2j}(z) = (-1)^j 2^{2j} j! L_j^{-1/2}(z**2) and its odd companion, which
the test suite checks as exact polynomial identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import Polynomial, _exact


class IntegerAlpha(ValueError):
    """The isotonic parameter was an integer (spectra would merge)."""


@dataclass(frozen=True, slots=True)
class AlphaParam:
    """Isotonic oscillator parameter; any rational that is not an integer.

    Integer values make the extended and shadow spectra collide, so they
    are rejected at construction.  Rejecting negative integers as well keeps
    every shifted parameter alpha + i off the integer lattice.
    """

    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(_exact(self.value)))
        if self.value.denominator == 1:
            raise IntegerAlpha("alpha must not be an integer: %s" % self.value)

    def shifted(self, j: int) -> "AlphaParam":
        return AlphaParam(self.value + j)


@lru_cache(maxsize=None)
def hermite(n: int) -> Polynomial:
    """H_n by the recurrence H_{n+1} = 2z H_n - 2n H_{n-1}."""
    if n < 0:
        raise ValueError("hermite index must be non-negative")
    if n == 0:
        return Polynomial.one()
    if n == 1:
        return Polynomial((0, 2))
    z2 = Polynomial((0, 2))
    return z2 * hermite(n - 1) - (2 * (n - 1)) * hermite(n - 2)


# typed: a float a equal to a cached Fraction misses, and is refused
@lru_cache(maxsize=None, typed=True)
def laguerre(n: int, a: Fraction) -> Polynomial:
    """L_n^a by the three-term recurrence; exact rational coefficients."""
    if n < 0:
        raise ValueError("laguerre index must be non-negative")
    a = Fraction(_exact(a))
    if n == 0:
        return Polynomial.one()
    if n == 1:
        return Polynomial((a + 1, -1))
    lin = Polynomial((2 * n - 1 + a, -1))
    return (lin * laguerre(n - 1, a) - (n - 1 + a) * laguerre(n - 2, a)) * Fraction(1, n)


def falling_factorial(x, i: int) -> Fraction:
    """x (x-1) ... (x-i+1); the empty product is 1."""
    if i < 0:
        raise ValueError("factorial length must be non-negative")
    x = Fraction(_exact(x))
    acc = Fraction(1)
    for j in range(i):
        acc *= x - j
    return acc

