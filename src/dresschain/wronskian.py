"""Hermite Wronskians and Laguerre pseudo-Wronskians with gauge tracking.

Both determinants are defined directly as the polynomial matrices below
(not as analytic Wronskians; those differ by a known constant factor that
drops out of every log-derivative ratio).  Each result carries gauge
exponents (z_power, exp_coeff) describing the prefactor

    z**z_power * exp(exp_coeff * w),   w = omega * x**2 / 2,

of the full seed-function Wronskian it came from, so chain assembly can
take exact log-derivatives of full ratios without re-deriving prefactors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Tuple

from .exact import Polynomial, det_poly_matrix, frac_str
from .maya import MayaDiagram, UniversalCharacter, translate
from .orthopoly import AlphaParam, falling_factorial, hermite, laguerre


class NegativeIndex(ValueError):
    """Wronskian seed tuples must have non-negative entries."""


class NotProportional(ValueError):
    """Two polynomials expected to agree up to a constant did not."""


@dataclass(frozen=True)
class GaugeExponents:
    """Prefactor data z**z_power * exp(exp_coeff * omega x**2 / 2)."""

    z_power: Fraction
    exp_coeff: Fraction


@dataclass(frozen=True)
class PseudoWronskian:
    """Polynomial part of a seed-function Wronskian plus its gauge.

    m and r are the component sizes of the labeling index tuples (r = 0
    and alpha = None for the harmonic-oscillator case).
    """

    poly: Polynomial
    gauge: GaugeExponents
    m: int
    r: int
    alpha: Optional[Fraction]

    @property
    def z_power(self) -> Fraction:
        return self.gauge.z_power

    @property
    def exp_coeff(self) -> Fraction:
        return self.gauge.exp_coeff

    def to_json(self) -> dict:
        return {
            "poly": self.poly.to_strings(),
            "z_power": frac_str(self.z_power),
            "exp_coeff": frac_str(self.exp_coeff),
            "m": self.m,
            "r": self.r,
            "alpha": None if self.alpha is None else frac_str(self.alpha),
        }


def _check_entries(entries: Tuple[int, ...]) -> None:
    if any(n < 0 for n in entries):
        raise NegativeIndex("seed tuple has a negative entry: %r" % (entries,))


def _vandermonde(entries: Tuple[int, ...]) -> int:
    """prod_{i<j} (n_j - n_i)."""
    out = 1
    for j, nj in enumerate(entries):
        for ni in entries[:j]:
            out *= nj - ni
    return out


def _hermite_matrix_det(entries: Tuple[int, ...]) -> Polynomial:
    """Determinant with (i, j) entry (n_j)_i H_{n_j - i}(z), built and
    eliminated in full; the oracle of the canonical cache below."""
    m = len(entries)
    if m == 0:
        return Polynomial.one()
    rows = []
    for i in range(m):
        row = []
        for n in entries:
            if n - i < 0:
                row.append(Polynomial.zero())
            else:
                row.append(falling_factorial(n, i) * hermite(n - i))
        rows.append(row)
    return det_poly_matrix(rows)


# determinants of canonical diagrams, each eliminated once per process
_canonical_hermite_det = lru_cache(maxsize=None)(_hermite_matrix_det)


def hermite_wronskian(d: MayaDiagram) -> PseudoWronskian:
    """Determinant with (i, j) entry (n_j)_i H_{n_j - i}(z), i = 0..m-1.

    The empty diagram gives the constant 1.  Gauge: the full Wronskian of
    the m seed eigenfunctions is proportional to exp(-m w / 2) times this
    polynomial, w = omega x**2 / 2.  A diagram (0, ..., k-1, c + k) is the
    k-translate of the canonical c, so its determinant is a constant times
    the cached determinant of c.
    """
    entries = d.entries
    _check_entries(entries)
    m = len(entries)
    gauge = GaugeExponents(Fraction(0), Fraction(-m, 2))
    k = 0
    while k < m and entries[k] == k:
        k += 1
    canon = tuple(n - k for n in entries[k:])
    poly = _canonical_hermite_det(canon)
    if k:
        # the leading coefficient is 2**deg * V(entries), deg = sum(n) - m(m-1)/2,
        # and translation keeps deg: the constant is the ratio of the two V
        poly = poly * Fraction(_vandermonde(entries), _vandermonde(canon))
    return PseudoWronskian(poly, gauge, m, 0, None)


def laguerre_gauge(m: int, r: int, alpha: Fraction) -> GaugeExponents:
    z_power = Fraction((m - r) ** 2, 4) - r * (r - 1) + alpha * Fraction(m - r, 2)
    return GaugeExponents(z_power, Fraction(-(m + r), 2))


@lru_cache(maxsize=None)
def laguerre_pseudo_wronskian(
    uc: UniversalCharacter, alpha: AlphaParam
) -> PseudoWronskian:
    """(m+r) x (m+r) determinant over both seed families, memoised on its
    exact inputs.

    Spectrum columns carry (-1)**i L_{n-i}^{alpha+i}(z); shadow columns
    carry (l - alpha)_i z^{m+r-1-i} L_l^{-alpha-i}(z), row index i.  The
    gauge turns the result back into the full Wronskian of the mixed seed
    functions, up to a constant.
    """
    _check_entries(uc.first.entries)
    _check_entries(uc.second.entries)
    a = alpha.value
    m = len(uc.first.entries)
    r = len(uc.second.entries)
    size = m + r
    gauge = laguerre_gauge(m, r, a)
    if size == 0:
        return PseudoWronskian(Polynomial.one(), gauge, 0, 0, a)
    columns = []
    for n in uc.first.entries:
        col = []
        for i in range(size):
            if n - i < 0:
                col.append(Polynomial.zero())
            else:
                sign = -1 if i % 2 else 1
                col.append(sign * laguerre(n - i, a + i))
        columns.append(col)
    for l in uc.second.entries:
        col = []
        for i in range(size):
            factor = falling_factorial(l - a, i)
            col.append((factor * laguerre(l, -a - i)).shifted(size - 1 - i))
        columns.append(col)
    rows = [[columns[j][i] for j in range(size)] for i in range(size)]
    return PseudoWronskian(det_poly_matrix(rows), gauge, m, r, a)


def proportionality_constant(p: Polynomial, q: Polynomial) -> Fraction:
    """The constant c with p == c * q, or NotProportional."""
    if p.is_zero or q.is_zero:
        raise NotProportional("zero polynomial in proportionality check")
    if p.degree != q.degree:
        raise NotProportional("degree mismatch: %d vs %d" % (p.degree, q.degree))
    c = p.leading / q.leading
    if p != q * c:
        raise NotProportional("polynomials are not proportional")
    return c


def check_translation_equivalence_hermite(d: MayaDiagram, k: int) -> Fraction:
    """Exact constant ratio of the translated and original determinants.

    Both sides are eliminated from their own matrices: hermite_wronskian
    assumes this very identity, so it cannot serve as evidence for it.
    """
    if not d.is_canonical:
        raise ValueError("expects a canonical diagram")
    lhs = _hermite_matrix_det(translate(d, k).entries)
    rhs = _hermite_matrix_det(d.entries)
    return proportionality_constant(lhs, rhs)


@dataclass(frozen=True)
class LaguerreEquivalence:
    """Verified data of the translated-pair identity: the translated
    determinant equals constant * z**z_power times the original one at the
    shifted parameter alpha + (k1 - k2)."""

    constant: Fraction
    z_power: int
    alpha_shift: int


def check_translation_equivalence_laguerre(
    uc: UniversalCharacter, k1: int, k2: int, alpha: AlphaParam
) -> LaguerreEquivalence:
    """Verify the pseudo-Wronskian translation identity with its explicit
    z power 2 r k2 + k2 (k2 - 1) and parameter shift k1 - k2."""
    if k1 < 0 or k2 < 0:
        raise ValueError("translation amplitudes must be non-negative")
    r = len(uc.second.entries)
    shifted = UniversalCharacter(
        translate(uc.first, k1), translate(uc.second, k2)
    )
    lhs = laguerre_pseudo_wronskian(shifted, alpha)
    rhs = laguerre_pseudo_wronskian(uc, alpha.shifted(k1 - k2))
    power = 2 * r * k2 + k2 * (k2 - 1)
    c = proportionality_constant(lhs.poly, rhs.poly.shifted(power))
    return LaguerreEquivalence(constant=c, z_power=power, alpha_shift=k1 - k2)
