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
from math import factorial, prod
from typing import Optional, Tuple

from .exact import Polynomial, det_int_matrix, det_poly_matrix, frac_str
from .maya import MayaDiagram, UniversalCharacter, conjugate, translate
from .orthopoly import AlphaParam, falling_factorial, hermite

# kept in this namespace, where bench/tracer.py times the orthopoly layer;
# hermite, falling_factorial and det_poly_matrix are looked up here by the
# tracer too, although only the raw oracle _hermite_matrix_det calls them
from .orthopoly import laguerre  # noqa: F401


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


def _untranslate(entries: Tuple[int, ...]) -> Tuple[int, Tuple[int, ...]]:
    """(k, c) with entries == (0, ..., k-1) + (c + k) and c canonical."""
    k = 0
    while k < len(entries) and entries[k] == k:
        k += 1
    return k, tuple(n - k for n in entries[k:])


def _vandermonde(entries: Tuple[int, ...]) -> int:
    """prod_{i<j} (n_j - n_i)."""
    out = 1
    for j, nj in enumerate(entries):
        for ni in entries[:j]:
            out *= nj - ni
    return out


def _hermite_matrix_det(entries: Tuple[int, ...]) -> Polynomial:
    """Determinant with (i, j) entry (n_j)_i H_{n_j - i}(z), built from
    the Hermite polynomials and eliminated in full; the oracle of the
    canonical cache below."""
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


def _hermite_ys(n: int, i: int) -> list:
    """(n)_i H_{n-i}(z) z**(i%2 - n%2), i <= n, as integers in y = z**2.

    With t = n - i, the z**(t-2k) coefficient of (n)_i H_t(z) is the
    integer (-1)**k n! 2**(t-2k) / (k! (t-2k)!), and the entry has the
    parity of t; the factor of z makes it even (one leading zero in y when
    n is even and i odd).
    """
    t = n - i
    c = (factorial(n) // factorial(t)) << t
    ys = [c]
    for k in range(t // 2):
        c = -c * (t - 2 * k) * (t - 2 * k - 1) // (4 * (k + 1))
        ys.append(c)
    ys.reverse()
    return [0] + ys if i % 2 > n % 2 else ys


def _packed_hermite_det(entries: Tuple[int, ...], negate: bool = False) -> Polynomial:
    """The determinant of _hermite_matrix_det, eliminated in y = z**2; with
    negate, the same at z -> i z (up to a constant).

    Entry (i, j) times z**(b_i - a_j), a_j = n_j mod 2 and b_i = i mod 2,
    is the integer polynomial in y of _hermite_ys, so the determinant is
    z**(sum a_j - sum b_i) D(z**2), with D the integer determinant of
    those y-lists: every list Bareiss multiplies is half as long.
    """
    m = len(entries)
    if m == 0:
        return Polynomial.one()
    rows = [[_hermite_ys(n, i) if i <= n else [] for n in entries] for i in range(m)]
    shift = sum(n % 2 for n in entries) - m // 2
    return det_int_matrix(rows).of_square(shift, negate)


def _conjugate_hermite_det(entries: Tuple[int, ...]) -> Polynomial:
    """The determinant of a canonical diagram c, eliminated at the size of
    its conjugate c' (the diagram of the conjugate partition).

    H_c(z) is proportional to H_c'(i z) / i**deg (Felder, Hemery and
    Veselov 2012), which is H_c' with the sign of each z**k coefficient
    flipped when (deg - k) / 2 is odd.  In y that is D(-y) up to the sign
    (-1)**deg(D), and rescaling to the leading coefficient 2**deg V(c) of
    H_c fixes every constant, the power of i included.
    """
    poly = _packed_hermite_det(conjugate(MayaDiagram(entries)).entries, negate=True)
    return poly * Fraction(2 ** poly.degree * _vandermonde(entries), poly.leading)


@lru_cache(maxsize=None)
def _canonical_hermite_det(entries: Tuple[int, ...]) -> Polynomial:
    """The determinant of a canonical diagram, eliminated once per process
    in y = z**2, at size min(m, c_m - m + 1): through the conjugate when
    that is the smaller diagram.  _hermite_matrix_det is its oracle."""
    if entries and entries[-1] - len(entries) + 1 < len(entries):
        return _conjugate_hermite_det(entries)
    return _packed_hermite_det(entries)


def hermite_wronskian(d: MayaDiagram) -> PseudoWronskian:
    """Determinant with (i, j) entry (n_j)_i H_{n_j - i}(z), i = 0..m-1.

    The empty diagram gives the constant 1.  Gauge: the full Wronskian of
    the m seed eigenfunctions is proportional to exp(-m w / 2) times this
    polynomial, w = omega x**2 / 2.  A diagram (0, ..., k-1, c + k) is the
    k-translate of the canonical c, so its determinant is a constant times
    the cached determinant of c.  That one depends only on the partition
    of c, has leading coefficient 2**deg V(c), deg = sum c - m (m - 1) / 2,
    and is taken from c or from its conjugate, whichever is smaller, as an
    integer matrix in z**2 (see _canonical_hermite_det).
    """
    entries = d.entries
    _check_entries(entries)
    m = len(entries)
    gauge = GaugeExponents(Fraction(0), Fraction(-m, 2))
    k, canon = _untranslate(entries)
    poly = _canonical_hermite_det(canon)
    if k:
        # the leading coefficient is 2**deg * V(entries), deg = sum(n) - m(m-1)/2,
        # and translation keeps deg: the constant is the ratio of the two V
        poly = poly * Fraction(_vandermonde(entries), _vandermonde(canon))
    return PseudoWronskian(poly, gauge, m, 0, None)


def laguerre_gauge(m: int, r: int, alpha: Fraction) -> GaugeExponents:
    z_power = Fraction((m - r) ** 2, 4) - r * (r - 1) + alpha * Fraction(m - r, 2)
    return GaugeExponents(z_power, Fraction(-(m + r), 2))


def _laguerre_ints(n: int, p: int, q: int) -> list:
    """Ascending integer coefficients of q**n n! L_n^{p/q}(z), from the
    closed form (-1)**k C(n, k) q**k prod_{j=k+1..n} (p + j q) of z**k.

    The magnitudes t_k satisfy t_n = q**n and
    t_{k-1} (n - k + 1) q = t_k k (p + k q), so every division is exact.
    """
    out = [0] * (n + 1)
    t = q ** n
    out[n] = -t if n % 2 else t
    for k in range(n, 0, -1):
        t = t * k * (p + k * q) // ((n - k + 1) * q)
        out[k - 1] = t if k % 2 else -t
    return out


def _laguerre_columns(uc: UniversalCharacter, a: Fraction) -> Tuple[list, list]:
    """The pseudo-Wronskian matrix as integer coefficient lists, row-major,
    and the denominator of each column.

    With a = p/q, a spectrum column of n lies over q**n n!: its row i is
    (-1)**i q**i (n)_i times the integers of L_{n-i}^{a+i}.  A shadow
    column of l lies over q**(l+size-1) l!: its row i is
    q**(size-1-i) prod_{t<i} ((l - t) q - p), which is q**(size-1) (l - a)_i,
    times the integers of L_l^{-a-i}, shifted by size - 1 - i.
    """
    p, q = a.numerator, a.denominator
    size = len(uc.first.entries) + len(uc.second.entries)
    columns = []
    dens = []
    for n in uc.first.entries:
        col = []
        f = 1  # q**i (n)_i
        for i in range(min(n + 1, size)):
            s = -f if i % 2 else f
            col.append([s * x for x in _laguerre_ints(n - i, p + i * q, q)])
            f *= (n - i) * q
        columns.append(col + [[]] * (size - len(col)))
        dens.append(q ** n * factorial(n))
    for l in uc.second.entries:
        col = []
        f = 1  # prod_{t<i} ((l - t) q - p)
        for i in range(size):
            s = f * q ** (size - 1 - i)
            col.append(
                [0] * (size - 1 - i) + [s * x for x in _laguerre_ints(l, -p - i * q, q)]
            )
            f *= (l - i) * q - p
        columns.append(col)
        dens.append(q ** (l + size - 1) * factorial(l))
    return [list(row) for row in zip(*columns)], dens


def _laguerre_matrix_det(uc: UniversalCharacter, a: Fraction) -> Polynomial:
    """The pseudo-Wronskian determinant built and eliminated in full; the
    oracle of the translation sharing below."""
    if not uc.first.entries and not uc.second.entries:
        return Polynomial.one()
    rows, dens = _laguerre_columns(uc, a)
    return det_int_matrix(rows, prod(dens))


def _top_coefficient(uc: UniversalCharacter, a: Fraction) -> Fraction:
    """Coefficient of z**(sum c_j - sum i) in the pseudo-Wronskian.

    Entry (i, j) has degree c_j - i (c_j = n for a spectrum column and
    l + size - 1 for a shadow one), so that coefficient is the determinant
    of the entries' leading coefficients, an integer matrix over the same
    column denominators.
    """
    rows, dens = _laguerre_columns(uc, a)
    return det_int_matrix([[e[-1:] for e in row] for row in rows], prod(dens)).coeff(0)


@lru_cache(maxsize=None)
def laguerre_pseudo_wronskian(
    uc: UniversalCharacter, alpha: AlphaParam
) -> PseudoWronskian:
    """(m+r) x (m+r) determinant over both seed families, memoised on its
    exact inputs.

    Spectrum columns carry (-1)**i L_{n-i}^{alpha+i}(z); shadow columns
    carry (l - alpha)_i z^{m+r-1-i} L_l^{-alpha-i}(z), row index i.  The
    gauge turns the result back into the full Wronskian of the mixed seed
    functions, up to a constant.  A character whose components are the
    k1- and k2-translates of canonical ones is c z**(2 r k2 + k2 (k2 - 1))
    times the determinant of those at alpha + k1 - k2 (r the size of the
    canonical second one); when its top coefficient is nonzero, c is that
    coefficient over the leading one of the canonical determinant, which
    comes from this memo.  Otherwise the matrix is eliminated directly.
    """
    _check_entries(uc.first.entries)
    _check_entries(uc.second.entries)
    a = alpha.value
    m = len(uc.first.entries)
    r = len(uc.second.entries)
    gauge = laguerre_gauge(m, r, a)
    k1, canon1 = _untranslate(uc.first.entries)
    k2, canon2 = _untranslate(uc.second.entries)
    if k1 or k2:
        top = _top_coefficient(uc, a)
        if top:
            canon = UniversalCharacter(MayaDiagram(canon1), MayaDiagram(canon2))
            base = laguerre_pseudo_wronskian(canon, alpha.shifted(k1 - k2)).poly
            power = 2 * len(canon2) * k2 + k2 * (k2 - 1)
            poly = base.shifted(power) * (top / base.leading)
            return PseudoWronskian(poly, gauge, m, r, a)
    return PseudoWronskian(_laguerre_matrix_det(uc, a), gauge, m, r, a)


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
    z power 2 r k2 + k2 (k2 - 1) and parameter shift k1 - k2.

    Both sides are eliminated from their own matrices:
    laguerre_pseudo_wronskian assumes this very identity.
    """
    if k1 < 0 or k2 < 0:
        raise ValueError("translation amplitudes must be non-negative")
    r = len(uc.second.entries)
    shifted = UniversalCharacter(
        translate(uc.first, k1), translate(uc.second, k2)
    )
    lhs = _laguerre_matrix_det(shifted, alpha.value)
    rhs = _laguerre_matrix_det(uc, alpha.value + k1 - k2)
    power = 2 * r * k2 + k2 * (k2 - 1)
    c = proportionality_constant(lhs, rhs.shifted(power))
    return LaguerreEquivalence(constant=c, z_power=power, alpha_shift=k1 - k2)
