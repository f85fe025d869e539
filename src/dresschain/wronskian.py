"""Hermite Wronskians and Laguerre pseudo-Wronskians with gauge tracking.

Both determinants are defined as the polynomial matrices below.  Each
is an analytic Wronskian up to a constant and a power of z, so it is
computed by the Wronskian recursion of Sylvester's identity, top down and
memoised on seed tuples (_hermite_kernel, _laguerre_kernel).  The
oracles (_hermite_matrix_det, _laguerre_matrix_det) build the matrices
column by column from the recurrence-defined polynomials of orthopoly
(_hermite_column, _laguerre_column) and eliminate them in full.

A ladder entry is stored as its primitive integer polynomial `prim`
(coprime coefficients, positive leading one, nonzero constant term) in
the chain variable z = x**2, its label (the diagram or character that
indexes it) and its alpha.  The kernels keep their values in that form,
as tuples, so `prim` wraps the kernel's tuple itself, not a copy, except
for a Hermite diagram taken through its conjugate.  The label also fixes
what `prim` leaves out, the lowest power of the determinant's variable
(`low`): z**(r (r - 1)) for a Laguerre entry and x**v for a Hermite one,
v = u (u + 1) / 2 with u = #odd - #even entries.  This module alone
knows that layout.  Every chain identity is homogeneous in each entry,
so the chain reads `prim` only; `core`, the determinant up to its
constant, is `prim` with that power put back, and the determinant,
`poly`, and its leading coefficient `lead`, a closed form of the label,
are derived when output reads them.
Each result derives, from its label and its alpha, the gauge exponents
(z_power_num / 4q, exp_coeff) of the prefactor

    z**(z_power_num / 4q) * exp(exp_coeff * w),   w = omega * x**2 / 2,

of the full seed-function Wronskian `prim` came from, so chain assembly
can take exact log-derivatives of full ratios without re-deriving
prefactors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from typing import Optional, Tuple, Union

from .exact import Polynomial, det_poly_matrix, frac_str
from .exact import _iexact_quo, _iprim, _poly
from .maya import MayaDiagram, UniversalCharacter, conjugate
from .orthopoly import AlphaParam, falling_factorial, hermite, laguerre


class NegativeIndex(ValueError):
    """Wronskian seed tuples must have non-negative entries."""


@dataclass(frozen=True, slots=True)
class PseudoWronskian:
    """Polynomial part of a seed-function Wronskian plus its gauge
    z**z_power * exp(exp_coeff * omega x**2 / 2).

    `label` indexes the determinant: a MayaDiagram for a Hermite entry
    (alpha None), a UniversalCharacter for a Laguerre one; m and r are
    the sizes of its components (r = 0 for a diagram).  `prim` is a
    primitive integer polynomial in z = x**2 with a positive leading
    coefficient and a nonzero constant term.  The determinant is
    `lead / prim.leading` times `core`: z**low `prim`(z) for a Laguerre
    entry, in z, and x**low `prim`(x**2) for a Hermite one, in x.  `low`
    and `lead` are closed forms of the label, and `lead` is never zero.
    The gauge of `prim` has exp_coeff -(m + r)/2 and the z power
    z_power_num / 4q, low/2 for a Hermite entry and
    (m - r)**2/4 + alpha (m - r)/2 for a Laguerre one.
    """

    prim: Polynomial
    label: Union[MayaDiagram, UniversalCharacter]
    alpha: Optional[Fraction]
    low: int = field(init=False, repr=False, compare=False)

    @property
    def m(self) -> int:
        return len(self.label if self.alpha is None else self.label.first)

    @property
    def r(self) -> int:
        return 0 if self.alpha is None else len(self.label.second)

    def __post_init__(self):
        # `low`, the lowest power of the determinant's variable: v = u (u + 1)
        # / 2 of x for a diagram, u = #odd - #even entries (hermite_wronskian),
        # and r (r - 1) of z for a character (laguerre_pseudo_wronskian).  A
        # field, so the gauge of every chain that the memoised entry joins
        # reads it without recounting, and `dataclasses.replace` recomputes it.
        if self.alpha is None:
            u = 2 * sum(n % 2 for n in self.label.entries) - self.m
            low = u * (u + 1) // 2
        else:
            low = self.r * (self.r - 1)
        object.__setattr__(self, "low", low)

    @property
    def core(self) -> Polynomial:
        """The determinant up to its constant: `prim` with x**low or
        z**low put back."""
        if self.alpha is None:
            return self.prim.of_square(self.low)
        return self.prim.shifted(self.low)

    @property
    def lead(self) -> Fraction:
        """2**deg V(entries) for a diagram (hermite_wronskian), with
        deg = sum(entries) - m (m - 1) / 2; _laguerre_top for a
        character."""
        if self.alpha is None:
            deg = sum(self.label.entries) - self.m * (self.m - 1) // 2
            return Fraction(2 ** deg * _vandermonde(self.label.entries))
        return _laguerre_top(self.label, self.alpha)

    @property
    def poly(self) -> Polynomial:
        """The determinant: `core` with its constant."""
        return self.core * (self.lead / self.prim.leading)

    @property
    def gauge_den(self) -> int:
        """q for alpha = p/q, 1 for a Hermite entry: 4 q z_power is an
        integer."""
        return 1 if self.alpha is None else self.alpha.denominator

    @property
    def z_power_num(self) -> int:
        """4 q times the power of z in the gauge of `prim`, q = gauge_den:
        q (m - r)**2 + 2 p (m - r) for alpha = p/q, and 2 low for a
        Hermite entry: x**low = z**(low/2)."""
        if self.alpha is None:
            return 2 * self.low
        d = self.m - self.r
        return d * (self.alpha.denominator * d + 2 * self.alpha.numerator)

    @property
    def z_power(self) -> Fraction:
        """The power of z in the gauge of the determinant `poly`: that of
        `prim` less the power `core` puts back, so 0 for a Hermite
        entry."""
        back = Fraction(self.low, 2) if self.alpha is None else self.low
        return Fraction(self.z_power_num, 4 * self.gauge_den) - back

    @property
    def exp_coeff(self) -> Fraction:
        return Fraction(-(self.m + self.r), 2)

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
    k = next((i for i, n in enumerate(entries) if n != i), len(entries))
    return k, tuple(n - k for n in entries[k:])


def _vandermonde(entries: Tuple[int, ...]) -> int:
    """prod_{i<j} (n_j - n_i)."""
    return prod(nj - ni for j, nj in enumerate(entries) for ni in entries[:j])


@lru_cache(maxsize=None)
def _hermite_column(n: int, size: int) -> Tuple[Polynomial, ...]:
    """Rows 0..size-1 of the Hermite Wronskian column of n: (n)_i H_{n-i}(z)."""
    return tuple(falling_factorial(n, i) * hermite(n - i) if i <= n else Polynomial.zero()
                 for i in range(size))


def _hermite_matrix_det(entries: Tuple[int, ...]) -> Polynomial:
    """Determinant with (i, j) entry (n_j)_i H_{n_j - i}(z); the oracle of
    hermite_wronskian."""
    return det_poly_matrix([_hermite_column(n, len(entries)) for n in entries])


def _hermite_ys(n: int) -> list:
    """H_n(z) z**-(n%2) as integers in y = z**2: the z**(n-2k) coefficient
    of H_n is (-1)**k n! 2**(n-2k) / (k! (n-2k)!)."""
    ys = [1 << n]
    for k in range(n // 2):
        ys.append(-ys[-1] * (n - 2 * k) * (n - 2 * k - 1) // (4 * (k + 1)))
    return ys[::-1]


def _canonical(d: list) -> tuple:
    """The coefficients d, or -d when d leads negative, as a tuple: the
    stored form of a kernel value."""
    return tuple(d) if d[-1] > 0 else tuple(-x for x in d)


def _sylvester(w, seeds: tuple, s: int, t: int) -> Tuple[int, tuple]:
    """(E, D) with W(f_1, ..., f_m) = const * z**(E/s) D(z**t), D(0) != 0
    and D a tuple of coprime integers with a positive leading one, for the
    m >= 2 independent f_j = z**(A_j/s) P_j(z**t) of a seed tuple
    S + (g, h), where w gives (E, D) of shorter tuples.

    By Sylvester's identity W(W(S, g), W(S, h)) = W(S) W(S, g, h), this is
    one 2 x 2 Wronskian and one exact division by W(S).  As
    s W(z**(a/s), z**(b/s)) = (b - a) z**((a+b-s)/s), the step on (A, P),
    (B, Q) is sum (b_j - a_i) P_i Q_j u**(i+j), u = z**t, a_i = A + s t i,
    b_j = B + s t j, in one pass; its low zeros go into the exponent.  The
    step is a constant times D(S) D(S, g, h), primitive by Gauss's lemma,
    so less its content it divides by D(S) exactly; the quotient's sign,
    a constant, is dropped.
    """
    head = seeds[:-2]
    (a, f), (b, g), (prev_e, prev) = w(seeds[:-1]), w(head + seeds[-1:]), w(head)
    st = s * t
    r = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            r[i + j] += (b - a + st * (j - i)) * x * y
    v = next(i for i, x in enumerate(r) if x)
    return a + b - s + st * v - prev_e, _canonical(_iexact_quo(_iprim(r[v:]), prev))


@lru_cache(maxsize=None)
def _hermite_kernel(seeds: Tuple[int, ...]) -> Tuple[int, tuple]:
    """_sylvester's (E, D) for the H_n(z), n in sorted seeds, each
    z**(n%2) times integers in y = z**2 (s = 1, t = 2): D is the Wronskian
    up to a constant."""
    if len(seeds) > 1:
        return _sylvester(_hermite_kernel, seeds, 1, 2)
    return (seeds[0] % 2, _canonical(_iprim(_hermite_ys(seeds[0])))) if seeds else (0, (1,))


@lru_cache(maxsize=None)
def hermite_wronskian(d: MayaDiagram) -> PseudoWronskian:
    """Determinant with (i, j) entry (n_j)_i H_{n_j - i}(z), i = 0..m-1,
    memoised on the diagram.

    The empty diagram gives the constant 1.  Gauge: the full Wronskian of
    the m seed eigenfunctions is proportional to exp(-m w / 2) times this
    polynomial, w = omega x**2 / 2.  A diagram (0, ..., k-1, c + k) is the
    k-translate of the canonical c, so its determinant is a constant times
    that of c, and it reads the primitive polynomial of c from this memo.
    A canonical c takes it from the Wronskian, in y = z**2, of the Hermite
    polynomials of c or of its conjugate c' (the diagram of the conjugate
    partition), whichever has fewer, min(m, c_m - m + 1): H_c(z) is
    proportional to H_c'(i z) / i**deg (Felder, Hemery and Veselov 2012),
    so through c' the result is taken at y -> -y.  Either is
    z**E D(y) up to a constant, D(0) != 0, and `prim` is D: the kernel's
    tuple itself on the direct route, a copy through c'.
    The leading coefficient of either is 2**deg V(entries),
    deg = sum(entries) - m (m - 1) / 2.

    E is v = u (u + 1) / 2, the entry's `low`, with u = b - a for a even
    and b odd entries.  The coefficient of z**(2i) in H_{2k} is a factor
    of i times one of k times the falling factorial (k)_i, and
    det((k_j)_i) = V(k) != 0, so the a even H_n span a basis with
    valuations 0, 2, ..., 2a - 2; likewise (z**(2i+1) in H_{2k+1}) the b
    odd ones 1, 3, ..., 2b - 1.  These are distinct, so as at
    _laguerre_top's lowest term the Wronskian starts at z**E with
    E = a (a - 1) + b**2 - m (m - 1) / 2 = v.
    """
    entries = d.entries
    _check_entries(entries)
    m = len(entries)
    k, canon = _untranslate(entries)
    if k:
        prim = hermite_wronskian(MayaDiagram(canon)).prim
    else:
        through = bool(entries) and entries[-1] - m + 1 < m
        _, ys = _hermite_kernel(conjugate(d).entries if through else entries)
        if through:
            ys = _canonical([-c if i % 2 else c for i, c in enumerate(ys)])
        prim = _poly(ys)
    return PseudoWronskian(prim, d, None)


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


@lru_cache(maxsize=None)
def _laguerre_kernel(p: int, q: int, seeds: Tuple[int, ...]) -> Tuple[int, tuple]:
    """_sylvester's (E, D) at alpha = p/q (s = q, t = 1) for the seeds
    n >= 0, L_n^alpha, and ~l = -1 - l < 0, z**-alpha L_l^-alpha, spectrum
    first: D is the Wronskian up to a constant."""
    if len(seeds) > 1:
        return _sylvester(lambda sub: _laguerre_kernel(p, q, sub), seeds, q, 1)
    n = seeds[0] if seeds else 0  # L_0 = 1 for no seeds
    if n < 0:
        return -p, _canonical(_iprim(_laguerre_ints(~n, -p, q)))
    return 0, _canonical(_iprim(_laguerre_ints(n, p, q)))


@lru_cache(maxsize=None)
def _laguerre_column(c: int, shadow: bool, a: Fraction, size: int) -> Tuple[Polynomial, ...]:
    """Rows 0..size-1 of a pseudo-Wronskian column: (-1)**i L_{c-i}^{a+i}(z)
    for a spectrum entry c, (c - a)_i z**(size-1-i) L_c^{-a-i}(z) for a
    shadow entry c."""
    if shadow:
        return tuple((falling_factorial(c - a, i) * laguerre(c, -a - i)).shifted(size - 1 - i)
                     for i in range(size))
    return tuple((-1) ** i * laguerre(c - i, a + i) if i <= c else Polynomial.zero()
                 for i in range(size))


def _laguerre_matrix_det(uc: UniversalCharacter, a: Fraction) -> Polynomial:
    """Determinant of the _laguerre_column matrix, spectrum columns first;
    the oracle of laguerre_pseudo_wronskian."""
    size = len(uc.first.entries) + len(uc.second.entries)
    return det_poly_matrix([_laguerre_column(n, False, a, size) for n in uc.first.entries]
                           + [_laguerre_column(l, True, a, size) for l in uc.second.entries])


def _laguerre_top(uc: UniversalCharacter, a: Fraction) -> Fraction:
    """Coefficient of z**(sum c_j - sum i) in the pseudo-Wronskian, the
    leading one (entry (i, j) has degree c_j - i: c_j = n in a spectrum
    column, l + size - 1 in a shadow one).

    The pseudo-Wronskian is z**(r (size - 1 + a)) times the Wronskian of
    the L_n^a and the z**-a L_l^-a, which lead with (-1)**n z**n / n! and
    (-1)**l z**(l-a) / l!, and a Wronskian of monomials z**e_j leads with
    V(e).  So the coefficient is (-1)**(sum n + sum l) V(n, l - a) over
    prod n! prod l!, in integers V(n q, l q - p) / q**(size (size-1) / 2)
    with a = p/q.  The n are distinct, so are the l, and n = l - a needs
    an integer a, which AlphaParam rejects: it never vanishes.
    """
    p, q = a.numerator, a.denominator
    entries = uc.first.entries + uc.second.entries
    size = len(entries)
    v = _vandermonde(tuple(n * q for n in uc.first.entries)
                     + tuple(l * q - p for l in uc.second.entries))
    den = q ** (size * (size - 1) // 2) * prod(map(factorial, entries))
    return Fraction(-v if sum(entries) % 2 else v, den)


@lru_cache(maxsize=None)
def laguerre_pseudo_wronskian(
    uc: UniversalCharacter, alpha: AlphaParam
) -> PseudoWronskian:
    """(m+r) x (m+r) determinant over both seed families, memoised on its
    exact inputs.

    Spectrum columns carry (-1)**i L_{n-i}^{alpha+i}(z); shadow columns
    carry (l - alpha)_i z^{m+r-1-i} L_l^{-alpha-i}(z), row index i.  The
    gauge turns the result back into the full Wronskian of the mixed seed
    functions, up to a constant.  A canonical character is
    z**(r (m + r - 1) + r alpha) times the Wronskian of the L_n^alpha and
    the z**-alpha L_l^-alpha (see _laguerre_top), which _laguerre_kernel
    takes in powers of z**(1/q), alpha = p/q.  By _laguerre_top's argument
    at the lowest term, that Wronskian starts at z**(-m r - r alpha): the
    L_n^alpha span the valuations 0..m-1 (their low coefficients are V(n)
    up to nonzero row and column factors), the z**-alpha L_l^-alpha span
    -alpha + (0..r-1), and these exponents are distinct.  So the kernel's
    exponent is -r (q m + p), and the determinant is z**(r (r - 1)) times
    its polynomial, whose constant term is nonzero: the entry's `prim`, the
    kernel's tuple itself.
    A character whose components are the k1- and k2-translates of
    canonical ones is a constant times a power of z times the determinant
    of those at alpha + k1 - k2, so it takes their `prim` from this memo.
    """
    _check_entries(uc.first.entries + uc.second.entries)
    k1, canon1 = _untranslate(uc.first.entries)
    k2, canon2 = _untranslate(uc.second.entries)
    a = alpha.value
    if k1 or k2:
        canon = UniversalCharacter(MayaDiagram(canon1), MayaDiagram(canon2))
        prim = laguerre_pseudo_wronskian(canon, alpha.shifted(k1 - k2)).prim
    else:
        seeds = uc.first.entries + tuple(~l for l in uc.second.entries)
        prim = _poly(_laguerre_kernel(a.numerator, a.denominator, seeds)[1])
    return PseudoWronskian(prim, uc, a)
