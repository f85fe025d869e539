"""Exact arithmetic substrate: dense polynomials over Q, reduced rational
functions, and fraction-free determinants of polynomial matrices.

No floats appear anywhere in this package.  A polynomial is stored as a
tuple of integer coefficients (ascending) over one positive integer
denominator, in canonical form: no trailing zero coefficients, and the
content of the integer coefficients is coprime to the denominator (the
zero polynomial is the empty tuple over 1).  Two polynomials are equal
exactly when their stored pairs are, and every operation runs in integer
arithmetic; the Fraction coefficients of the public interface (`coeffs`,
`leading`, `coeff`, serialisation) are produced on demand.

Rational functions keep a monic denominator and a gcd-reduced numerator,
so structural equality coincides with mathematical equality.  Gcds are
taken by a primitive pseudo-remainder sequence, on the one integer
pseudo-division (`_ipdivmod`) that `Polynomial` division also runs, and
general determinants, of a matrix given by rows or by columns, by Bareiss
elimination over Z[x], the oracle of the ladder recursion in `wronskian`;
all of them share the integer kernel below.  `vanishes`, the zero test
of the chain and Painleve checks, picks one x = 2**K for a set of integer
polynomial identities and tests each as one integer there.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd as _gcd, lcm as _lcm
from typing import Callable, Iterable, NamedTuple, Optional, Sequence


class ZeroPolynomial(ValueError):
    """An operation that needs a nonzero polynomial received the zero one."""


def frac_str(q: Fraction) -> str:
    """Serialize a rational as the exact "p/q" form used in all I/O."""
    return "%d/%d" % (q.numerator, q.denominator)


def _exact(x):
    """x, if it is an int or a Fraction: Fraction() would take a float or a str."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError("expected an int or a Fraction, got %s" % type(x).__name__)
    return x


def parse_frac(text: str) -> Fraction:
    """Parse "p/q" (or a bare integer string) into a Fraction."""
    return Fraction(text.strip())


# ---------------------------------------------------------------------------
# Integer coefficient lists: the kernel every polynomial operation runs on.
# Lists are ascending, with no trailing zeros; [] is the zero polynomial.


def _itrim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _iadd(a: Sequence[int], b: Sequence[int]) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return _itrim(out)


def _isub(a: Sequence[int], b: Sequence[int]) -> list:
    out = list(a) + [0] * (len(b) - len(a))
    for i, x in enumerate(b):
        out[i] -= x
    return _itrim(out)


def _imul(a: Sequence[int], b: Sequence[int]) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _idivmod(a: Sequence[int], b: Sequence[int]) -> tuple:
    """(q, r) with a == q*b + r over Z and deg r < deg b.

    Every quotient coefficient must come out integral (as it does for a
    pseudo-division, or when b divides a); otherwise ArithmeticError.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    db = len(b) - 1
    lead = b[-1]
    q = [0] * max(len(a) - db, 0)
    for t in range(len(q) - 1, -1, -1):
        h = r[t + db]
        if h:
            qt, rem = divmod(h, lead)
            if rem:
                raise ArithmeticError("inexact polynomial division")
            q[t] = qt
            for s, bs in enumerate(b):
                r[t + s] -= qt * bs
    return _itrim(q), _itrim(r[:db])


def _iexact_quo(a: Sequence[int], b: Sequence[int]) -> list:
    """Quotient a / b when the division is known exact in Z[x]."""
    q, r = _idivmod(a, b)
    if r:
        raise ArithmeticError("inexact polynomial division")
    return q


def _ipdivmod(a: Sequence[int], b: Sequence[int]) -> tuple:
    """Pseudo-division over Z: (s, q, r) with s*a == q*b + r and
    deg r < deg b, where s is b's leading coefficient to the power
    deg a - deg b + 1, or s = 1, q = [] and r = a when deg a < deg b.
    Content growth is left to the caller."""
    e = len(a) - len(b) + 1
    if e <= 0:
        return 1, [], a
    s = b[-1] ** e
    return (s,) + _idivmod([s * x for x in a], b)


def _icontent(a: Sequence[int], g: int = 0) -> int:
    """gcd(g, a_0, a_1, ...): the content of a for g = 0."""
    for x in a:
        g = _gcd(g, x)
        if g == 1:
            return 1
    return g


def _iprim(a: list) -> list:
    g = _icontent(a)
    return a if g in (0, 1) else [x // g for x in a]


def _poly(num: list, den: int = 1) -> "Polynomial":
    """The Polynomial num / den, brought into canonical form.  A tuple of
    ints over 1 with no trailing zero is kept as given, not copied."""
    _itrim(num)
    if not num:
        den = 1
    elif den != 1:
        if den < 0:
            num = [-x for x in num]
            den = -den
        g = _icontent(num, den)
        if g != 1:
            num = [x // g for x in num]
            den //= g
    p = Polynomial.__new__(Polynomial)
    p._n = tuple(num)
    p._d = den
    return p


# ---------------------------------------------------------------------------


class Polynomial:
    """Dense univariate polynomial with exact rational coefficients.

    Stored as integer coefficients over one positive denominator, in the
    canonical form of the module docstring; degree == len(coeffs) - 1.
    Instances are immutable and hashable.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, coeffs: Iterable = ()):
        c = [_exact(x) for x in coeffs]
        den = _lcm(*(x.denominator for x in c))
        # over 1 the given ints are kept, not copied
        num = ([x.numerator for x in c] if den == 1
               else [x.numerator * (den // x.denominator) for x in c])
        p = _poly(num, den)
        self._n = p._n
        self._d = p._d

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls((0, 1))

    @classmethod
    def constant(cls, value) -> "Polynomial":
        return cls((value,))

    @classmethod
    def monomial(cls, power: int, coeff=1) -> "Polynomial":
        return cls((0,) * power + (coeff,))

    # -- basic structure ----------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        return tuple(Fraction(x, self._d) for x in self._n)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._n) - 1

    @property
    def is_zero(self) -> bool:
        return not self._n

    @property
    def leading(self) -> Fraction:
        if not self._n:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return Fraction(self._n[-1], self._d)

    def coeff(self, i: int) -> Fraction:
        return Fraction(self._n[i], self._d) if 0 <= i < len(self._n) else Fraction(0)

    @property
    def int_coeffs(self) -> tuple:
        """The coefficients (ascending) of a polynomial over Z, as ints."""
        if self._d != 1:
            raise ValueError("polynomial has non-integer coefficients")
        return self._n

    def primitive(self) -> "Polynomial":
        """The positive rational multiple of self, or of -self, with coprime
        integer coefficients and a positive leading one; zero stays zero."""
        n = self._n
        g = _icontent(n)
        if not n or (g == 1 and self._d == 1 and n[-1] > 0):
            return self
        if n[-1] < 0:
            g = -g
        return _poly([x // g for x in n])

    # -- arithmetic ----------------------------------------------------------

    def _aligned(self, other: "Polynomial") -> tuple:
        """Both integer numerators over the common denominator, and it."""
        a, b = self._d, other._d
        if a == b:
            return self._n, other._n, a
        den = _lcm(a, b)
        return [den // a * x for x in self._n], [den // b * x for x in other._n], den

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, den = self._aligned(other)
        return _poly(_iadd(a, b), den)

    def __radd__(self, other) -> "Polynomial":
        return self.__add__(other)

    def __neg__(self) -> "Polynomial":
        return _poly([-x for x in self._n], self._d)

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, den = self._aligned(other)
        return _poly(_isub(a, b), den)

    def __rsub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        return NotImplemented if other is None else other.__sub__(self)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return _poly(_imul(self._n, other._n), self._d * other._d)
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        s = other.numerator
        return _poly([s * x for x in self._n] if s else [], self._d * other.denominator)

    def __rmul__(self, other) -> "Polynomial":
        return self.__mul__(other)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "Polynomial"):
        """Division over Q, run as the integer pseudo-division
        s * num(self) == q * num(other) + r of `_ipdivmod`."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        s, q, r = _ipdivmod(self._n, other._n)
        den = s * self._d
        return _poly([other._d * x for x in q], den), _poly(r, den)

    @staticmethod
    def _coerce(value) -> Optional["Polynomial"]:
        """value as a Polynomial if it is one, an int or a Fraction; else
        None, and the operator returns NotImplemented, so that the other
        operand's reflected method answers."""
        if isinstance(value, Polynomial):
            return value
        if isinstance(value, (int, Fraction)):
            return Polynomial((value,))
        return None

    # -- calculus & transforms ----------------------------------------------

    def derivative(self) -> "Polynomial":
        return _poly([i * x for i, x in enumerate(self._n)][1:], self._d)

    def eval_at(self, x0) -> Fraction:
        """Exact Horner evaluation, homogenised over the integers."""
        x0 = Fraction(_exact(x0))
        p, q = x0.numerator, x0.denominator
        acc, scale = 0, 1
        for c in reversed(self._n):
            acc = acc * p + c * scale
            scale *= q
        return Fraction(acc * q, scale * self._d) if self._n else Fraction(0)

    def compose(self, inner: "Polynomial") -> "Polynomial":
        acc = Polynomial()
        for c in reversed(self._n):
            acc = acc * inner + c
        return acc * Fraction(1, self._d)

    def shifted(self, k: int) -> "Polynomial":
        """Multiply by x**k."""
        if k < 0:
            raise ValueError("negative shift")
        if self.is_zero or k == 0:
            return self
        return _poly([0] * k + list(self._n), self._d)

    def monic(self) -> "Polynomial":
        if self.is_zero:
            return self
        return _poly(list(self._n), self._n[-1])

    def split_lowest(self) -> tuple:
        """Write self = x**v * q with q(0) != 0; returns (v, q)."""
        if self.is_zero:
            return 0, self
        v = 0
        while self._n[v] == 0:
            v += 1
        return v, _poly(list(self._n[v:]), self._d)

    def of_square(self, shift: int = 0) -> "Polynomial":
        """x**shift * self(x**2)."""
        if shift < 0:
            raise ValueError("negative shift")
        n = self._n
        out = [0] * (2 * len(n) - 1) if n else []
        out[0::2] = n
        return _poly([0] * shift + out, self._d)

    # -- serialization & dunders ---------------------------------------------

    def to_strings(self) -> list:
        return [frac_str(c) for c in self.coeffs]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._d == other._d and self._n == other._n

    def __hash__(self) -> int:
        return hash((self._n, self._d))

    def __repr__(self) -> str:
        return "Polynomial(%r)" % (self.coeffs,)

    def format(
        self, var: str = "z", coeff=str, power: str = "%s^%d", times: str = "*"
    ) -> str:
        """Terms from the highest power down: "3/2*z^2 - z + 1" by default;
        coeff renders |c|, power (var, n) for n > 1, times joins the two."""
        if self.is_zero:
            return "0"
        parts = []
        cs = self.coeffs
        for i in range(len(cs) - 1, -1, -1):
            c = cs[i]
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = coeff(mag)
            else:
                xs = var if i == 1 else power % (var, i)
                body = xs if mag == 1 else coeff(mag) + times + xs
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __str__(self) -> str:
        return self.format()


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd over Q, via a primitive pseudo-remainder sequence over Z."""
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    ia = _iprim(list(a._n))
    ib = _iprim(list(b._n))
    while ib:
        ia, ib = ib, _iprim(_ipdivmod(ia, ib)[2])
    return _poly(ia, ia[-1])


# ---------------------------------------------------------------------------
# An identity between integer polynomials, tested as one integer.  A nonzero
# integer polynomial F does not vanish at x = 2**K once 2**K exceeds its l1
# norm |F|_1: its lowest nonzero coefficient f_j has 0 < |f_j| < 2**K, so
# F(2**K) = 2**(jK) (f_j + 2**K m) for an integer m, and f_j + 2**K m != 0.
# A formula that evaluates F from the jets of its ingredients bounds |F|_1
# by the same arithmetic at x = 1 on their l1 norms (their jets at k = 0
# with every coefficient in absolute value), with every constant in
# absolute value and every subtraction an addition: |f + g| <= |f| + |g|,
# |fg| <= |f| |g|, and a power of x is free.  So the formula is written
# once, over a `Point`: it reads its ingredients through pt.jets, multiplies
# by x through pt.times, subtracts through pt.sub and passes each of its
# integer constants through pt.const.  At `BOUND` it is that l1 bound, at
# Point.at(K) its value at x = 2**K, and at `VARIABLE` the polynomial F.
# `vanishes` alone runs formulas at BOUND and Point.at.


def jet(coeffs: Sequence[int], k: int) -> tuple:
    """(P, P', P'') at x = 2**k, by Horner's rule, for the integer
    coefficients of P (ascending).  At k = 0 with the coefficients in
    absolute value, these are the l1 norms of P, P' and P''."""
    v = d1 = d2 = 0
    for c in reversed(coeffs):
        d2 = (d2 << k) + d1
        d1 = (d1 << k) + v
        v = (v << k) + c
    return v, d1, 2 * d2


def _same(v):
    return v


def _poly_jets(coeffs: Sequence[int]) -> tuple:
    p = Polynomial(coeffs)
    return p, p.derivative(), p.derivative().derivative()


class Point(NamedTuple):
    """Where a formula over integer polynomial jets runs (comment above `jet`)."""

    jets: Callable
    times: Callable
    sub: Callable
    const: Callable

    @classmethod
    def at(cls, k: int) -> "Point":
        """x = 2**k: a formula is its value there, one integer."""
        return cls(lambda cs: jet(cs, k), lambda v: v << k, operator.sub, _same)


# x = 1 on the l1 norms, every subtraction an addition and every constant in
# absolute value: a formula is its own l1 bound
BOUND = Point(lambda cs: jet([abs(c) for c in cs], 0), _same, operator.add, abs)
# x itself: a formula is the polynomial it evaluates
VARIABLE = Point(_poly_jets, lambda v: Polynomial.x() * v, operator.sub, _same)


def vanishes(formulas: Sequence[Callable], polys: Sequence[Sequence[int]]) -> list:
    """Whether each formula f(jets, pt) is the zero polynomial, where jets
    are those of the integer polynomials polys (coefficients ascending) at
    the point pt.  Each formula runs at `BOUND`, the largest of those l1
    bounds fixes the one K with 2**K above all of them, and every
    polynomial is packed once at Point.at(K): there a formula is 0 exactly
    when it is the zero polynomial."""
    norms = list(map(BOUND.jets, polys))
    pt = Point.at(max(f(norms, BOUND) for f in formulas).bit_length())
    jets = list(map(pt.jets, polys))
    return [f(jets, pt) == 0 for f in formulas]


def det_poly_matrix(rows: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Exact determinant of a square polynomial matrix, given by its rows
    or by its columns (det A = det A^T): each line is brought onto the
    common denominator of its entries, and the integer matrix is
    eliminated fraction-free (Bareiss) over Z[x], every pivot division
    exact.  When a pivot column vanishes from the pivot row down, the
    trailing block has a zero first column, so by Sylvester's identity
    the determinant is zero.  The 0 x 0 matrix has determinant 1."""
    n = len(rows)
    if n == 0:
        return Polynomial.one()
    for r in rows:
        if len(r) != n:
            raise ValueError("matrix is not square")

    scale = 1
    mat = []
    for r in rows:
        den = _lcm(*(e._d for e in r))
        scale *= den
        mat.append([e._n if e._d == den else [den // e._d * x for x in e._n] for e in r])
    sign = 1
    prev = [1]
    for k in range(n - 1):
        if not mat[k][k]:
            for i in range(k + 1, n):
                if mat[i][k]:
                    mat[k], mat[i] = mat[i], mat[k]
                    sign = -sign
                    break
            else:
                return Polynomial()
        piv = mat[k][k]
        for i in range(k + 1, n):
            row_i = mat[i]
            lead = row_i[k]
            for j in range(k + 1, n):
                num = _isub(_imul(piv, row_i[j]), _imul(lead, mat[k][j]))
                row_i[j] = _iexact_quo(num, prev) if num else []
            row_i[k] = []
        prev = piv
    return _poly([sign * x for x in mat[n - 1][n - 1]], scale)


class RationalFunction:
    """Quotient of polynomials in normal form: monic denominator, gcd 1.

    The form in which a rational function is printed.  With it, == on the
    (num, den) pair is exactly equality in the rational function field; a
    RationalFunction equals only another one.  It has no arithmetic: the
    checks run on integer polynomials, and the test oracles on fractions of
    their own.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, num: Polynomial, den: Polynomial = None):
        if den is None:
            den = Polynomial.one()
        num, den = Polynomial._coerce(num), Polynomial._coerce(den)
        if num is None or den is None:
            raise TypeError("a rational function takes polynomial, int or Fraction parts")
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            self._n = Polynomial()
            self._d = Polynomial.one()
            return
        g = poly_gcd(num, den)
        if g.degree > 0:
            # a monic gcd's integer numerator is primitive, so by Gauss's
            # lemma it divides both integer numerators exactly
            num = _poly(_iexact_quo(num._n, g._n), num._d)
            den = _poly(_iexact_quo(den._n, g._n), den._d)
        self._n, self._d = self._monic(num, den)

    @classmethod
    def from_coprime(cls, num: Polynomial, den: Polynomial) -> "RationalFunction":
        """num / den for coprime num and den: den is made monic, and no gcd
        is taken."""
        return cls._reduced(*cls._monic(num, den))

    @property
    def num(self) -> Polynomial:
        return self._n

    @property
    def den(self) -> Polynomial:
        return self._d

    @staticmethod
    def _monic(num: Polynomial, den: Polynomial) -> tuple:
        """num and den divided by den's leading coefficient."""
        lead = den.leading
        if lead != 1:
            return num * (1 / lead), den.monic()
        return num, den

    @staticmethod
    def _reduced(num: Polynomial, den: Polynomial) -> "RationalFunction":
        """Wrap a pair already in normal form, without a gcd."""
        out = RationalFunction.__new__(RationalFunction)
        out._n = num
        out._d = den
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self._n == other._n and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._n, self._d))

    def __repr__(self) -> str:
        return "RationalFunction(%r, %r)" % (self._n, self._d)
