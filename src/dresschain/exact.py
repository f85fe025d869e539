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
so structural equality coincides with mathematical equality.  Determinants
are taken by Bareiss elimination over Z[x] and gcds by a primitive
pseudo-remainder sequence; both share the integer kernel below.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _gcd, lcm as _lcm
from typing import Iterable, Optional, Sequence


class ZeroPolynomial(ValueError):
    """An operation that needs a nonzero polynomial received the zero one."""


def frac_str(q: Fraction) -> str:
    """Serialize a rational as the exact "p/q" form used in all I/O."""
    return "%d/%d" % (q.numerator, q.denominator)


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


def _iprem(a: list, b: list) -> list:
    """Pseudo-remainder of a by b over Z (content growth handled by caller)."""
    e = len(a) - len(b) + 1
    if e <= 0:
        return a
    s = b[-1] ** e
    return _idivmod([s * x for x in a], b)[1]


def _icontent(a: Sequence[int]) -> int:
    g = 0
    for x in a:
        g = _gcd(g, x)
        if g == 1:
            return 1
    return g


def _iprim(a: list) -> list:
    g = _icontent(a)
    return a if g in (0, 1) else [x // g for x in a]


def _poly(num: list, den: int = 1) -> "Polynomial":
    """The Polynomial num / den, brought into canonical form."""
    _itrim(num)
    if not num:
        den = 1
    elif den != 1:
        if den < 0:
            num = [-x for x in num]
            den = -den
        g = den
        for x in num:
            g = _gcd(g, x)
            if g == 1:
                break
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
        c = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in coeffs]
        den = _lcm(*(x.denominator for x in c))
        p = _poly([x.numerator * (den // x.denominator) for x in c], den)
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

    @classmethod
    def from_strings(cls, items: Sequence[str]) -> "Polynomial":
        return cls(parse_frac(s) for s in items)

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

    def _aligned(self, other) -> tuple:
        """Both integer numerators over the common denominator, and it."""
        other = self._coerce(other)
        a, b = self._d, other._d
        if a == b:
            return self._n, other._n, a
        den = _lcm(a, b)
        return [den // a * x for x in self._n], [den // b * x for x in other._n], den

    def __add__(self, other) -> "Polynomial":
        a, b, den = self._aligned(other)
        return _poly(_iadd(a, b), den)

    def __radd__(self, other) -> "Polynomial":
        return self.__add__(other)

    def __neg__(self) -> "Polynomial":
        return _poly([-x for x in self._n], self._d)

    def __sub__(self, other) -> "Polynomial":
        a, b, den = self._aligned(other)
        return _poly(_isub(a, b), den)

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return _poly(_imul(self._n, other._n), self._d * other._d)
        if not isinstance(other, (int, Fraction)):
            other = Fraction(other)
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
        """Division over Q, run as an integer pseudo-division: with s the
        divisor's leading integer coefficient to the power deg - deg' + 1,
        s * num(self) == q * num(other) + r over Z."""
        other = self._coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        e = len(self._n) - len(other._n) + 1
        if e <= 0:
            return Polynomial(), self
        s = other._n[-1] ** e
        q, r = _idivmod([s * x for x in self._n], other._n)
        den = s * self._d
        return _poly([other._d * x for x in q], den), _poly(r, den)

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    @staticmethod
    def _coerce(value) -> "Polynomial":
        if isinstance(value, Polynomial):
            return value
        return Polynomial((value,))

    # -- calculus & transforms ----------------------------------------------

    def derivative(self) -> "Polynomial":
        return _poly([i * x for i, x in enumerate(self._n)][1:], self._d)

    def eval_at(self, x0) -> Fraction:
        """Exact Horner evaluation, homogenised over the integers."""
        x0 = Fraction(x0)
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

    def decompress_even(self) -> "Polynomial":
        """Given p with only even-power terms, return q with p(x) = q(x**2)."""
        if any(self._n[1::2]):
            raise ValueError("polynomial has odd-degree terms")
        return _poly(list(self._n[0::2]), self._d)

    # -- serialization & dunders ---------------------------------------------

    def to_strings(self) -> list:
        return [frac_str(c) for c in self.coeffs]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self._d == other._d
            and self._n == other._n
        )

    def __hash__(self) -> int:
        return hash((self._n, self._d))

    def __repr__(self) -> str:
        return "Polynomial(%r)" % (self.to_strings(),)

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
        ia, ib = ib, _iprim(_iprem(ia, ib))
    return _poly(ia, ia[-1])


def det_poly_matrix(rows: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Exact determinant of a square polynomial matrix: each column is
    brought onto the common denominator of its entries, and the integer
    matrix goes to det_int_matrix over the product of those denominators."""
    n = len(rows)
    if n == 0:
        raise ValueError("determinant of an empty matrix is not defined")
    for r in rows:
        if len(r) != n:
            raise ValueError("matrix is not square")

    scale = 1
    mat = [[None] * n for _ in range(n)]
    for j in range(n):
        col = _lcm(*(rows[i][j]._d for i in range(n)))
        scale *= col
        for i in range(n):
            e = rows[i][j]
            mat[i][j] = e._n if e._d == col else [col // e._d * x for x in e._n]
    return det_int_matrix(mat, scale)


def det_int_matrix(mat: list, scale: int = 1) -> Polynomial:
    """det(mat) / scale, for a non-empty square matrix of ascending integer
    coefficient lists (the zero entry is []); mat is consumed.

    Fraction-free (Bareiss) elimination over Z[x]; every pivot division is
    exact.  When a pivot column vanishes from the pivot row down, the
    trailing block has a zero first column, so by Sylvester's identity the
    determinant is zero.
    """
    n = len(mat)
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

    With this normal form, == on the (num, den) pair is exactly equality in
    the rational function field, so residual checks are plain comparisons.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, num: Polynomial, den: Polynomial = None):
        if den is None:
            den = Polynomial.one()
        if not isinstance(num, Polynomial):
            num = Polynomial._coerce(num)
        if not isinstance(den, Polynomial):
            den = Polynomial._coerce(den)
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
        lead = den.leading
        if lead != 1:
            num = num * (1 / lead)
            den = den.monic()
        self._n = num
        self._d = den

    @classmethod
    def from_const(cls, value) -> "RationalFunction":
        return cls(Polynomial.constant(value))

    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls(Polynomial())

    @property
    def num(self) -> Polynomial:
        return self._n

    @property
    def den(self) -> Polynomial:
        return self._d

    @property
    def is_zero(self) -> bool:
        return self._n.is_zero

    def constant_value(self) -> Optional[Fraction]:
        """The value as a Fraction if this is a constant, else None."""
        if self._d.degree == 0 and self._n.degree <= 0:
            return self._n.coeff(0)
        return None

    @staticmethod
    def _reduced(num: Polynomial, den: Polynomial) -> "RationalFunction":
        """Wrap a pair already in normal form, without a gcd."""
        out = RationalFunction.__new__(RationalFunction)
        out._n = num
        out._d = den
        return out

    # A constant operand c keeps the normal form: gcd(num + c den, den) is
    # gcd(num, den) = 1, and c num / den is reduced for c != 0.

    def __add__(self, other) -> "RationalFunction":
        if isinstance(other, (int, Fraction)):
            return self._reduced(self._n + self._d * other, self._d)
        other = self._coerce(other)
        return RationalFunction(
            self._n * other._d + other._n * self._d, self._d * other._d
        )

    def __radd__(self, other) -> "RationalFunction":
        return self.__add__(other)

    def __neg__(self) -> "RationalFunction":
        return self._reduced(-self._n, self._d)

    def __sub__(self, other) -> "RationalFunction":
        return self.__add__(-other)

    def __rsub__(self, other) -> "RationalFunction":
        return self.__neg__().__add__(other)

    def __mul__(self, other) -> "RationalFunction":
        if isinstance(other, (int, Fraction)):
            if not other:
                return RationalFunction.zero()
            return self._reduced(self._n * other, self._d)
        other = self._coerce(other)
        return RationalFunction(self._n * other._n, self._d * other._d)

    def __rmul__(self, other) -> "RationalFunction":
        return self.__mul__(other)

    def __truediv__(self, other) -> "RationalFunction":
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by the zero rational function")
            return self.__mul__(1 / Fraction(other))
        other = self._coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self._n * other._d, self._d * other._n)

    def __rtruediv__(self, other) -> "RationalFunction":
        return self._coerce(other).__truediv__(self)

    @staticmethod
    def _coerce(value) -> "RationalFunction":
        if isinstance(value, RationalFunction):
            return value
        if isinstance(value, Polynomial):
            return RationalFunction(value)
        return RationalFunction(Polynomial._coerce(value))

    def derivative(self) -> "RationalFunction":
        return RationalFunction(
            self._n.derivative() * self._d - self._n * self._d.derivative(),
            self._d * self._d,
        )

    def eval_at(self, x0) -> Fraction:
        d = self._d.eval_at(x0)
        if d == 0:
            raise ZeroDivisionError("pole at evaluation point")
        return self._n.eval_at(x0) / d

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Polynomial)):
            other = self._coerce(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self._n == other._n and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._n, self._d))

    def __repr__(self) -> str:
        return "RationalFunction(%r, %r)" % (self._n, self._d)

    def format(self, var: str = "x") -> str:
        if self._d == Polynomial.one():
            return self._n.format(var)
        return "(%s)/(%s)" % (self._n.format(var), self._d.format(var))

