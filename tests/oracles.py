"""Slow exact oracles that the tests run against the library's fast paths.

Each one computes the same value as a function in dresschain the direct
way: a determinant by cofactor expansion, the top coefficient of a
Laguerre pseudo-Wronskian from the top coefficients of its textbook matrix
entries, and the chain, PIV and PV residuals as chains of `Quotient`
operations, fractions of two polynomials that are never reduced; a chain
residual also at a rational point, from the values of the ladder entries
there.  The PIV and PV residuals also as the library's numerator R,
expanded at VARIABLE over its denominator and mapped to t: the residual
whose zero test painleve.piv_residual and pv_residual run.  No oracle
takes a gcd.

clear_ladder_memos empties the library's ladder memos, so that a test
which corrupts a ladder leaks into no later one.
"""

from fractions import Fraction
from math import lcm

from dresschain.chain import _gauge
from dresschain.exact import (
    VARIABLE,
    Polynomial,
    RationalFunction,
    ZeroPolynomial,
    det_poly_matrix,
)
from dresschain.painleve import _in_t, _piv_numerator, _pv_numerator
from dresschain.wronskian import (
    _hermite_kernel,
    _laguerre_column,
    _laguerre_kernel,
    hermite_wronskian,
    laguerre_pseudo_wronskian,
)

LADDER_MEMOS = (hermite_wronskian, laguerre_pseudo_wronskian, _hermite_kernel, _laguerre_kernel)


def clear_ladder_memos():
    """Empty the ladder entry memos and the Wronskian kernel memos under them."""
    for memo in LADDER_MEMOS:
        memo.cache_clear()


def _operand(method):
    """method(self, other) with other as a Quotient, or NotImplemented."""
    def coerced(self, other):
        other = Quotient.of(other)
        return NotImplemented if other is None else method(self, other)
    return coerced


class Quotient:
    """num / den for two Polynomials, never reduced: no operation takes a
    gcd, and == cross-multiplies.  An operand may be a Quotient, a
    Polynomial, an int or a Fraction, and that of == a RationalFunction."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        self.num, self.den = Polynomial._coerce(num), Polynomial._coerce(den)
        if self.den.is_zero:
            raise ZeroDivisionError("quotient with a zero denominator")

    @staticmethod
    def of(value):
        """value as a Quotient, or None if it is none of the operand types."""
        if isinstance(value, (Quotient, RationalFunction)):
            return Quotient(value.num, value.den)
        return Quotient(value) if isinstance(value, (Polynomial, int, Fraction)) else None

    @_operand
    def __add__(self, other):
        return Quotient(self.num * other.den + other.num * self.den, self.den * other.den)

    @_operand
    def __mul__(self, other):
        return Quotient(self.num * other.num, self.den * other.den)

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self):
        return Quotient(-self.num, self.den)

    @_operand
    def __sub__(self, other):
        return self + -other

    @_operand
    def __rsub__(self, other):
        return other - self

    @_operand
    def __truediv__(self, other):
        return self * Quotient(other.den, other.num)

    @_operand
    def __rtruediv__(self, other):
        return other / self

    @_operand
    def __eq__(self, other):
        return self.num * other.den == other.num * self.den

    def derivative(self):
        n, d = self.num, self.den
        return Quotient(n.derivative() * d - n * d.derivative(), d * d)

    def eval_at(self, t):
        """The value at t; ZeroDivisionError where den, as stored, vanishes."""
        d = self.den.eval_at(t)
        if d == 0:
            raise ZeroDivisionError("pole at evaluation point")
        return self.num.eval_at(t) / d

    @property
    def is_zero(self):
        return self.num.is_zero

    def constant_value(self):
        """The value as a Fraction if this is a constant, else None."""
        q, r = divmod(self.num, self.den)
        return q.coeff(0) if r.is_zero and q.degree <= 0 else None

    def __repr__(self):
        return "Quotient(%r, %r)" % (self.num, self.den)


def det_poly_matrix_cofactor(rows):
    """Naive cofactor-expansion determinant; the oracle for det_poly_matrix.
    The 0 x 0 matrix, the base case of the expansion, has determinant 1."""
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise ValueError("matrix is not square")
    if n == 0:
        return Polynomial.one()
    acc = Polynomial()
    sign = 1
    for j in range(n):
        if not rows[0][j].is_zero:
            minor = [[rows[i][m] for m in range(n) if m != j] for i in range(1, n)]
            acc = acc + rows[0][j] * det_poly_matrix_cofactor(minor) * sign
        sign = -sign
    return acc


def top_coefficient_oracle(uc, a):
    """The top coefficient of wronskian._laguerre_top: the determinant of
    the z**(c_j - i) coefficients of the textbook entries (i, j), with
    c_j = n in a spectrum column and l + size - 1 in a shadow one."""
    size = len(uc.first.entries) + len(uc.second.entries)
    columns = [(n, _laguerre_column(n, False, a, size)) for n in uc.first.entries]
    columns += [(l + size - 1, _laguerre_column(l, True, a, size)) for l in uc.second.entries]
    return det_poly_matrix([
        [Polynomial.constant(col[i].coeff(c - i)) for i in range(size)] for c, col in columns
    ]).coeff(0)


def log_derivative_ratio(p, q):
    """d/dx log(p/q) = (p'q - pq')/(pq)."""
    if p.is_zero or q.is_zero:
        raise ZeroPolynomial("log-derivative of a zero polynomial")
    return Quotient(p.derivative() * q - p * q.derivative(), p * q)


def _residual_rf(sol, i):
    """Residual of chain equation i (1-based) of sol, the oracle for
    chain.verify_chain: -2 s' + s (1 + v_b - v_a) / z with s = v_a + v_b,
    the components i and i + 1 (mod p) in z = x**2 (`span_pair`)."""
    j = i % sol.period
    va, vb = Quotient(*sol.span_pair(i - 1, i)), Quotient(*sol.span_pair(j, j + 1))
    s = va + vb
    return -2 * s.derivative() + s * ((1 + vb - va) / Polynomial.x())


def _component_at(prev, cur, z):
    """(v, v') at the point z of the component from ladder entry prev to
    cur, v = lin z + inv + 2 z (P'/P - Q'/Q) with P, Q their `prim`s."""
    lin, inv = _gauge(prev, cur)
    inv = Fraction(inv, 2 * cur.gauge_den)
    logs = []
    for poly in (prev.prim, cur.prim):
        d1 = poly.derivative()
        p0, p1, p2 = (q.eval_at(z) for q in (poly, d1, d1.derivative()))
        logs.append((p1 / p0, p2 / p0 - (p1 / p0) ** 2))
    (a1, a2), (b1, b2) = logs
    return lin * z + inv + 2 * z * (a1 - b1), lin + 2 * (a1 - b1) + 2 * z * (a2 - b2)


def residual_at(sol, i, z):
    """Residual of chain equation i (1-based) of sol at the rational point
    z: `_residual_rf`'s -2 s' + s (1 + v_b - v_a) / z from P, P' and P'' of
    each entry's `prim` at z, with no gcd.  Where some entry vanishes, the
    point moves up by 1 until none does."""
    z = Fraction(z)
    while any(pw.prim.eval_at(z) == 0 for pw in sol.ladder):
        z += 1
    j = i % sol.period
    va, da = _component_at(*sol.ladder[i - 1:i + 1], z)
    vb, db = _component_at(*sol.ladder[j:j + 2], z)
    return -2 * (da + db) + (va + vb) * (1 + vb - va) / z


def piv_residual_oracle(inst):
    """lhs - rhs of PIV in t, the equation of painleve.piv_residual:
    y'' = y'**2/(2y) + (3/2) y**3 + 4t y**2 + 2(t**2 - a) y + b/y, with
    y = G(c**2 t**2) / t for G = num/den as the instance stores it."""
    y = Quotient(_in_t(inst.num, inst.c_sq), _in_t(inst.den, inst.c_sq).shifted(1))
    t = Polynomial.x()
    dy = y.derivative()
    rhs = (
        dy * dy / (2 * y)
        + Fraction(3, 2) * (y * y * y)
        + 4 * t * (y * y)
        + 2 * (t * t - inst.a) * y
        + inst.b / y
    )
    return dy.derivative() - rhs


def pv_pieces(y):
    """PV for the Quotient y, linear in its parameters: (base, A, B, C, E)
    with PV <=> base == a A + b B + c C + d E."""
    t = Polynomial.x()
    dy = y.derivative()
    base = dy.derivative() - (1 / (2 * y) + 1 / (y - 1)) * dy * dy + dy / t
    y1sq = (y - 1) * (y - 1)
    return base, y1sq * y / (t * t), y1sq / (y * t * t), y / t, y * (y + 1) / (y - 1)


def pv_residual_oracle(inst):
    """base - (a A + b B + c C + d E) from pv_pieces, for y = num/den."""
    base, fa, fb, fc, fe = pv_pieces(Quotient(inst.num, inst.den))
    return base - (inst.a * fa + inst.b * fb + inst.c * fc + inst.d * fe)


def _numerator_pair(numerator, inst, consts, denominator):
    """(R, L S) in z for the instance's pair (N, V): R = numerator(N, V)
    expanded at VARIABLE, with the constants times their common
    denominator L, and S = denominator(N, V)."""
    scale = lcm(*(q.denominator for q in consts))
    ints = [q.numerator * (scale // q.denominator) for q in consts]
    N, V = VARIABLE.jets(inst.num.int_coeffs), VARIABLE.jets(inst.den.int_coeffs)
    return numerator(N, V, VARIABLE, ints), scale * denominator(N[0], V[0])


def piv_numerator_residual(inst):
    """lhs - rhs of PIV in t as R / (2 t**3 N V**3), the residual of
    painleve.piv_residual's docstring: constants (1, k, k**2, 4ak, 2bk**2),
    k = 1/c**2, and z = c**2 t**2."""
    k = 1 / inst.c_sq
    consts = (Fraction(1), k, k * k, 4 * inst.a * k, 2 * inst.b * k * k)
    r, s = _numerator_pair(_piv_numerator, inst, consts, lambda n, v: 2 * n * v * v * v)
    return Quotient(_in_t(r, inst.c_sq), _in_t(s, inst.c_sq).shifted(3))


def pv_numerator_residual(inst):
    """The PV residual as R / (2 t**2 N E V**3), E = N - V, the residual of
    painleve.pv_residual's docstring: constants (1, 2a, 2b, 2c, 2d), t = z."""
    consts = (Fraction(1), 2 * inst.a, 2 * inst.b, 2 * inst.c, 2 * inst.d)
    return Quotient(*_numerator_pair(
        _pv_numerator, inst, consts, lambda n, v: (2 * n * (n - v) * v * v * v).shifted(2)))
