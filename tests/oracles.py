"""Slow exact oracles that the tests run against the library's fast paths.

Each one computes the same value as a function in dresschain the direct
way: a determinant by cofactor expansion, the top coefficient of a
Laguerre pseudo-Wronskian from the top coefficients of its textbook matrix
entries, and the chain, PIV and PV residuals as chains of reduced
RationalFunction operations (one gcd per operation); a chain residual also
at a rational point, from the values of the ladder entries there.  The PIV
and PV residuals also as the library's numerator R, expanded at VARIABLE
over its denominator and mapped to t: the residual whose zero test
painleve.piv_residual and pv_residual run.

clear_ladder_memos empties the library's ladder memos, so that a test
which corrupts a ladder leaks into no later one.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm

from dresschain.chain import _gauge
from dresschain.exact import (
    VARIABLE,
    Polynomial,
    RationalFunction,
    ZeroPolynomial,
    det_poly_matrix,
)
from dresschain.painleve import _in_t, _piv_numerator, _pv_numerator, pv_pieces
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
    """d/dx log(p/q) = (p'q - pq')/(pq), fully reduced."""
    if p.is_zero or q.is_zero:
        raise ZeroPolynomial("log-derivative of a zero polynomial")
    return RationalFunction(p.derivative() * q - p * q.derivative(), p * q)


def _residual_rf(sol, i):
    """Residual of chain equation i (1-based) of sol, the oracle for
    chain.verify_chain: -2 s' + s (1 + v_b - v_a) / z with s = v_a + v_b,
    the components i and i + 1 (mod p) in z = x**2 (`span`)."""
    j = i % sol.period
    va, vb = sol.span(i - 1, i), sol.span(j, j + 1)
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
    y'' = y'**2/(2y) + (3/2) y**3 + 4t y**2 + 2(t**2 - a) y + b/y."""
    y = inst.y
    t = RationalFunction(Polynomial.x())
    dy = y.derivative()
    rhs = (
        dy * dy / (2 * y)
        + Fraction(3, 2) * (y * y * y)
        + 4 * t * (y * y)
        + 2 * (t * t - inst.a) * y
        + inst.b / y
    )
    return dy.derivative() - rhs


# the pieces depend on y alone, so parameter perturbations of one solution
# share them
_pv_pieces = lru_cache(maxsize=64)(pv_pieces)


def pv_residual_oracle(inst):
    """base - (a A + b B + c C + d E) from painleve.pv_pieces."""
    base, fa, fb, fc, fe = _pv_pieces(inst.y)
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
    return RationalFunction(_in_t(r, inst.c_sq), _in_t(s, inst.c_sq).shifted(3))


def pv_numerator_residual(inst):
    """The PV residual as R / (2 t**2 N E V**3), E = N - V, the residual of
    painleve.pv_residual's docstring: constants (1, 2a, 2b, 2c, 2d), t = z."""
    consts = (Fraction(1), 2 * inst.a, 2 * inst.b, 2 * inst.c, 2 * inst.d)
    return RationalFunction(*_numerator_pair(
        _pv_numerator, inst, consts, lambda n, v: (2 * n * (n - v) * v * v * v).shifted(2)))
