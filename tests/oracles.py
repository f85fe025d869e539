"""Slow exact oracles that the tests run against the library's fast paths.

Each one computes the same value as a function in dresschain the direct
way: a determinant by cofactor expansion, the Laguerre pseudo-Wronskian
matrix from recurrence-built Fraction polynomials, and the chain, PIV and
PV residuals as chains of reduced RationalFunction operations (one gcd per
operation).
"""

from fractions import Fraction
from functools import lru_cache

from dresschain.exact import Polynomial, RationalFunction, ZeroPolynomial, det_poly_matrix
from dresschain.orthopoly import falling_factorial, laguerre
from dresschain.painleve import pv_pieces


def det_poly_matrix_cofactor(rows):
    """Naive cofactor-expansion determinant; the oracle for det_poly_matrix."""
    n = len(rows)
    if n == 0:
        raise ValueError("determinant of an empty matrix is not defined")
    for r in rows:
        if len(r) != n:
            raise ValueError("matrix is not square")
    if n == 1:
        return rows[0][0]
    acc = Polynomial()
    sign = 1
    for j in range(n):
        if not rows[0][j].is_zero:
            minor = [[rows[i][m] for m in range(n) if m != j] for i in range(1, n)]
            acc = acc + rows[0][j] * det_poly_matrix_cofactor(minor) * sign
        sign = -sign
    return acc


def laguerre_matrix_oracle(uc, a):
    """Rows of the pseudo-Wronskian matrix of wronskian._laguerre_columns,
    built from orthopoly.laguerre (three-term recurrence) and
    falling_factorial: (-1)**i L_{n-i}^{a+i} in a spectrum column of n and
    (l - a)_i z**(size-1-i) L_l^{-a-i} in a shadow column of l."""
    size = len(uc.first.entries) + len(uc.second.entries)
    columns = []
    for n in uc.first.entries:
        columns.append([
            (-1) ** i * laguerre(n - i, a + i) if i <= n else Polynomial.zero()
            for i in range(size)
        ])
    for l in uc.second.entries:
        columns.append([
            (falling_factorial(l - a, i) * laguerre(l, -a - i)).shifted(size - 1 - i)
            for i in range(size)
        ])
    return [[col[i] for col in columns] for i in range(size)]


def laguerre_det_oracle(uc, a):
    """The pseudo-Wronskian polynomial from the oracle matrix."""
    rows = laguerre_matrix_oracle(uc, a)
    return det_poly_matrix(rows) if rows else Polynomial.one()


def log_derivative_ratio(p, q):
    """d/dx log(p/q) = (p'q - pq')/(pq), fully reduced."""
    if p.is_zero or q.is_zero:
        raise ZeroPolynomial("log-derivative of a zero polynomial")
    return RationalFunction(p.derivative() * q - p * q.derivative(), p * q)


def _residual_rf(sol, i):
    """Residual of chain equation i (1-based) of sol, the oracle for
    chain._check_equation: -(1+h) s' + s (h + v_b - v_a) / z**h with
    s = v_a + v_b."""
    a = sol.terms[i - 1]
    b = sol.terms[i % sol.period]
    h = a.h
    va, vb = a.rational_part(), b.rational_part()
    s = va + vb
    return -(1 + h) * s.derivative() + s * ((h + vb - va) / Polynomial.monomial(h))


def piv_residual_oracle(inst):
    """lhs - rhs of the rationalized PIV equation of painleve.piv_residual."""
    u = inst.u
    x = RationalFunction(Polynomial.x())
    delta = 2 / inst.c_sq
    du = u.derivative()
    rhs = (
        du * du / (2 * u)
        + Fraction(3, 2) * (u * u * u)
        + 2 * delta * x * (u * u)
        + (delta * delta * (x * x) / 2 - inst.a * delta) * u
        + (inst.b * delta * delta / 4) / u
    )
    return du.derivative() - rhs


# the pieces depend on y alone, so parameter perturbations of one solution
# share them
_pv_pieces = lru_cache(maxsize=64)(pv_pieces)


def pv_residual_oracle(inst):
    """base - (a A + b B + c C + d E) from painleve.pv_pieces."""
    base, fa, fb, fc, fe = _pv_pieces(inst.y)
    return base - (inst.a * fa + inst.b * fb + inst.c * fc + inst.d * fe)
