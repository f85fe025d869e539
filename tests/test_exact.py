from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dresschain.exact import (
    Polynomial,
    RationalFunction,
    ZeroPolynomial,
    det_poly_matrix,
    poly_gcd,
)

from dresschain.latex import poly_latex

from oracles import det_poly_matrix_cofactor, log_derivative_ratio

Z = Polynomial.x()
ONE = Polynomial.one()


def P(*coeffs):
    return Polynomial(coeffs)


# -- polynomial basics --------------------------------------------------------

def test_normalization_strips_trailing_zeros():
    assert Polynomial((1, 2, 0, 0)).coeffs == (F(1), F(2))
    assert Polynomial((0, 0)).is_zero
    assert Polynomial(()).degree == -1


def test_arithmetic():
    p = P(1, 2) * P(3, 0, 1)  # (1+2z)(3+z^2)
    assert p == P(3, 6, 1, 2)
    assert P(1, 1) ** 3 == P(1, 3, 3, 1)
    q, r = divmod(P(-1, 0, 0, 1), P(-1, 1))
    assert q == P(1, 1, 1) and r.is_zero


def test_eval_examples():
    assert P(-2, 0, 4).eval_at(1) == 2  # 4z^2 - 2 at 1
    assert Polynomial.zero().eval_at(F(7, 3)) == 0
    assert P(0, 0, 0, 1).eval_at(F(-2, 3)) == F(-8, 27)


def test_compose_and_decompress():
    p = P(1, 0, 2).compose(Z * Z)  # 1 + 2 z^4
    assert p == P(1, 0, 0, 0, 2)
    assert p.decompress_even() == P(1, 0, 2)
    with pytest.raises(ValueError):
        P(0, 1).decompress_even()


def test_of_square():
    q = P(F(1, 2), -3, 5)
    assert q.of_square() == P(F(1, 2), 0, -3, 0, 5)
    assert q.of_square().decompress_even() == q
    assert q.of_square(1, negate=True) == P(0, F(1, 2), 0, 3, 0, 5)
    assert P(0, 7).of_square(-1) == P(0, 7)
    assert Polynomial.zero().of_square(3) == Polynomial.zero()
    with pytest.raises(ValueError):
        q.of_square(-1)


def test_split_lowest():
    v, q = P(0, 0, 3, 1).split_lowest()
    assert v == 2 and q == P(3, 1)
    assert Polynomial.zero().split_lowest() == (0, Polynomial.zero())


def test_string_round_trip():
    p = P(F(-2), 0, F(4))
    assert p.to_strings() == ["-2/1", "0/1", "4/1"]
    assert Polynomial.from_strings(p.to_strings()) == p


@pytest.mark.parametrize("p, var, text, latex", [
    (P(F(1, 2), -1, 0, F(-3, 4)), "z", "-3/4*z^3 - z + 1/2",
     r"-\frac{3}{4}z^{3} - z + \frac{1}{2}"),
    (P(-2, 0, 1), "z", "z^2 - 2", "z^{2} - 2"),
    (P(F(7, 2), 0, -1), "x", "-x^2 + 7/2", r"-x^{2} + \frac{7}{2}"),
    (P(0, F(5, 3)), "t", "5/3*t", r"\frac{5}{3}t"),
    (P(-1), "z", "-1", "-1"),
    (Polynomial.zero(), "z", "0", "0"),
    (Polynomial.monomial(12) - Z, "x", "x^12 - x", "x^{12} - x"),
])
def test_format_and_latex_pinned(p, var, text, latex):
    # text and LaTeX share one term walker; both renderings are output
    assert p.format(var) == text
    assert poly_latex(p, var) == latex


# -- the integer-backed core against a plain Fraction-list oracle --------------

def o_trim(c):
    c = [F(x) for x in c]
    while c and c[-1] == 0:
        c.pop()
    return c


def o_add(a, b):
    n = max(len(a), len(b))
    return o_trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                  for i in range(n))


def o_mul(a, b):
    out = [F(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return o_trim(out)


def o_divmod(a, b):
    q, r = [F(0)] * max(len(a) - len(b) + 1, 0), list(a)
    for t in range(len(q) - 1, -1, -1):
        q[t] = r[t + len(b) - 1] / b[-1]
        for s, y in enumerate(b):
            r[t + s] -= q[t] * y
    return o_trim(q), o_trim(r)


def o_primitive(a):
    if not a:
        return []
    den = lcm(*(x.denominator for x in a))
    ints = [int(x * den) for x in a]
    g = gcd(*ints) * (1 if ints[-1] > 0 else -1)
    return [F(x // g) for x in ints]


def assert_canonical(p):
    n, d = p._n, p._d
    assert all(type(x) is int for x in n) and type(d) is int and d > 0
    assert not n or n[-1] != 0
    assert gcd(d, *n) == 1
    assert n or d == 1


rational_lists = st.lists(
    st.fractions(min_value=-6, max_value=6, max_denominator=6), max_size=6
)


@settings(max_examples=150, deadline=None)
@given(rational_lists, rational_lists, st.fractions(max_denominator=7))
def test_polynomial_matches_fraction_oracle(a, b, s):
    pa, pb = Polynomial(a), Polynomial(b)
    a, b = o_trim(a), o_trim(b)
    results = {
        "+": (pa + pb, o_add(a, b)),
        "-": (pa - pb, o_add(a, [-x for x in b])),
        "*": (pa * pb, o_mul(a, b)),
        "scale": (pa * s, o_mul(a, [s])),
        "derivative": (pa.derivative(), o_trim(i * x for i, x in enumerate(a))[1:]),
        "monic": (pa.monic(), [x / a[-1] for x in a] if a else []),
        "primitive": (pa.primitive(), o_primitive(a)),
    }
    if b:
        q, r = divmod(pa, pb)
        oq, orr = o_divmod(a, b)
        results["divmod q"] = (q, oq)
        results["divmod r"] = (r, orr)
    for name, (got, want) in results.items():
        assert_canonical(got)
        assert list(got.coeffs) == want, name
        twin = Polynomial(want)
        assert got == twin and hash(got) == hash(twin), name


def test_primitive_examples():
    assert P(F(2, 3), F(-4, 3)).primitive() == P(-1, 2)
    assert P(3, 6).primitive() == P(1, 2)
    assert Polynomial.zero().primitive().is_zero


# -- determinants -------------------------------------------------------------

def test_det_identity_case():
    assert det_poly_matrix([[ONE]]) == ONE


def test_det_2x2_hand_expansion():
    m = [[2 * Z, 4 * Z ** 2 - 2], [ONE, 4 * Z]]
    assert det_poly_matrix(m) == 4 * Z ** 2 + 2


def test_det_upper_triangular():
    m = [
        [ONE, Z, Z ** 2],
        [Polynomial.zero(), ONE, 2 * Z],
        [Polynomial.zero(), Polynomial.zero(), P(2)],
    ]
    assert det_poly_matrix(m) == P(2)


def test_det_rejects_empty_and_ragged():
    with pytest.raises(ValueError):
        det_poly_matrix([])
    with pytest.raises(ValueError):
        det_poly_matrix([[ONE, Z]])


def test_det_zero_column_fallback():
    m = [[Polynomial.zero(), Z], [Polynomial.zero(), ONE]]
    assert det_poly_matrix(m).is_zero


def test_det_pivot_column_vanishes_after_elimination():
    # column 1 is z/2 times column 0, so the first Bareiss step clears it
    # from row 1 down: the pivot column vanishes at k = 1, not at k = 0
    col0, col2 = [ONE, Z, Z ** 2 + 1], [P(1), P(2), Z]
    m = [[a, a * (Z * F(1, 2)), c] for a, c in zip(col0, col2)]
    assert det_poly_matrix(m).is_zero
    assert det_poly_matrix(m) == det_poly_matrix_cofactor(m)


def test_det_needs_row_swap():
    m = [[Polynomial.zero(), ONE], [Z, Polynomial.zero()]]
    assert det_poly_matrix(m) == -(Z)


small_polys = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=3), min_size=0, max_size=5
).map(Polynomial)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.lists(
            st.lists(small_polys, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
def test_det_matches_cofactor_oracle(matrix):
    assert det_poly_matrix(matrix) == det_poly_matrix_cofactor(matrix)


# -- rational functions -------------------------------------------------------

def test_normal_form_monic_reduced():
    r = RationalFunction(2 * Z + 2, 2 * Z ** 2 + 2 * Z)
    assert r.num == ONE and r.den == Z
    assert RationalFunction(Polynomial.zero(), Z).den == ONE


def test_log_derivative_examples():
    assert log_derivative_ratio(Z, ONE) == RationalFunction(ONE, Z)
    assert log_derivative_ratio(Z ** 2 + 1, Z ** 2 + 1).is_zero
    assert log_derivative_ratio(Z ** 2 + 1, Z) == RationalFunction(Z ** 2 - 1, Z ** 3 + Z)
    with pytest.raises(ZeroPolynomial):
        log_derivative_ratio(Polynomial.zero(), Z)


def test_ratfunc_is_constant():
    assert RationalFunction(P(3), P(2)).constant_value() == F(3, 2)
    assert RationalFunction(Z).constant_value() is None
    assert RationalFunction(2 * Z + 2, Z + 1).constant_value() == 2


nonzero_polys = small_polys.filter(lambda p: not p.is_zero)


@settings(max_examples=60, deadline=None)
@given(nonzero_polys, nonzero_polys)
def test_log_derivative_antisymmetry(p, q):
    assert (log_derivative_ratio(p, q) + log_derivative_ratio(q, p)).is_zero


@settings(max_examples=60, deadline=None)
@given(nonzero_polys, nonzero_polys, nonzero_polys)
def test_log_derivative_gauge_cancellation(p, q, r):
    assert log_derivative_ratio(p * r, q * r) == log_derivative_ratio(p, q)


@settings(max_examples=40, deadline=None)
@given(nonzero_polys, nonzero_polys)
def test_field_inverse(a, b):
    r = RationalFunction(a, b)
    assert r * (RationalFunction(b, a)) == RationalFunction(ONE)


@settings(max_examples=40, deadline=None)
@given(small_polys, small_polys, small_polys, nonzero_polys)
def test_addition_associative_commutative(a, b, c, d):
    x = RationalFunction(a, d)
    y = RationalFunction(b, d)
    z = RationalFunction(c, d)
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x


scalars = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)


@settings(max_examples=80, deadline=None)
@given(small_polys, nonzero_polys, scalars)
def test_scalar_operations_match_constant_operand(a, b, c):
    # a constant operand skips the gcd; the result must be the same
    # normal form as with the constant as a rational function
    r = RationalFunction(a, b)
    k = RationalFunction.from_const(c)
    assert r + c == r + k and c + r == k + r
    assert r - c == r - k and c - r == k - r
    assert r * c == r * k and c * r == k * r
    if c:
        assert r / c == r / k
    else:
        with pytest.raises(ZeroDivisionError):
            r / c
        with pytest.raises(ZeroDivisionError):
            r / k


@settings(max_examples=40, deadline=None)
@given(nonzero_polys, nonzero_polys)
def test_gcd_divides_both(a, b):
    g = poly_gcd(a, b)
    assert (a % g).is_zero and (b % g).is_zero
    assert g.leading == 1
