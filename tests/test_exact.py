import ast
from fractions import Fraction as F
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dresschain.exact import (
    VARIABLE,
    Point,
    Polynomial,
    RationalFunction,
    ZeroPolynomial,
    det_poly_matrix,
    jet,
    poly_gcd,
    vanishes,
)

from dresschain.latex import poly_latex

from oracles import det_poly_matrix_cofactor, log_derivative_ratio

Z = Polynomial.x()
ONE = Polynomial.one()


def P(*coeffs):
    return Polynomial(coeffs)


# -- polynomial basics --------------------------------------------------------

def test_integer_coefficients_are_kept_not_copied():
    # over the denominator 1 the given ints are stored as they are, so a
    # primitive part shares the big integers of the list it came from;
    # Fraction coefficients are brought over their common denominator
    big = [3 ** 200 + k for k in (1, 0, 2)]
    p = Polynomial(big)
    assert all(a is b for a, b in zip(p.int_coeffs, big))
    assert p.primitive() is p
    assert Polynomial((F(4), 6, F(-8))).int_coeffs == (4, 6, -8)
    q = Polynomial((F(1, 2), F(-2, 3), 5))
    assert q.coeffs == (F(1, 2), F(-2, 3), F(5))
    assert (6 * q).int_coeffs == (3, -4, 30)


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


def test_compose_and_of_square():
    p = P(1, 0, 2).compose(Z * Z)  # 1 + 2 z^4
    assert p == P(1, 0, 0, 0, 2)
    assert P(1, 0, 2).of_square() == p


def test_of_square():
    q = P(F(1, 2), -3, 5)
    assert q.of_square() == P(F(1, 2), 0, -3, 0, 5)
    assert q.of_square() == q.compose(Z * Z)
    assert q.of_square(1) == q.compose(Z * Z) * Z
    assert Polynomial.zero().of_square(3) == Polynomial.zero()
    with pytest.raises(ValueError):
        P(0, 7).of_square(-1)


def test_split_lowest():
    v, q = P(0, 0, 3, 1).split_lowest()
    assert v == 2 and q == P(3, 1)
    assert Polynomial.zero().split_lowest() == (0, Polynomial.zero())


def test_string_round_trip():
    p = P(F(-2), 0, F(4))
    assert p.to_strings() == ["-2/1", "0/1", "4/1"]
    assert eval(repr(P(F(-1, 3), 2)), {"Polynomial": Polynomial, "Fraction": F}) == P(F(-1, 3), 2)


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
    # the empty matrix is not rejected: the 0 x 0 determinant is 1
    assert det_poly_matrix([]) == ONE
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


int_polys = st.lists(st.integers(-4, 4), min_size=0, max_size=4).map(Polynomial)
small_polys = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=3), min_size=0, max_size=5
).map(Polynomial)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=5).flatmap(
        lambda n: st.lists(
            st.lists(small_polys, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
def test_det_matches_cofactor_oracle(matrix):
    assert det_poly_matrix(matrix) == det_poly_matrix_cofactor(matrix)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(int_polys, min_size=n, max_size=n), min_size=n, max_size=n),
            st.lists(st.integers(1, 7), min_size=n, max_size=n),
            st.lists(st.integers(1, 7), min_size=n, max_size=n),
        )
    )
)
def test_det_by_rows_or_columns(data):
    # entry (i, j) over row_den[i] * col_den[j]: each line, a row or a
    # column, has its own common denominator
    ints, row_den, col_den = data
    rows = [[e * F(1, r * c) for e, c in zip(line, col_den)]
            for line, r in zip(ints, row_den)]
    columns = [list(col) for col in zip(*rows)]
    want = det_poly_matrix_cofactor(rows)
    assert det_poly_matrix(rows) == det_poly_matrix(columns) == want


def int_det(mat):
    """det_poly_matrix of a matrix of ints, as constant polynomials."""
    return det_poly_matrix([[P(x) for x in row] for row in mat]).coeff(0)


def int_det_routes(mat):
    """det_poly_matrix on the constant entries of mat and (up to 6 x 6) the
    cofactor oracle, both as Fractions."""
    routes = [int_det(mat)]
    if len(mat) <= 6:
        routes.append(det_poly_matrix_cofactor([[P(x) for x in row] for row in mat]).coeff(0))
    return routes


def test_det_int_examples():
    assert int_det_routes([[-7]]) == [-7] * 2
    assert int_det_routes([[0, 2], [3, 5]]) == [-6] * 2  # zero first pivot: a row swap
    assert int_det_routes([[0, 1, 2], [0, 3, 4], [0, 5, 6]]) == [0] * 2  # zero column
    assert int_det_routes([[1, 2, 3], [4, 5, 6], [1, 2, 3]]) == [0] * 2  # equal rows
    # column 1 is twice column 0, so the first step clears it from row 1 down
    assert int_det_routes([[1, 2, 5], [3, 6, 1], [2, 4, 7]]) == [0] * 2
    assert int_det_routes([[0, 0, 1], [0, 2, 0], [3, 0, 0]]) == [-6] * 2


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=14).flatmap(
        lambda n: st.lists(
            st.lists(st.one_of(st.just(0), st.integers(-50, 50)), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_det_int_matches_polynomial_core(matrix):
    routes = int_det_routes(matrix)
    assert all(r == routes[0] for r in routes)
    # repeating a row makes it singular
    if len(matrix) > 1:
        assert int_det(matrix[:-1] + matrix[:1]) == 0


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
    k = RationalFunction(c)
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
    assert divmod(a, g)[1].is_zero and divmod(b, g)[1].is_zero
    assert g.leading == 1


@settings(max_examples=60, deadline=None)
@given(small_polys, nonzero_polys, small_polys)
def test_polynomial_operand_matches_rational_function(a, b, q):
    # a polynomial operand skips the gcd too, with the same normal form; on
    # the left, the polynomial defers to the rational function's reflected
    # operators
    r = RationalFunction(a, b)
    k = RationalFunction(q)
    assert r + q == r + k and r - q == r - k and r * q == r * k
    assert q + r == k + r and q - r == k - r and q * r == k * r


@settings(max_examples=60, deadline=None)
@given(small_polys, nonzero_polys, scalars, scalars)
def test_from_coprime(a, b, c, d):
    r = RationalFunction(a, b)
    if c and d:
        # scaling a coprime pair keeps it coprime: only the monic step remains
        assert RationalFunction.from_coprime(r.num * c, r.den * d) == RationalFunction(
            r.num * c, r.den * d)


def _recording(points):
    """The formula P of the first polynomial, recording each point it runs
    at as pt.times(1): 1 at BOUND, 2**K at Point.at(K)."""
    def formula(jets, pt):
        points.append(pt.times(1))
        return jets[0][0]

    return formula


@pytest.mark.parametrize("j", (1, 5, 64))
def test_bits_above_is_strict(j):
    # x - 2**j has l1 norm 2**j + 1 and vanishes at 2**j: `vanishes` takes
    # K = j + 1 for that bound, where it does not, and one bit less would
    # accept it as 0
    coeffs = (-(2 ** j), 1)
    bound = jet([abs(c) for c in coeffs], 0)[0]
    points = []
    assert vanishes([_recording(points)], [coeffs]) == [False]
    K = j + 1
    assert bound == 2 ** j + 1 and points == [1, 2 ** K]
    assert jet(coeffs, K)[0] != 0
    assert jet(coeffs, K - 1)[0] == 0


# -- exact.vanishes: one point for a set of formulas -------------------------

# degree <= 30, every coefficient 0 or +-2**b with b <= 64
adversarial_coeffs = st.lists(
    st.one_of(st.just(0), st.builds(lambda s, b: s * 2 ** b, st.sampled_from((1, -1)),
                                     st.integers(0, 64))),
    min_size=1,
    max_size=31,
)
signed_consts = st.builds(lambda s, b: s * 2 ** b, st.sampled_from((1, -1)), st.integers(0, 64))


def _node(op, *parts):
    """The formula op(pt, values of parts...) over `exact.Point` operations."""
    return lambda jets, pt: op(pt, *(f(jets, pt) for f in parts))


# a jet (P, P' or P'') of one of up to three polynomials, combined by +, the
# point's subtraction, product, times x and a signed constant
formulas = st.recursive(
    st.builds(lambda i, d: lambda jets, pt: jets[i % len(jets)][d],
              st.integers(0, 2), st.integers(0, 2)),
    lambda inner: st.one_of(
        st.builds(lambda f, g: _node(lambda pt, a, b: a + b, f, g), inner, inner),
        st.builds(lambda f, g: _node(lambda pt, a, b: pt.sub(a, b), f, g), inner, inner),
        st.builds(lambda f, g: _node(lambda pt, a, b: a * b, f, g), inner, inner),
        st.builds(lambda f: _node(lambda pt, a: pt.times(a), f), inner),
        st.builds(lambda c, f: _node(lambda pt, a: pt.const(c) * a, f), signed_consts, inner),
    ),
    max_leaves=6,
)
# identically zero: f - f, and f g - g f
zero_formulas = st.one_of(
    st.builds(lambda f: _node(lambda pt, a, b: pt.sub(a, b), f, f), formulas),
    st.builds(lambda f, g: _node(lambda pt, a, b, c, d: pt.sub(a * b, c * d), f, g, g, f),
              formulas, formulas),
)


def _near_miss(j, m, sign):
    """sign x**m (x - 2**j), written x + (-2**j): it vanishes at 2**j, and
    its bound 2**j + 1 takes K = j + 1, so at 2**(K - 1)."""
    def formula(jets, pt):
        v = pt.times(1) + pt.const(-(2 ** j))
        for _ in range(m):
            v = pt.times(v)
        return pt.const(sign) * v

    return formula


near_misses = st.builds(_near_miss, st.integers(1, 64), st.integers(0, 3),
                        st.sampled_from((1, -1)))
# a near miss times a formula vanishes at 2**j too, and is 0 only with it
scaled_near_misses = st.builds(lambda f, g: _node(lambda pt, a, b: a * b, f, g),
                               near_misses, formulas)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(adversarial_coeffs, min_size=1, max_size=3),
    st.lists(st.one_of(formulas, zero_formulas, near_misses, scaled_near_misses),
             min_size=1, max_size=4),
)
def test_vanishes_agrees_with_the_expanded_formula(polys, fs):
    # vanishes says 0 exactly when the formula, run at the polynomial
    # variable, is the zero polynomial, whichever formula sets the point
    poly_jets = list(map(VARIABLE.jets, polys))
    assert vanishes(fs, polys) == [f(poly_jets, VARIABLE).is_zero for f in fs]


@pytest.mark.parametrize("j", (1, 7, 64))
@pytest.mark.parametrize("sign", (1, -1))
def test_vanishes_refutes_a_near_miss_one_bit_below_its_point(j, sign):
    # x**2 (x - 2**j) is 0 at 2**j, one bit below the point 2**(j + 1) its
    # bound takes, also next to a zero formula and a nonzero one of smaller
    # bounds
    near = _near_miss(j, 2, sign)
    points = []
    one = _recording(points)
    fs = [near, _node(lambda pt, a, b: pt.sub(a, b), one, one), one]
    assert vanishes(fs, [(1,)]) == [False, True, False]
    assert points == [1] * 3 + [2 ** (j + 1)] * 3
    assert near([], Point.at(j)) == 0


def test_no_other_module_picks_the_point():
    # BOUND and Point.at are named only inside exact: every other module
    # hands its formulas to exact.vanishes
    src = Path(__file__).resolve().parents[1] / "src" / "dresschain"
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "exact.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.Name):
                names.append(node.id)
            elif isinstance(node, ast.alias):
                names.append(node.asname or node.name)
                names.append(node.name)
            elif isinstance(node, ast.Attribute):
                names.append(node.attr)
                owner = getattr(node.value, "id", getattr(node.value, "attr", None))
                if node.attr == "at" and owner == "Point":
                    names.append("Point.at")
            if "BOUND" in names or "Point.at" in names:
                offenders.append("%s:%d" % (path.name, node.lineno))
    assert not offenders, offenders


def test_only_exact_and_chain_name_the_variable():
    # VARIABLE expands a formula into a polynomial: chain reads a failing
    # equation there, and no other module expands an identity
    src = Path(__file__).resolve().parents[1] / "src" / "dresschain"
    naming = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.alias):
                name = node.asname or node.name
            if name == "VARIABLE":
                naming.add(path.name)
    assert naming == {"exact.py", "chain.py"}


def test_jet_values_and_l1_norms():
    # P = 3 - 2x + x**3: P, P' = -2 + 3x**2 and P'' = 6x at 2**2, then the
    # l1 norms 6, 5 and 6
    assert jet((3, -2, 0, 1), 2) == (59, 46, 24)
    assert jet((3, 2, 0, 1), 0) == (6, 5, 6)
