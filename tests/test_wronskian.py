from fractions import Fraction as F
from itertools import combinations, product
from math import factorial
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dresschain.wronskian
from dresschain.exact import Polynomial
from dresschain.maya import MayaDiagram, UniversalCharacter, conjugate, translate
from dresschain.orthopoly import AlphaParam, falling_factorial, hermite, laguerre
from dresschain.wronskian import (
    NegativeIndex,
    NotProportional,
    _canonical_hermite_det,
    _conjugate_hermite_det,
    _hermite_matrix_det,
    _hermite_ys,
    _laguerre_columns,
    _laguerre_ints,
    _laguerre_matrix_det,
    _packed_hermite_det,
    check_translation_equivalence_hermite,
    check_translation_equivalence_laguerre,
    hermite_wronskian,
    laguerre_pseudo_wronskian,
    proportionality_constant,
)

from oracles import det_poly_matrix_cofactor, laguerre_det_oracle, laguerre_matrix_oracle

EMPTY = MayaDiagram(())
Z = Polynomial.x()


def formal_wronskian(funcs):
    """Analytic Wronskian by repeated formal differentiation (test oracle)."""
    rows = []
    current = list(funcs)
    for _ in range(len(funcs)):
        rows.append(current)
        current = [p.derivative() for p in current]
    return det_poly_matrix_cofactor(rows)


def test_hermite_wronskian_examples():
    assert hermite_wronskian(MayaDiagram((1,))).poly == 2 * Z
    assert hermite_wronskian(MayaDiagram((1, 2))).poly == 4 * Z ** 2 + 2
    assert hermite_wronskian(EMPTY).poly == Polynomial.one()


def test_hermite_wronskian_gauge():
    pw = hermite_wronskian(MayaDiagram((1, 2, 5)))
    assert pw.m == 3 and pw.r == 0 and pw.alpha is None
    assert pw.z_power == 0 and pw.exp_coeff == F(-3, 2)


def test_hermite_wronskian_rejects_negative():
    with pytest.raises(NegativeIndex):
        hermite_wronskian(MayaDiagram((-1, 2)))


def test_matrix_determinant_vs_true_wronskian():
    # the matrix form differs from the analytic Wronskian by 2^(m(m-1)/2)
    for entries in combinations(range(8), 3):
        m = len(entries)
        matrix = hermite_wronskian(MayaDiagram(entries)).poly
        true = formal_wronskian([hermite(n) for n in entries])
        assert true == matrix * 2 ** (m * (m - 1) // 2)
    for entries in combinations(range(8), 4):
        matrix = hermite_wronskian(MayaDiagram(entries)).poly
        true = formal_wronskian([hermite(n) for n in entries])
        assert true == matrix * 2 ** 6


def test_laguerre_pw_examples():
    a = AlphaParam(F(1, 2))
    pw = laguerre_pseudo_wronskian(UniversalCharacter(MayaDiagram((1,)), EMPTY), a)
    assert pw.poly == Polynomial((F(3, 2), -1))
    assert pw.z_power == F(1, 2) and pw.exp_coeff == F(-1, 2)

    pw = laguerre_pseudo_wronskian(UniversalCharacter(EMPTY, MayaDiagram((0,))), a)
    assert pw.poly == Polynomial.one()

    pw = laguerre_pseudo_wronskian(
        UniversalCharacter(MayaDiagram((1,)), MayaDiagram((1,))), a
    )
    assert pw.poly == Polynomial((F(-3, 8), 0, F(-1, 2)))
    assert pw.m == 1 and pw.r == 1


def test_laguerre_pw_r0_equals_wronskian():
    for a in (F(1, 3), F(7, 3)):
        alpha = AlphaParam(a)
        for entries in [(0, 1), (1, 2), (0, 2, 3), (1, 3, 4)]:
            uc = UniversalCharacter(MayaDiagram(entries), EMPTY)
            pw = laguerre_pseudo_wronskian(uc, alpha)
            true = formal_wronskian([laguerre(n, a) for n in entries])
            assert pw.poly == true


def test_staircase_collapses_to_monomial():
    # the (1, 3, ..., 2m-1) diagram: its determinant is a pure monomial
    for m in range(1, 5):
        d = MayaDiagram(tuple(range(1, 2 * m, 2)))
        poly = hermite_wronskian(d).poly
        v, rest = poly.split_lowest()
        assert v == m * (m + 1) // 2 and rest.degree == 0


def test_translation_equivalence_hermite():
    assert check_translation_equivalence_hermite(MayaDiagram((1,)), 1) == 2
    check_translation_equivalence_hermite(EMPTY, 2)
    check_translation_equivalence_hermite(MayaDiagram((1, 3)), 1)


def test_translated_determinant_rescales_canonical_one():
    # (0, 1, 3) is the 2-translate of (1,); V(0, 1, 3) / V(1) = 6
    assert hermite_wronskian(MayaDiagram((0, 1, 3))).poly == 6 * 2 * Z
    for entries in combinations(range(7), 4):
        assert hermite_wronskian(MayaDiagram(entries)).poly == _hermite_matrix_det(entries)


def test_translation_equivalence_uses_raw_matrices(monkeypatch):
    # the cached path assumes the identity, so the check must not use it
    def served_from_cache(entries, negate=False):
        raise AssertionError("canonical route consulted for %r" % (entries,))

    for name in ("_canonical_hermite_det", "_packed_hermite_det", "_conjugate_hermite_det"):
        monkeypatch.setattr(dresschain.wronskian, name, served_from_cache)
    with pytest.raises(AssertionError):
        hermite_wronskian(MayaDiagram((0, 2)))
    assert check_translation_equivalence_hermite(MayaDiagram((1,)), 1) == 2
    for d in (EMPTY, MayaDiagram((1, 3)), MayaDiagram((2, 3, 5))):
        for k in (1, 2, 3):
            check_translation_equivalence_hermite(d, k)


def partitions(n, largest):
    """Partitions of n into parts <= largest, parts non-increasing."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


# the canonical diagram c_i = lambda_{m-i} + i (0-based) of every partition
# of weight <= 12, the empty one included
SMALL_DIAGRAMS = [
    tuple(lam[len(lam) - 1 - i] + i for i in range(len(lam)))
    for w in range(13)
    for lam in partitions(w, w)
]


def test_packed_entries_match_hermite():
    # z**(n%2 - i%2) times the y-list's polynomial in z**2 is the entry
    for n in range(26):
        for i in range(n + 1):
            entry = Polynomial(_hermite_ys(n, i)).of_square(n % 2 - i % 2)
            assert entry == falling_factorial(n, i) * hermite(n - i), (n, i)


def test_hermite_routes_match_raw_elimination():
    # both routes forced on every diagram of weight <= 12; equality is on
    # exact coefficients, so content and sign are covered
    assert len(SMALL_DIAGRAMS) == 272
    conjugated = 0
    for c in SMALL_DIAGRAMS:
        raw = _hermite_matrix_det(c)
        assert _packed_hermite_det(c) == raw, c
        assert _conjugate_hermite_det(c) == raw, c
        assert _canonical_hermite_det.__wrapped__(c) == raw, c
        conjugated += len(conjugate(MayaDiagram(c))) < len(c)
    assert conjugated > 0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 20), min_size=1, max_size=8, unique=True))
def test_hermite_routes_match_raw_elimination_large(entries):
    c = tuple(sorted(entries))
    raw = _hermite_matrix_det(c)
    assert _packed_hermite_det(c) == raw
    assert _conjugate_hermite_det(c) == raw


def test_laguerre_memo_keys_on_values():
    uc = UniversalCharacter(MayaDiagram((1, 2)), MayaDiagram((1,)))
    first = laguerre_pseudo_wronskian(uc, AlphaParam(F(1, 3)))
    again = laguerre_pseudo_wronskian(
        UniversalCharacter(MayaDiagram((1, 2)), MayaDiagram((1,))), AlphaParam(F(2, 6))
    )
    assert again is first
    assert first == laguerre_pseudo_wronskian.__wrapped__(uc, AlphaParam(F(1, 3)))


def test_translation_equivalence_laguerre_power():
    a = AlphaParam(F(7, 3))
    eq = check_translation_equivalence_laguerre(
        UniversalCharacter(EMPTY, MayaDiagram((1,))), 0, 1, a
    )
    assert eq.z_power == 2 and eq.alpha_shift == -1

    eq = check_translation_equivalence_laguerre(
        UniversalCharacter(MayaDiagram((1,)), EMPTY), 1, 0, a
    )
    assert eq.z_power == 0 and eq.alpha_shift == 1

    eq = check_translation_equivalence_laguerre(
        UniversalCharacter(EMPTY, EMPTY), 1, 1, a
    )
    assert eq.z_power == 0 and eq.alpha_shift == 0


def test_proportionality_rejects():
    with pytest.raises(NotProportional):
        proportionality_constant(Z, Z + 1)
    with pytest.raises(NotProportional):
        proportionality_constant(Z * Z, Z)


def test_pseudo_wronskian_json():
    a = AlphaParam(F(1, 3))
    pw = laguerre_pseudo_wronskian(UniversalCharacter(MayaDiagram((1,)), EMPTY), a)
    data = pw.to_json()
    assert data["m"] == 1 and data["r"] == 0
    assert data["alpha"] == "1/3"
    assert data["poly"] == pw.poly.to_strings()
    hw = hermite_wronskian(MayaDiagram((2,)))
    assert hw.to_json()["alpha"] is None


def test_closed_form_laguerre_matches_recurrence():
    for a in (F(1, 3), F(-2, 5), F(7, 3), F(-41, 50), F(1, 2)):
        p, q = a.numerator, a.denominator
        for n in range(21):
            den = q ** n * factorial(n)
            assert Polynomial(F(x, den) for x in _laguerre_ints(n, p, q)) == laguerre(n, a)


def test_integer_columns_match_oracle_matrix():
    for first, second in [((1,), ()), ((0, 2), (1,)), ((1, 3), (0, 2)), ((), (0, 1, 4))]:
        uc = UniversalCharacter(MayaDiagram(first), MayaDiagram(second))
        for a in (F(1, 3), F(-2, 5), F(7, 3)):
            rows, dens = _laguerre_columns(uc, a)
            oracle = laguerre_matrix_oracle(uc, a)
            assert [[Polynomial(F(x, d) for x in e) for e, d in zip(row, dens)]
                    for row in rows] == oracle


TRANSLATED = [
    (UniversalCharacter(MayaDiagram(c1), MayaDiagram(c2)), k1, k2)
    for c1, c2 in [((), ()), ((1,), ()), ((), (2,)), ((1, 3), (2,)), ((2,), (1, 2))]
    for k1, k2 in product((0, 1, 2), repeat=2)
    if k1 or k2
]


def test_translated_laguerre_shares_canonical_determinant():
    tops = []

    def recorded(uc, a):
        tops.append(top_coefficient(uc, a))
        return tops[-1]

    top_coefficient = dresschain.wronskian._top_coefficient
    with mock.patch.object(dresschain.wronskian, "_top_coefficient", recorded):
        for uc, k1, k2 in TRANSLATED:
            shifted = UniversalCharacter(translate(uc.first, k1), translate(uc.second, k2))
            for a in (F(1, 3), F(-2, 5)):
                pw = laguerre_pseudo_wronskian.__wrapped__(shifted, AlphaParam(a))
                assert pw.poly == _laguerre_matrix_det(shifted, a)
    assert len(tops) == 2 * len(TRANSLATED) and all(tops)


def test_translation_equivalence_laguerre_uses_raw_matrices(monkeypatch):
    # the sharing path assumes the identity, so the check must not use it
    def served_from_memo(uc, alpha):
        raise AssertionError("pseudo-Wronskian memo consulted for %r" % (uc,))

    monkeypatch.setattr(
        dresschain.wronskian, "laguerre_pseudo_wronskian", served_from_memo
    )
    shifted = UniversalCharacter(MayaDiagram((0, 2)), EMPTY)
    with pytest.raises(AssertionError):
        laguerre_pseudo_wronskian.__wrapped__(shifted, AlphaParam(F(1, 3)))
    for uc, k1, k2 in TRANSLATED:
        for a in (F(1, 3), F(-2, 5)):
            check_translation_equivalence_laguerre(uc, k1, k2, AlphaParam(a))


# canonical diagrams with entries <= 5, each translated by 0..3
translated_diagrams = st.builds(
    lambda entries, k: translate(MayaDiagram(tuple(sorted(entries))), k),
    st.lists(st.integers(1, 5), max_size=2, unique=True),
    st.integers(0, 3),
)
characters = st.builds(UniversalCharacter, translated_diagrams, translated_diagrams)
non_integer_alphas = st.fractions(min_value=-6, max_value=6, max_denominator=50).filter(
    lambda a: a.denominator != 1
)


@settings(max_examples=150, deadline=None)
@given(characters, non_integer_alphas, st.booleans())
def test_laguerre_pseudo_wronskian_matches_oracle(uc, a, vanishing_top):
    # with vanishing_top, every translated character takes the direct
    # elimination that a zero top coefficient forces
    compute = laguerre_pseudo_wronskian.__wrapped__
    if vanishing_top:
        with mock.patch.object(
            dresschain.wronskian, "_top_coefficient", lambda uc, a: F(0)
        ):
            poly = compute(uc, AlphaParam(a)).poly
    else:
        poly = compute(uc, AlphaParam(a)).poly
    assert poly == laguerre_det_oracle(uc, a)
