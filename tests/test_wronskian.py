from fractions import Fraction as F
from itertools import combinations

import pytest

import dresschain.wronskian
from dresschain.exact import Polynomial
from dresschain.maya import MayaDiagram, UniversalCharacter
from dresschain.orthopoly import AlphaParam, hermite, laguerre
from dresschain.wronskian import (
    NegativeIndex,
    NotProportional,
    _hermite_matrix_det,
    check_translation_equivalence_hermite,
    check_translation_equivalence_laguerre,
    hermite_wronskian,
    laguerre_pseudo_wronskian,
    proportionality_constant,
)

from oracles import det_poly_matrix_cofactor

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
    def served_from_cache(entries):
        raise AssertionError("canonical cache consulted for %r" % (entries,))

    monkeypatch.setattr(dresschain.wronskian, "_canonical_hermite_det", served_from_cache)
    with pytest.raises(AssertionError):
        hermite_wronskian(MayaDiagram((0, 2)))
    assert check_translation_equivalence_hermite(MayaDiagram((1,)), 1) == 2
    for d in (EMPTY, MayaDiagram((1, 3)), MayaDiagram((2, 3, 5))):
        for k in (1, 2, 3):
            check_translation_equivalence_hermite(d, k)


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
