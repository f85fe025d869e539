import ast
from fractions import Fraction as F
from itertools import combinations, product
from math import factorial, gcd
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dresschain.wronskian
from dresschain.chain import build_even_chain, build_odd_chain, verify_chain
from dresschain.exact import Polynomial
from dresschain.maya import (
    CyclicStructure,
    MayaDiagram,
    UniversalCharacter,
    conjugate,
    translate,
)
from dresschain.orthopoly import AlphaParam, hermite, laguerre
from dresschain.selftest import (
    ALPHA_TRIPLE,
    _canonical_diagrams,
    _odd_parameter_grid,
    _odd_table_rows,
    check_wronskian_equivalences,
    even_cells,
    run_all,
)
from dresschain.wronskian import (
    NegativeIndex,
    PseudoWronskian,
    _hermite_kernel,
    _hermite_matrix_det,
    _hermite_ys,
    _laguerre_ints,
    _laguerre_kernel,
    _laguerre_matrix_det,
    _laguerre_top,
    hermite_wronskian,
    laguerre_pseudo_wronskian,
)

from oracles import (
    clear_ladder_memos,
    det_poly_matrix_cofactor,
    top_coefficient_oracle,
)

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
    # (0, 2) is the 1-translate of (1,), at twice its determinant
    assert hermite_wronskian(MayaDiagram((0, 2))).poly == 2 * hermite_wronskian(
        MayaDiagram((1,))
    ).poly
    for d, k in [(MayaDiagram((1,)), 1), (EMPTY, 2), (MayaDiagram((1, 3)), 1)]:
        t = translate(d, k)
        assert hermite_wronskian(t).poly == _hermite_matrix_det(t.entries)


def test_translated_determinant_rescales_canonical_one():
    # (0, 1, 3) is the 2-translate of (1,); V(0, 1, 3) / V(1) = 6
    assert hermite_wronskian(MayaDiagram((0, 1, 3))).poly == 6 * 2 * Z
    for entries in combinations(range(7), 4):
        assert hermite_wronskian(MayaDiagram(entries)).poly == _hermite_matrix_det(entries)


@pytest.fixture
def fresh_memos():
    """Empty ladder memos before and after a test that corrupts the ladders."""
    clear_ladder_memos()
    yield
    clear_ladder_memos()


def test_criterion_3_catches_a_wrong_hermite_ratio(monkeypatch, fresh_memos):
    # translates are exactly the tuples that start at 0, so this doubles
    # the leading coefficient 2**deg V(translate) and leaves every
    # canonical entry alone
    vandermonde = dresschain.wronskian._vandermonde
    monkeypatch.setattr(
        dresschain.wronskian,
        "_vandermonde",
        lambda e: 2 * vandermonde(e) if e[:1] == (0,) else vandermonde(e),
    )
    result = check_wronskian_equivalences()
    assert not result.ok
    assert result.detail == "Hermite ladder differs from its matrix at (0,)"


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
    # z**(n%2) times the y-list's polynomial in z**2 is H_n
    for n in range(26):
        assert Polynomial(_hermite_ys(n)).of_square(n % 2) == hermite(n), n


def takes_conjugate_route(c):
    return len(conjugate(MayaDiagram(c))) < len(c)


def test_hermite_routes_match_raw_elimination():
    # every diagram of weight <= 12, each on the route it takes (the
    # conjugate one when that diagram is smaller); equality is on exact
    # coefficients, so content and sign are covered
    assert len(SMALL_DIAGRAMS) == 272
    conjugated = 0
    for c in SMALL_DIAGRAMS:
        assert hermite_wronskian(MayaDiagram(c)).poly == _hermite_matrix_det(c), c
        conjugated += takes_conjugate_route(c)
    assert 0 < conjugated < len(SMALL_DIAGRAMS)


# m <= 8 entries: sparse ones (c_m >= 2m - 1) take the direct route, dense
# ones (all below 2m - 1) the conjugate one
sparse_diagrams = st.lists(st.integers(1, 20), min_size=1, max_size=8, unique=True).map(
    lambda e: tuple(sorted(e))
).filter(lambda c: c[-1] >= 2 * len(c) - 1)
dense_diagrams = st.integers(2, 8).flatmap(
    lambda m: st.lists(st.integers(1, 2 * m - 2), min_size=m, max_size=m, unique=True)
).map(lambda e: tuple(sorted(e)))


@settings(max_examples=30, deadline=None)
@given(sparse_diagrams, dense_diagrams)
def test_hermite_routes_match_raw_elimination_large(sparse, dense):
    assert not takes_conjugate_route(sparse) and takes_conjugate_route(dense)
    for c in (sparse, dense):
        assert hermite_wronskian(MayaDiagram(c)).poly == _hermite_matrix_det(c), c


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
    # (canonical character, k1, k2, z power): a translate is a constant
    # times z**power times its canonical determinant at alpha + k1 - k2
    for uc, k1, k2, power in [
        (UniversalCharacter(EMPTY, MayaDiagram((1,))), 0, 1, 2),
        (UniversalCharacter(MayaDiagram((1,)), EMPTY), 1, 0, 0),
        (UniversalCharacter(EMPTY, EMPTY), 1, 1, 0),
    ]:
        shifted = UniversalCharacter(translate(uc.first, k1), translate(uc.second, k2))
        lhs = laguerre_pseudo_wronskian(shifted, a).poly
        assert lhs == _laguerre_matrix_det(shifted, a.value)
        rhs = laguerre_pseudo_wronskian(uc, a.shifted(k1 - k2)).poly.shifted(power)
        assert lhs * rhs.leading == rhs * lhs.leading


def test_laguerre_determinant_is_z_to_the_r_r_minus_1_times_prim():
    # the lowest term of every pseudo-Wronskian is z**(r (r - 1)),
    # r = len(second), so the entry stores the rest, and its constant term
    # is not 0: on criterion 3's characters and translates, at five alphas
    ucs = [UniversalCharacter(a, b)
           for a in _canonical_diagrams(3, 2) for b in _canonical_diagrams(3, 2)]
    alphas = ALPHA_TRIPLE + (F(-4, 3), F(5, 2))
    for uc, k1, k2 in product(ucs, (0, 1, 2), (0, 1, 2)):
        t = UniversalCharacter(translate(uc.first, k1), translate(uc.second, k2))
        r = len(t.second.entries)
        for a in alphas:
            v, rest = _laguerre_matrix_det(t, a).split_lowest()
            assert v == r * (r - 1) and rest.coeff(0) != 0, (t, a)
            assert laguerre_pseudo_wronskian(t, AlphaParam(a)).prim.coeff(0) != 0
    # the kernel's own exponent, in units of z**(1/q), is -r (q m + p)
    for a, b in product(_canonical_diagrams(4, 3), repeat=2):
        m, r = len(a.entries), len(b.entries)
        seeds = a.entries + tuple(~l for l in b.entries)
        for alpha in alphas:
            p, q = alpha.numerator, alpha.denominator
            assert _laguerre_kernel(p, q, seeds)[0] == -r * (q * m + p)


def _entries_built_by(criterion, monkeypatch):
    """Every ladder entry that selftest criterion builds from cold memos."""
    built = []

    def record(*args):
        built.append(PseudoWronskian(*args))
        return built[-1]

    clear_ladder_memos()
    with monkeypatch.context() as patch:
        patch.setattr(dresschain.wronskian, "PseudoWronskian", record)
        (result,) = run_all([criterion])
    assert result.ok, result.detail
    return built


def test_every_entry_keeps_a_constant_term_and_low_is_its_lowest_power(
        monkeypatch, fresh_memos):
    # every `prim` that criteria 3-7 build has a nonzero constant term, and
    # `low`, read off the label, is the lowest power of the raw determinant
    # of every diagram of criteria 3-5 and every character of criterion 3;
    # hermite_wronskian proves v = u (u + 1) / 2, and this guards the code
    built = {c: _entries_built_by(c, monkeypatch) for c in (3, 4, 5, 6, 7)}
    assert all(pw.prim.coeff(0) != 0 for entries in built.values() for pw in entries)
    diagrams = {pw.label: pw.low for c in (3, 4, 5) for pw in built[c] if pw.alpha is None}
    characters = {(pw.label, pw.alpha): pw.low for pw in built[3] if pw.alpha is not None}
    assert len(diagrams) == 1353 and len(characters) == 1764
    assert set(diagrams.values()) == {0, 1, 3, 6, 10}
    assert set(characters.values()) == {0, 2, 6, 12}
    for d, low in diagrams.items():
        assert _hermite_matrix_det(d.entries).split_lowest()[0] == low, d
    for (uc, a), low in characters.items():
        assert _laguerre_matrix_det(uc, a).split_lowest()[0] == low, (uc, a)


def test_entries_share_their_kernel_coefficients(fresh_memos):
    # a memoised entry wraps the tuple its kernel memo holds, not a copy:
    # every canonical diagram on the direct route, and no other, and every
    # canonical character; a diagram through its smaller conjugate copies
    diagrams = _canonical_diagrams(8, 5)
    direct = [d for d in diagrams if not takes_conjugate_route(d.entries)]
    assert 0 < len(direct) < len(diagrams)
    shared = [d for d in diagrams
              if hermite_wronskian(d).prim.int_coeffs is _hermite_kernel(d.entries)[1]]
    assert shared == direct
    for a, b in product(_canonical_diagrams(4, 3), repeat=2):
        seeds = a.entries + tuple(~l for l in b.entries)
        prim = laguerre_pseudo_wronskian(UniversalCharacter(a, b), AlphaParam(F(1, 3))).prim
        assert prim.int_coeffs is _laguerre_kernel(1, 3, seeds)[1], (a, b)


def test_hermite_kernel_exponent_is_low():
    # the direct route's kernel gives each canonical diagram's Wronskian as
    # z**E D(z**2) with D(0) != 0, and E is the closed form `low`
    diagrams = _canonical_diagrams(10, 6)
    assert len(diagrams) == 848
    for d in diagrams:
        assert _hermite_kernel(d.entries)[0] == hermite_wronskian(d).low, d


LAYOUT_CALLS = {"of_square", "shifted", "split_lowest"}


def test_only_wronskian_reads_the_entry_layout():
    # the power of an entry's variable that `prim` leaves out is put back
    # or split off in wronskian alone: every other module reads `core` or
    # `poly`.  Read from the sources with ast, importing nothing
    src = Path(__file__).resolve().parents[1] / "src" / "dresschain"
    readers = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in LAYOUT_CALLS
                    and isinstance(node.func.value, ast.Attribute)
                    and node.func.value.attr == "prim"):
                readers.add("%s:%d" % (path.name, node.lineno))
    assert readers and all(r.startswith("wronskian.py:") for r in readers), readers


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


TRANSLATED = [
    (UniversalCharacter(MayaDiagram(c1), MayaDiagram(c2)), k1, k2)
    for c1, c2 in [((), ()), ((1,), ()), ((), (2,)), ((1, 3), (2,)), ((2,), (1, 2))]
    for k1, k2 in product((0, 1, 2), repeat=2)
    if k1 or k2
]


def test_translated_laguerre_shares_canonical_determinant(fresh_memos):
    # the kernel is entered with one seed per entry, of the entry's degree;
    # a translate has an entry 0 and a canonical character none, so only
    # canonical characters reach it, each once per shifted alpha.  Calls
    # the kernel makes to itself, for sub-tuples, are not entries.
    degrees = []
    depth = 0

    def recorded(p, q, seeds):
        nonlocal depth
        if not depth:
            degrees.append([n if n >= 0 else ~n for n in seeds])
        depth += 1
        try:
            return kernel(p, q, seeds)
        finally:
            depth -= 1

    kernel = dresschain.wronskian._laguerre_kernel
    alphas = (F(1, 3), F(-2, 5))
    with mock.patch.object(dresschain.wronskian, "_laguerre_kernel", recorded):
        for uc, k1, k2 in TRANSLATED:
            shifted = UniversalCharacter(translate(uc.first, k1), translate(uc.second, k2))
            for a in alphas:
                pw = laguerre_pseudo_wronskian.__wrapped__(shifted, AlphaParam(a))
                assert pw.poly == _laguerre_matrix_det(shifted, a)
    canonical = {(uc, a + k1 - k2) for uc, k1, k2 in TRANSLATED for a in alphas}
    assert len(degrees) == len(canonical)
    assert all(0 not in d for d in degrees)


LEVELS = [(1,), (2,), (1, 2), (1, 3), (2, 3), (1, 2, 4)]


@pytest.mark.parametrize("a", [F(1, 3), F(-4, 5), F(2, 7), F(-9, 7)], ids=str)
def test_laguerre_kernel_tells_spectrum_from_shadow_seeds(a, fresh_memos):
    # a spectrum seed n and a shadow seed ~l share one kernel key: characters
    # whose components hold the same levels, and ones with an empty
    # component, each from cold memos, are their matrices
    ucs = [UniversalCharacter(MayaDiagram(c1), MayaDiagram(c2))
           for c in LEVELS for c1, c2 in [(c, c), (c, ()), ((), c)]]
    for uc in ucs:
        clear_ladder_memos()
        pw = laguerre_pseudo_wronskian(uc, AlphaParam(a))
        assert pw.poly == _laguerre_matrix_det(uc, a), uc


def test_criterion_3_catches_a_wrong_laguerre_top(monkeypatch, fresh_memos):
    # canonical characters take their constant from _laguerre_top too, so
    # only translates (a component starting at 0) get the wrong one
    def doubled(uc, a):
        translated = 0 in uc.first.entries + uc.second.entries
        return 2 * top(uc, a) if translated else top(uc, a)

    top = dresschain.wronskian._laguerre_top
    monkeypatch.setattr(dresschain.wronskian, "_laguerre_top", doubled)
    result = check_wronskian_equivalences()
    assert not result.ok
    assert result.detail == "Laguerre ladder differs from its matrix at () x (0,), alpha=1/3"


def translated_characters(max_entry, max_size):
    """Characters of two canonical diagrams (entries <= max_entry, at most
    max_size of them), each translated by 0..3."""
    diagrams = st.builds(
        lambda entries, k: translate(MayaDiagram(tuple(sorted(entries))), k),
        st.lists(st.integers(1, max_entry), max_size=max_size, unique=True),
        st.integers(0, 3),
    )
    return st.builds(UniversalCharacter, diagrams, diagrams)


characters = translated_characters(5, 2)
non_integer_alphas = st.fractions(min_value=-6, max_value=6, max_denominator=50).filter(
    lambda a: a.denominator != 1
)


@settings(max_examples=150, deadline=None)
@given(characters, non_integer_alphas)
def test_laguerre_pseudo_wronskian_matches_oracle(uc, a):
    poly = laguerre_pseudo_wronskian.__wrapped__(uc, AlphaParam(a)).poly
    assert poly == _laguerre_matrix_det(uc, a)


def canonical_diagrams(max_size):
    return st.lists(st.integers(1, 9), max_size=max_size, unique=True).map(
        lambda e: MayaDiagram(tuple(sorted(e)))
    )


@st.composite
def canonical_characters(draw):
    """Canonical characters of size <= 8, spectrum-only and shadow-only
    ones drawn on purpose."""
    kind = draw(st.sampled_from(("spectrum", "shadow", "mixed")))
    if kind == "mixed":
        first = draw(canonical_diagrams(7))
        second = draw(canonical_diagrams(8 - len(first)))
    else:
        first, second = draw(canonical_diagrams(8)), EMPTY
        if kind == "shadow":
            first, second = second, first
    return UniversalCharacter(first, second)


# alpha = p/q with q <= 9 and p of either sign
small_denominator_alphas = st.builds(F, st.integers(-40, 40), st.integers(2, 9)).filter(
    lambda a: a.denominator != 1
)


@settings(max_examples=60, deadline=None)
@given(canonical_characters(), small_denominator_alphas)
def test_laguerre_recursion_matches_raw_elimination(uc, a):
    # a canonical character goes straight to the recursion
    poly = laguerre_pseudo_wronskian.__wrapped__(uc, AlphaParam(a)).poly
    assert poly == _laguerre_matrix_det(uc, a)


def sharing_diagrams(prefix, tails):
    """Canonical diagrams that all start with prefix, one per tail (of
    entries above the prefix)."""
    return [MayaDiagram(tuple(sorted(set(prefix) | set(t)))) for t in tails]


def routed(d):
    """A canonical diagram and, when its size differs, its conjugate: the
    smaller of the two goes direct and the larger through it, so the two
    routes reach the kernel with one seed tuple."""
    dual = conjugate(d)
    return [d, dual] if len(dual.entries) != len(d.entries) else [d]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(1, 4), max_size=3, unique=True),
    st.lists(st.lists(st.integers(5, 10), max_size=3, unique=True), min_size=2, max_size=5),
    st.lists(st.integers(1, 3), max_size=2, unique=True),
    st.lists(
        st.tuples(st.lists(st.integers(4, 7), max_size=2, unique=True),
                  st.lists(st.integers(4, 7), max_size=2, unique=True)),
        min_size=2, max_size=4,
    ),
    st.tuples(st.integers(-20, 20).filter(lambda p: p % 3),
              st.integers(-20, 20).filter(lambda p: p % 7)),
    st.randoms(use_true_random=False),
)
def test_kernel_memos_are_independent_of_order(prefix, tails, lprefix, ltails, ps, rnd):
    # warm the kernel memos in a random order with entries that share
    # sub-tuples (direct and conjugate Hermite routes, Laguerre at two
    # denominators), then every entry, in another order, is its matrix
    clear_ladder_memos()
    diagrams = [e for d in sharing_diagrams(prefix, tails) for e in routed(d)]
    alphas = [F(ps[0], 3), F(ps[1], 7)]
    characters = [
        (UniversalCharacter(d1, d2), a)
        for d1, d2 in zip(sharing_diagrams(lprefix, [t for t, _ in ltails]),
                          sharing_diagrams(lprefix[:1], [t for _, t in ltails]))
        for a in alphas
    ]
    jobs = [(hermite_wronskian.__wrapped__, (d,)) for d in diagrams]
    jobs += [(laguerre_pseudo_wronskian.__wrapped__, (uc, AlphaParam(a))) for uc, a in characters]
    for _ in range(2):
        rnd.shuffle(jobs)
        for build, args in jobs:
            build(*args)
    rnd.shuffle(diagrams)
    for d in diagrams:
        assert hermite_wronskian.__wrapped__(d).poly == _hermite_matrix_det(d.entries)
    rnd.shuffle(characters)
    for uc, a in characters:
        pw = laguerre_pseudo_wronskian.__wrapped__(uc, AlphaParam(a))
        assert pw.poly == _laguerre_matrix_det(uc, a)


def test_both_hermite_routes_share_the_kernel_memo(fresh_memos):
    # (2, 5) goes direct; its conjugate (1, 2, 4, 5) goes through it, so
    # building the conjugate afterwards runs no new kernel step
    d = MayaDiagram((2, 5))
    assert routed(d) == [d, MayaDiagram((1, 2, 4, 5))]
    hermite_wronskian(d)
    misses = _hermite_kernel.cache_info().misses
    hermite_wronskian(conjugate(d))
    assert _hermite_kernel.cache_info().misses == misses


def test_kernel_memo_holds_each_needed_sub_tuple_once(fresh_memos):
    # a determinant of the sorted seeds T, m = len(T), needs W of T[:j] and
    # of T[:j] + (T[i],) for 0 <= j <= i < m (prefixes plus one later seed);
    # a memo on sorted tuples computes each of these once over all 35
    # 4-subsets of range(7)
    def seeds(entries):
        k = next((i for i, n in enumerate(entries) if n != i), len(entries))
        c = MayaDiagram(tuple(n - k for n in entries[k:]))
        dual = conjugate(c)
        return dual.entries if len(dual.entries) < len(c.entries) else c.entries

    needed = set()
    for entries in combinations(range(7), 4):
        t = seeds(entries)
        needed.add(())
        needed.update(t[:j] + (t[i],) for i in range(len(t)) for j in range(i + 1))
    for entries in combinations(range(7), 4):
        hermite_wronskian(MayaDiagram(entries))
    info = _hermite_kernel.cache_info()
    assert info.misses == info.currsize == len(needed)


def test_kernel_values_are_primitive(monkeypatch, fresh_memos):
    # every Sylvester step divides out its content and its sign, and the
    # leaves are primitive with a positive lead, so every kernel value
    # reached by the criterion-4 chains or the criterion-6 cells is a tuple
    # with no integer factor and a positive leading coefficient
    values = []

    def recording(kernel):
        def wrapped(*args):
            values.append(kernel(*args))
            return values[-1]
        return wrapped

    for name in ("_hermite_kernel", "_laguerre_kernel"):
        monkeypatch.setattr(dresschain.wronskian, name,
                            recording(getattr(dresschain.wronskian, name)))
    for cs in _odd_parameter_grid(3):
        build_odd_chain(cs, allow_degenerate=True)
    for _, build, _ in _odd_table_rows():
        build()
    for cs1, cs2, perm, _ in even_cells():
        for a in ALPHA_TRIPLE:
            build_even_chain(cs1, cs2, AlphaParam(a), perm=perm)
    assert len(values) > 1000 and max(len(d) for _, d in values) > 10
    assert all(type(d) is tuple and gcd(*d) == 1 and d[-1] > 0 for _, d in values)


def test_ladders_run_no_elimination(monkeypatch, fresh_memos):
    def forbidden(*args):
        raise AssertionError("a ladder entry ran a Bareiss elimination")

    monkeypatch.setattr(dresschain.wronskian, "det_poly_matrix", forbidden)
    odd = build_odd_chain(CyclicStructure(k=3, okamoto=(1, 2)), perm=(2, 0, 1))
    even = build_even_chain(
        CyclicStructure(k=1, second_type=((1, 2),)),
        CyclicStructure(k=1, second_type=((2, 1),)),
        AlphaParam(F(2, 5)),
    )
    assert verify_chain(odd).ok and verify_chain(even).ok


@settings(max_examples=100, deadline=None)
@given(translated_characters(6, 3), non_integer_alphas)
def test_top_coefficient_is_the_nonzero_leading_coefficient(uc, a):
    # the closed form never vanishes at a non-integer alpha, so every
    # translated character can be rescaled from its canonical one
    top = _laguerre_top(uc, a)
    assert top and top == _laguerre_matrix_det(uc, a).leading


@settings(max_examples=100, deadline=None)
@given(translated_characters(6, 3), non_integer_alphas)
def test_ladder_entry_is_primitive_polynomial_and_leading_coefficient(uc, a):
    # the components of a translated character are translated Hermite
    # diagrams; every entry stores a primitive integer polynomial with a
    # positive leading coefficient and the determinant's nonzero one
    for pw in (
        hermite_wronskian(uc.first),
        hermite_wronskian(uc.second),
        laguerre_pseudo_wronskian(uc, AlphaParam(a)),
    ):
        assert pw.prim.primitive() == pw.prim and pw.prim.leading > 0
        assert pw.lead != 0 and pw.poly.leading == pw.lead


@settings(max_examples=200, deadline=None)
@given(translated_characters(8, 4), st.data())
def test_top_coefficient_matches_column_oracle(uc, data):
    size = len(uc.first.entries) + len(uc.second.entries)
    assume(size)
    alphas = [
        st.fractions(min_value=-30, max_value=30, max_denominator=12),
        st.integers(-30, 30).map(F),
    ]
    if uc.second.entries:
        # alpha = l - t with t < size zeroes the shadow factor (l - alpha)_i
        # from row t + 1 on
        alphas.append(st.builds(
            lambda l, t: F(l - t), st.sampled_from(uc.second.entries), st.integers(0, size - 1)
        ))
    a = data.draw(st.one_of(alphas))
    assert _laguerre_top(uc, a) == top_coefficient_oracle(uc, a)


def test_top_coefficient_builds_no_columns(monkeypatch):
    cases = [
        (UniversalCharacter(translate(MayaDiagram(c1), k1), translate(MayaDiagram(c2), k2)), a)
        for c1, c2, k1, k2 in [((1, 3), (2,), 1, 2), ((2,), (1, 2), 3, 0), ((), (4,), 0, 3)]
        for a in (F(1, 3), F(-2, 5), F(-7), F(2))
    ]
    expected = [top_coefficient_oracle(uc, a) for uc, a in cases]
    assert any(expected) and not all(expected)

    def forbidden(*args):
        raise AssertionError("the top coefficient built a polynomial matrix")

    monkeypatch.setattr(dresschain.wronskian, "_laguerre_column", forbidden)
    monkeypatch.setattr(dresschain.wronskian, "det_poly_matrix", forbidden)
    assert [_laguerre_top(uc, a) for uc, a in cases] == expected
