import dataclasses
import itertools
import operator
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dresschain.chain
import dresschain.exact
import dresschain.wronskian
from dresschain.chain import (
    OMEGA,
    OddPeriodRequired,
    _gauge,
    build_even_chain,
    build_odd_chain,
    potential_of,
    verify_chain,
)
from dresschain.exact import Polynomial, RationalFunction
from dresschain.maya import (
    AmplitudeMismatch,
    CyclicStructure,
    DegenerateStructure,
    MayaDiagram,
    UniversalCharacter,
    apply_uc_flip,
    enumerate_structures,
    flip_at,
)
from dresschain.orthopoly import AlphaParam
from dresschain.painleve import piv_from_chain, pv_from_chain
from dresschain.selftest import (
    ALPHA_TRIPLE,
    _odd_parameter_grid,
    _odd_table_rows,
    even_cells,
)
from dresschain.wronskian import (
    PseudoWronskian,
    _hermite_matrix_det,
    _laguerre_matrix_det,
    _untranslate,
    hermite_wronskian,
    laguerre_pseudo_wronskian,
)

from oracles import _residual_rf, clear_ladder_memos, log_derivative_ratio

EMPTY = MayaDiagram(())
X = Polynomial.x()
ALPHA = AlphaParam(F(1, 3))
# the criterion-6 box: every cell as (cs1, cs2), and the period-4 cells,
# splits (3,1) and (2,2), with their table flip orders
EVEN_CELLS = [(cs1, cs2) for cs1, cs2, _, _ in even_cells()]
PERIOD4_CELLS = [
    (cs1, cs2, perm) for cs1, cs2, perm, _ in even_cells() if cs1.p + cs2.p == 4
]


def test_one_step_chain():
    sol = build_odd_chain(CyclicStructure(k=1))
    assert sol.period == 1 and sol.delta == 2
    assert sol.span(0, 1) == RationalFunction(X)
    report = verify_chain(sol)
    assert report.ok
    assert report.equations[0].value == -2  # eps_11 minus the shift


def test_two_step_chain_closed_form():
    sol = build_even_chain(CyclicStructure(k=1), CyclicStructure(k=1), ALPHA)
    a = ALPHA.value
    assert sol.delta == 4
    assert sol.expected_eps == (4 * a, -4 * a - 4)
    v1, v2 = sol.span(0, 1), sol.span(1, 2)
    assert v1 == RationalFunction(Polynomial((-(a + F(1, 2)), 1)))
    assert v2 == RationalFunction(Polynomial((a + F(1, 2), 1)))
    assert verify_chain(sol).ok


def test_three_step_gh_chain_residuals():
    cs = CyclicStructure(k=1, second_type=((1, 2),))
    sol = build_odd_chain(cs)
    report = verify_chain(sol)
    assert report.ok
    assert sol.expected_eps == (F(-2), F(-4), F(4))
    assert sol.delta == 2
    # states (1,2) -> (0,1,2) -> (0,2) -> (0,2,3) under the default order
    assert [pw.poly.degree for pw in sol.ladder] == [2, 0, 1, 2]


def test_three_step_permutation_independence():
    structures = [
        CyclicStructure(k=1, second_type=((lam, mu),))
        for lam in (1, 2)
        for mu in (1, 2)
    ] + [
        CyclicStructure(k=3, okamoto=(a1, a2))
        for a1 in (0, 1, 2)
        for a2 in (0, 1, 2)
    ]
    for cs in structures:
        for perm in itertools.permutations(range(3)):
            sol = build_odd_chain(cs, perm=perm)
            assert verify_chain(sol).ok, (cs, perm)


def test_inverse_x_coefficients_follow_flip_signs():
    # first-slot flips: positive gives lin = -omega/2, negative +omega/2
    cs1 = CyclicStructure(k=1, second_type=((1, 2),))
    sol = build_even_chain(cs1, CyclicStructure(k=1), ALPHA)
    for i, flip in enumerate(sol.flips):
        lin, _ = _gauge(sol.ladder[i], sol.ladder[i + 1])
        assert lin == -flip.sign * OMEGA / 2


def test_degenerate_structure_refused_then_allowed():
    cs = CyclicStructure(k=3, okamoto=(1, 1), second_type=((4, 1),))
    with pytest.raises(DegenerateStructure):
        build_odd_chain(cs)
    sol = build_odd_chain(cs, allow_degenerate=True)
    assert sol.period == 5
    assert verify_chain(sol).ok
    # the colliding level-4 flips carry opposite dynamic signs
    signs = [f.sign for f in sol.flips if f.level == 4]
    assert sorted(signs) == [-1, 1]


def test_even_chain_accepts_degenerate_layouts():
    # even builders have no degeneracy gate: the replay still closes and
    # every Darboux step keeps its seed energy
    cs1 = CyclicStructure(k=1, second_type=((1, 1), (2, 2)))  # merging blocks
    assert cs1.is_degenerate
    sol = build_even_chain(cs1, CyclicStructure(k=1), ALPHA)
    assert verify_chain(sol).ok


def test_even_chain_table_3_1():
    cs1 = CyclicStructure(k=1, second_type=((1, 1),))
    sol = build_even_chain(cs1, CyclicStructure(k=1), ALPHA, perm=(1, 2, 0, 3))
    a = ALPHA.value
    assert sol.delta == 4
    assert sol.expected_eps == (F(-4), F(8), 4 * a, 4 * (-2 - a))
    assert verify_chain(sol).ok


def test_even_chain_interleaved_slots():
    # slot order is free: interleave the shadow flip among the others
    cs1 = CyclicStructure(k=1, second_type=((1, 1),))
    sol = build_even_chain(cs1, CyclicStructure(k=1), ALPHA, perm=(1, 3, 2, 0))
    assert verify_chain(sol).ok


def test_even_chain_errors():
    with pytest.raises(AmplitudeMismatch):
        build_even_chain(
            CyclicStructure(k=1), CyclicStructure(k=3, okamoto=(0, 0)), ALPHA
        )
    with pytest.raises(OddPeriodRequired):
        build_odd_chain(CyclicStructure(k=2, okamoto=(1,)))


def test_broken_chain_reports_not_ok():
    sol = build_odd_chain(CyclicStructure(k=1, second_type=((1, 2),)))
    wrong = sol.expected_eps[:1] + (sol.expected_eps[1] + 1,) + sol.expected_eps[2:]
    report = verify_chain(dataclasses.replace(sol, expected_eps=wrong))
    assert not report.ok
    eq = report.equations[1]
    assert eq.residual_constant and eq.value == sol.expected_eps[1] and not eq.match


def test_broken_ladder_fails_sum_rule():
    sol = build_odd_chain(CyclicStructure(k=1, second_type=((1, 2),)))
    bad_last = sol.ladder[:-1] + (sol.ladder[1],)  # closure degree mismatch
    report = verify_chain(dataclasses.replace(sol, ladder=bad_last))
    assert not report.sum_rule and not report.ok


def _as_entry(pw, poly):
    """pw with the primitive polynomial of poly."""
    return dataclasses.replace(pw, prim=poly.primitive())


def _with_ladder_entry(sol, index, poly):
    ladder = list(sol.ladder)
    ladder[index] = _as_entry(ladder[index], poly)
    return dataclasses.replace(sol, ladder=tuple(ladder))


SAMPLE_BUILDS = {
    "odd": lambda: build_odd_chain(CyclicStructure(k=3, okamoto=(1, 2)), perm=(2, 0, 1)),
    "even-31": lambda: build_even_chain(
        CyclicStructure(k=1, second_type=((1, 1),)),
        CyclicStructure(k=1),
        ALPHA,
        perm=(1, 2, 0, 3),
    ),
    "even-22": lambda: build_even_chain(
        CyclicStructure(k=2, okamoto=(1,)),
        CyclicStructure(k=2, okamoto=(2,)),
        ALPHA,
        perm=(1, 0, 3, 2),
    ),
}
SAMPLE_CHAINS = {name: build() for name, build in SAMPLE_BUILDS.items()}


@pytest.mark.parametrize("sol", SAMPLE_CHAINS.values(), ids=SAMPLE_CHAINS.keys())
def test_fast_checks_agree_with_residual_oracle(sol):
    # the slow residual is the oracle: it gives exactly the expected
    # constants, and so does the fast check
    for i, expected in enumerate(sol.expected_eps, start=1):
        assert _residual_rf(sol, i) == expected
    assert verify_chain(sol).ok


def _unclosed(sol):
    """sol with its last ladder entry bumped: the closure and the sum rule
    fail, and the wrap equation has two distinct middle entries."""
    last = len(sol.ladder) - 1
    return _with_ladder_entry(sol, last, sol.ladder[last].poly + Polynomial.one())


def _bumped(sol):
    """sol with its highest interior ladder entry bumped by 1 (the closure
    is unaffected)."""
    index = max(range(1, sol.period), key=lambda j: sol.ladder[j].poly.degree)
    return _with_ladder_entry(sol, index, sol.ladder[index].poly + Polynomial.one())


STRUCTURAL_CHAINS = {
    "odd": SAMPLE_CHAINS["odd"],
    "even": SAMPLE_CHAINS["even-22"],
    "odd-bumped": _bumped(SAMPLE_CHAINS["odd"]),
    "even-bumped": _bumped(SAMPLE_CHAINS["even-22"]),
    "odd-unclosed": _unclosed(SAMPLE_CHAINS["odd"]),
    "even-unclosed": _unclosed(SAMPLE_CHAINS["even-22"]),
}


@pytest.mark.parametrize("name", STRUCTURAL_CHAINS)
def test_verify_chain_builds_no_rational_function(name, monkeypatch):
    # every equation, held or failed, closed or not, is read off from one
    # polynomial identity: no rational-function fallback exists
    sol = STRUCTURAL_CHAINS[name]
    report = verify_chain(sol)
    assert report.ok == (name in ("odd", "even"))
    expected = report.to_json()

    def refuse(self, *args, **kwargs):
        raise AssertionError("verify_chain built a RationalFunction")

    monkeypatch.setattr(dresschain.exact.RationalFunction, "__init__", refuse)
    assert verify_chain(sol).to_json() == expected


@pytest.mark.parametrize("name", STRUCTURAL_CHAINS)
def test_verify_chain_makes_no_polynomial_product(name, monkeypatch):
    # the chains are built with real products; verifying them evaluates
    # every identity at one integer point and multiplies no polynomials
    sol = STRUCTURAL_CHAINS[name]
    expected = verify_chain(sol).to_json()

    def refuse(*args):
        raise AssertionError("verify_chain multiplied polynomials")

    monkeypatch.setattr(dresschain.exact, "_imul", refuse)
    monkeypatch.setattr(dresschain.exact.Polynomial, "__mul__", refuse)
    assert verify_chain(sol).to_json() == expected


def test_chain_layers_never_read_the_ladder_constant(monkeypatch):
    # every chain identity is homogeneous in each ladder entry: on cold
    # memos, building, verifying and the Painleve reductions read the
    # primitive polynomials; an entry neither applies its constant (`poly`)
    # nor evaluates its closed-form lead until output reads `poly`
    def run():
        out = []
        for build in SAMPLE_BUILDS.values():
            sol = build()
            to_painleve = pv_from_chain if sol.is_even else piv_from_chain
            out.append((sol, verify_chain(sol).to_json(), to_painleve(sol)))
        return out, potential_of(MayaDiagram((1, 2, 5)))

    expected = run()

    def refuse(*args):
        raise AssertionError("a chain layer read a ladder entry's constant")

    monkeypatch.setattr(PseudoWronskian, "poly", property(refuse))
    monkeypatch.setattr(dresschain.wronskian, "_laguerre_top", refuse)
    monkeypatch.setattr(dresschain.wronskian, "_vandermonde", refuse)
    clear_ladder_memos()
    assert run() == expected


def test_replaced_ladder_carries_its_labels_and_flips():
    # the labels and the flips are read off the ladder entries, so a ladder
    # taken from another flip order brings its own
    odd = CyclicStructure(k=3, okamoto=(1, 2))
    cell = (CyclicStructure(k=2, okamoto=(1,)), CyclicStructure(k=2, okamoto=(2,)))
    pairs = (
        [build_odd_chain(odd, perm=perm) for perm in (None, (2, 0, 1))],
        [build_even_chain(*cell, ALPHA, perm=perm) for perm in (None, (1, 0, 3, 2))],
    )
    for a, b in pairs:
        assert a.labels != b.labels and a.flips != b.flips
        mixed = dataclasses.replace(a, ladder=b.ladder)
        assert mixed.labels == b.labels and mixed.flips == b.flips


@pytest.mark.parametrize(
    "sol", [SAMPLE_CHAINS["odd"], SAMPLE_CHAINS["even-22"]], ids=["odd", "even"]
)
def test_unclosed_ladder_wrap_equation(sol):
    # equations away from the replaced last entry still hold; the two that
    # touch it, the wrap equation with its distinct middle entries among
    # them, report the oracle's value
    broken = _unclosed(sol)
    report = verify_chain(broken)
    p = sol.period
    assert not report.sum_rule and not report.ok
    assert all(eq.match for eq in report.equations[: p - 2])
    for i in (p - 1, p):
        eq = report.equations[i - 1]
        assert eq.value == _residual_rf(broken, i).constant_value()
        assert eq.residual_constant == (eq.value is not None)
    assert not report.equations[p - 1].match


def test_wrap_form_with_distinct_middle_entries(monkeypatch):
    # with the closure test forced off, the wrap equation of a ladder that
    # does close, up to z**e, goes through the form for two distinct middle
    # entries P_0 and z**e P_0 whenever e > 0 (e = 10 on the even-22 sample),
    # and still reads off eps on every even cell; only the sum rule fails
    monkeypatch.setattr(dresschain.chain, "_closure", lambda sol: None)
    cells = list(even_cells())
    assert len(cells) == 145
    for cs1, cs2, perm, _ in cells:
        sol = build_even_chain(cs1, cs2, ALPHA, perm=perm)
        report = verify_chain(sol)
        assert [eq.value for eq in report.equations] == list(sol.expected_eps), (cs1, cs2)
        assert all(eq.match for eq in report.equations) and not report.sum_rule


@pytest.mark.parametrize("sol", SAMPLE_CHAINS.values(), ids=SAMPLE_CHAINS.keys())
def test_corrupted_ladder_entry_fails(sol):
    # constant entries are exempt: constants cancel in log-derivatives
    assert verify_chain(sol).ok
    mutated = 0
    for index, pw in enumerate(sol.ladder):
        if pw.poly.degree < 1:
            continue
        for power in (0, pw.poly.degree):
            bumped = pw.poly + Polynomial.monomial(power)
            assert not verify_chain(_with_ladder_entry(sol, index, bumped)).ok
            mutated += 1
    assert mutated >= 4


def test_read_off_constant_confirmed_by_repacking(monkeypatch):
    # with every expected eps set to 0, the chain's K covers the left
    # sides only; confirming the true eps needs a larger K', so the entries
    # of those equations are packed again, and the oracle's value comes out
    sol = SAMPLE_CHAINS["even-22"]
    p = sol.period
    ks = []
    jet = dresschain.chain.jet

    def recorder(coeffs, k):
        ks.append(k)
        return jet(coeffs, k)

    monkeypatch.setattr(dresschain.chain, "jet", recorder)
    zero = dataclasses.replace(sol, expected_eps=(F(0),) * p)
    report = verify_chain(zero)
    # p + 1 norms at k = 0, p + 1 packings at the chain's K, then repacks
    K = ks[p + 1]
    assert ks[: 2 * (p + 1)] == [0] * (p + 1) + [K] * (p + 1)
    assert ks[2 * (p + 1):] and min(ks[2 * (p + 1):]) > K
    for i, eq in enumerate(report.equations, 1):
        assert eq.value == _residual_rf(zero, i).constant_value()
        assert eq.value == sol.expected_eps[i - 1]
        assert eq.residual_constant and not eq.match


def test_read_off_candidate_refuted_by_repacking():
    # unit ladder entries, h = 1, v_a = 2 - z and v_b = -2: the residual is
    # 5 - z, so L = 5z - z**2 and R = z.  At the chain's z = 2**3 it reads
    # -3, within the heights a constant could have (|L|_1 = 6, |R|_1 = 1);
    # only the confirmation at z = 2**4 shows that it is not a constant.
    # The gauges are (lin, 2 q inv) with q = 1
    chain = dresschain.chain
    coeffs = [(1,)] * 3
    eq = chain._equation((0, 1, 1, 2), True, 1, 2, (-1, 4), (0, -4), F(0))
    assert (eq.d0, eq.lines) == (1, ((0, -1), (-3, 1)))
    bounds = eq.bounds([chain.jet((1,), 0)] * 3)
    assert bounds == (6, 1) and chain._bits(F(0), bounds, 1) == 3
    jets = [chain.jet(cs, 3) for cs in coeffs]
    assert chain._sides(eq, jets, lambda v: v << 3, operator.sub) == (-24, 8)
    assert chain._check_equation(eq, coeffs, jets, 3, bounds, 1) is None


def _parity_definite(poly):
    """poly(-z) = +-poly(z), by composition: no coefficient slices."""
    return poly.compose(-X) in (poly, -poly)


def _l1(poly):
    return sum(abs(c) for c in poly.coeffs)


# degree <= 30, every coefficient +-2**b with b <= 64
adversarial_polys = st.lists(
    st.builds(lambda s, b: s * 2 ** b, st.sampled_from((1, -1)), st.integers(0, 64)),
    min_size=1,
    max_size=31,
).map(Polynomial)
# (lin, 2 q inv) as chain._gauge gives them, with 2 q <= 24
gauge_ints = st.tuples(st.integers(-50, 50), st.integers(-1200, 1200))


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(*[adversarial_polys] * 4).filter(lambda polys: polys[1] != polys[2]),
    st.integers(0, 1),
    st.integers(1, 12),
    st.tuples(gauge_ints, gauge_ints),
    st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 4),
    st.booleans(),
)
def test_evaluation_bound_covers_every_coefficient(polys, h, q, gauges, eps, odd):
    # both forms (Pa == Pb, and the distinct pair): 2**(stride K) exceeds
    # the l1 norms of diff = den(eps) L - num(eps) R and of R, so diff is 0
    # exactly when diff(2**K) is; and the packed sides are L and R at 2**K.
    # L and R are chain._sides itself, at the polynomial variable z.
    # An odd ladder (h = 0, inv = 0) of parity-definite entries has stride
    # 2: there diff and R are parity-definite, of one parity
    chain = dresschain.chain
    if odd:
        # every other coefficient from the top dropped; no 1/z part
        polys = tuple(
            Polynomial(c if (P.degree - i) % 2 == 0 else 0 for i, c in enumerate(P.coeffs))
            for P in polys
        )
        h, q, gauges = 0, 1, tuple((lin, 0) for lin, _ in gauges)
        if polys[1] == polys[2]:
            return
    coeffs = [P.int_coeffs for P in polys]
    den = 2 * q
    norms = [chain.jet([abs(c) for c in cs], 0) for cs in coeffs]
    poly_jets = [(P, P.derivative(), P.derivative().derivative()) for P in polys]
    for entries in ((0, 1, 1, 3), (0, 1, 2, 3)):
        same = entries[1] == entries[2]
        eq = chain._equation(entries, same, h, den, *gauges, eps)
        stride = chain._stride([eq], coeffs)
        if odd:
            assert stride == 2
        else:
            assert stride == 1 or all(map(_parity_definite, polys))
        bounds = eq.bounds(norms)
        K = chain._bits(eps, bounds, stride)
        L, R = chain._sides(eq, poly_jets, lambda v: X * v, operator.sub)
        diff = L * eps.denominator - R * eps.numerator
        assert max(_l1(diff), _l1(R)) < 2 ** (stride * K)
        if stride == 2:
            assert _parity_definite(diff) and _parity_definite(R)
            assert (diff.degree - R.degree) % 2 == 0 or diff.is_zero
        jets = [chain.jet(cs, K) for cs in coeffs]
        assert chain._sides(eq, jets, lambda v: v << K, operator.sub) == (
            L.eval_at(2 ** K), R.eval_at(2 ** K))


def test_evaluation_bound_must_be_strict():
    # 2**K - z is not zero, but it vanishes at z = 2**K: its coefficient
    # 2**K reaches the evaluation point.  An l1 bound of 2**K therefore
    # asks for K + 1, where the value no longer vanishes
    K = 40
    assert dresschain.chain.jet([2 ** K, -1], K)[0] == 0
    assert dresschain.chain._bits(F(0), (2 ** K, 1), 1) == K + 1
    assert dresschain.chain.jet([2 ** K, -1], K + 1)[0] != 0


def _chains_for_fast_check_oracle():
    """(chain, bump) pairs: the odd p, k <= 3 box under every flip order,
    and the criterion-6 period-4 cells at alpha 1/3.  A bumped chain's
    residuals cost seconds of gcds each under some flip orders, so odd
    chains are bumped in their default order only."""
    for p, k in ((1, 1), (3, 1), (3, 3)):
        for cs in enumerate_structures(p, k, 3):
            for perm in itertools.permutations(range(p)):
                sol = build_odd_chain(cs, perm=perm, allow_degenerate=True)
                yield sol, perm == tuple(range(p))
    for cs1, cs2, perm in PERIOD4_CELLS:
        yield build_even_chain(cs1, cs2, ALPHA, perm=perm), True


def test_parity_generic_check_agrees_with_residual_oracle(monkeypatch):
    # every constant the fast check reads off (None: not a constant) equals
    # the slow residual's, on correct chains and on chains with their
    # highest interior ladder entry bumped (the closure is unaffected);
    # with one expected eps raised by 1, that equation fails and reports
    # the true eps
    values, strides = [], []
    check = dresschain.chain._check_equation

    def recorder(*args):
        # the chain's one K covers the bound of every equation, at the
        # stride its parity proves: half the bits only on an odd ladder of
        # parity-definite entries
        eq, _, _, k, (lb, rb), stride = args
        e = eq.expected
        assert stride == strides[-1]
        assert 2 ** (stride * k) > max(e.denominator * lb + abs(e.numerator) * rb, rb)
        values.append(check(*args))
        return values[-1]

    monkeypatch.setattr(dresschain.chain, "_check_equation", recorder)
    parities, failures, unread = set(), 0, 0
    for sol, bump in _chains_for_fast_check_oracle():
        variants = [sol, _bumped(sol)] if bump and sol.period > 1 else [sol]
        for chain in variants:
            values.clear()
            strides.append(_proven_stride(chain))
            report = verify_chain(chain)
            assert len(values) == chain.period
            for i, (value, eq) in enumerate(zip(values, report.equations), 1):
                assert value == _residual_rf(chain, i).constant_value(), (
                    chain.labels, i)
                assert eq.value == value and eq.match == (value == eq.expected)
                failures += not eq.match
                unread += value is None
            parities.add(chain.is_even)
        strides.append(_proven_stride(sol))
        for i, true_eps in enumerate(sol.expected_eps):
            eps = sol.expected_eps[:i] + (true_eps + 1,) + sol.expected_eps[i + 1:]
            values.clear()
            eq = verify_chain(dataclasses.replace(sol, expected_eps=eps)).equations[i]
            assert values[i] == true_eps
            assert eq.residual_constant and eq.value == true_eps and not eq.match
    assert parities == {0, 1} and failures > 0 and unread > 0
    assert set(strides) == {1, 2}


def _criterion_4_chains():
    """Every criterion-4 odd chain: the p <= 5 grid at bound 3, degenerate
    layouts included, and the period-5 table rows."""
    odd = [build_odd_chain(cs, allow_degenerate=True) for cs in _odd_parameter_grid(3)]
    return odd + [build() for _, build, _ in _odd_table_rows()]


def _proven_stride(sol):
    """2 for an odd ladder of parity-definite entries, else 1."""
    odd = not sol.is_even and all(_parity_definite(pw.prim) for pw in sol.ladder)
    return 2 if odd else 1


def _chain_ks(sol, monkeypatch):
    """(K that verify_chain packs sol at, the full K of stride 1)."""
    chain = dresschain.chain
    check = chain._check_equation
    seen = []

    def recorder(eq, coeffs, jets, k, bounds, stride):
        seen.append((k, chain._bits(eq.expected, bounds, 1)))
        return check(eq, coeffs, jets, k, bounds, stride)

    monkeypatch.setattr(chain, "_check_equation", recorder)
    try:
        verify_chain(sol)
    finally:
        monkeypatch.undo()
    assert len({k for k, _ in seen}) == 1
    return seen[0][0], max(full for _, full in seen)


def test_odd_chains_are_packed_at_half_the_bits(monkeypatch):
    # every criterion-4 odd chain is an odd ladder of Hermite Wronskians,
    # each parity-definite: its K is ceil(full / 2).  Even chains, and an
    # odd chain with an odd-degree entry bumped to mixed parity, keep the
    # full K
    odd = _criterion_4_chains()
    assert len(odd) > 400
    for sol in odd:
        assert _proven_stride(sol) == 2
        k, full = _chain_ks(sol, monkeypatch)
        assert k == -(-full // 2), sol.labels
    # ladder degrees 2, 0, 1, 2: the bumped entry, of degree 1, becomes
    # z + 1 up to a constant
    mixed = _bumped(build_odd_chain(CyclicStructure(k=1, second_type=((1, 2),))))
    assert any(not _parity_definite(pw.prim) for pw in mixed.ladder)
    evens = [build_even_chain(cs1, cs2, ALPHA, perm=perm) for cs1, cs2, perm in PERIOD4_CELLS]
    for sol in [mixed] + evens:
        k, full = _chain_ks(sol, monkeypatch)
        assert k == full


def test_mixed_parity_ladder_keeps_the_full_bits(monkeypatch):
    # entry 2 of a period-3 odd ladder, z, replaced by (z - 1)(z - 2): no
    # residual is a constant, as the oracle says.  Packed at the half-bit
    # point 2**5 instead of 2**9, equation 1 would read off the constant
    # 1/5, which is why mixed parity keeps the full K
    sol = build_odd_chain(CyclicStructure(k=1, second_type=((1, 2),)))
    mixed = _with_ladder_entry(sol, 2, Polynomial((2, -3, 1)))
    values = [eq.value for eq in verify_chain(mixed).equations]
    assert values == [_residual_rf(mixed, i).constant_value() for i in (1, 2, 3)]
    assert values == [None] * 3
    monkeypatch.setattr(dresschain.chain, "_stride", lambda equations, coeffs: 2)
    assert verify_chain(mixed).equations[0].value == F(1, 5)


def test_odd_ladders_match_raw_determinants():
    # every state of every flip order in the p, k <= 3 box; Polynomial
    # equality is on exact coefficients, so content and sign are covered
    for p, k in ((1, 1), (3, 1), (3, 3)):
        for cs in enumerate_structures(p, k, 3):
            for perm in itertools.permutations(range(p)):
                sol = build_odd_chain(cs, perm=perm, allow_degenerate=True)
                dets = [_hermite_matrix_det(d.entries) for d in sol.labels]
                assert [pw.poly for pw in sol.ladder] == dets
                raw = [_as_entry(pw, det) for pw, det in zip(sol.ladder, dets)]
                rebuilt = dataclasses.replace(sol, ladder=tuple(raw))
                assert verify_chain(rebuilt).to_json() == verify_chain(sol).to_json()


def test_labels_index_the_ladder_and_replay_their_flips():
    # labels[i] is the diagram or character of ladder[i], on every
    # criterion-4 chain and every criterion-6 cell; the flips read off the
    # labels replay labels[0] into each of them, also where a degenerate
    # layout flips one level twice, and each component's signs count its
    # translation k
    odd = _criterion_4_chains()
    even = [
        (build_even_chain(cs1, cs2, AlphaParam(a), perm=perm), AlphaParam(a))
        for cs1, cs2, perm, _ in even_cells() for a in ALPHA_TRIPLE
    ]
    twice = 0
    for sol, alpha in [(sol, None) for sol in odd] + even:
        assert len(sol.labels) == len(sol.flips) + 1 == sol.period + 1
        if alpha is None:
            assert list(sol.ladder) == [hermite_wronskian(d) for d in sol.labels]
            state, replay = sol.labels[0], [sol.labels[0]]
            for f in sol.flips:
                state = flip_at(state, f.level)
                replay.append(state)
        else:
            assert list(sol.ladder) == [
                laguerre_pseudo_wronskian(uc, alpha) for uc in sol.labels
            ]
            state = (sol.labels[0].first, sol.labels[0].second)
            replay = [sol.labels[0]]
            for f in sol.flips:
                state = apply_uc_flip(state, f)
                replay.append(UniversalCharacter(*state))
        assert replay == list(sol.labels)
        k = sol.delta / (2 * OMEGA if sol.is_even else OMEGA)
        for slot in {f.slot for f in sol.flips}:
            assert sum(-f.sign for f in sol.flips if f.slot == slot) == k
        keys = [(f.level, f.slot) for f in sol.flips]
        twice += len(set(keys)) < len(keys)
    assert len(odd) > 500 and len(even) == 3 * 145 and twice > 0


ODD_BOXES = [
    (p, k, bound) for p in (1, 3, 5) for k in range(1, p + 1, 2) for bound in (1, 2, 3)
]
structures_of = lru_cache(maxsize=None)(enumerate_structures)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_random_odd_chains_verify_against_raw_ladders(data):
    p, k, bound = data.draw(st.sampled_from(ODD_BOXES))
    cs = data.draw(st.sampled_from(structures_of(p, k, bound)))
    perm = data.draw(st.permutations(range(p)))
    sol = build_odd_chain(cs, perm=perm, allow_degenerate=True)
    assert verify_chain(sol).ok
    assert [pw.poly for pw in sol.ladder] == [_hermite_matrix_det(d.entries) for d in sol.labels]


def _check_even_ladders_against_raw(alphas):
    """Build every period-4 cell in every flip order and compare each
    ladder entry with its matrix eliminated in full; return how many
    entries were translated characters."""
    translated = 0
    for alpha in alphas:
        for cs1, cs2, _ in PERIOD4_CELLS:
            for perm in itertools.permutations(range(4)):
                sol = build_even_chain(cs1, cs2, alpha, perm=perm)
                dets = [_laguerre_matrix_det(uc, alpha.value) for uc in sol.labels]
                assert len(dets) == len(sol.ladder) == 5
                assert [pw.poly for pw in sol.ladder] == dets
                raw = [_as_entry(pw, det) for pw, det in zip(sol.ladder, dets)]
                translated += sum(
                    bool(_untranslate(uc.first.entries)[0] or _untranslate(uc.second.entries)[0])
                    for uc in sol.labels
                )
                rebuilt = dataclasses.replace(sol, ladder=tuple(raw))
                assert verify_chain(rebuilt).to_json() == verify_chain(sol).to_json()
    return translated


def test_even_ladders_match_raw_determinants():
    alphas = (AlphaParam(F(1, 3)), AlphaParam(F(-2, 5)))
    assert _check_even_ladders_against_raw(alphas) > 0


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(EVEN_CELLS).flatmap(
        lambda cells: st.tuples(
            st.just(cells), st.permutations(range(cells[0].p + cells[1].p))
        )
    ),
    # n + r/q with 0 < r < q <= 12: never an integer
    st.integers(2, 12).flatmap(
        lambda q: st.builds(
            lambda n, r: F(n * q + r, q), st.integers(-5, 4), st.integers(1, q - 1)
        )
    ),
)
def test_random_even_chains_verify_against_raw_ladders(cell, alpha):
    (cs1, cs2), perm = cell
    sol = build_even_chain(cs1, cs2, AlphaParam(alpha), perm=perm)
    assert verify_chain(sol).ok
    assert [pw.poly for pw in sol.ladder] == [
        _laguerre_matrix_det(uc, alpha) for uc in sol.labels
    ]


def test_report_json_schema():
    sol = build_even_chain(CyclicStructure(k=1), CyclicStructure(k=1), ALPHA)
    data = verify_chain(sol).to_json()
    assert set(data) == {"period", "delta", "equations", "sum_rule"}
    assert data["delta"] == "4/1"
    assert all(
        set(eq) == {"residual_constant", "value", "expected", "match"}
        for eq in data["equations"]
    )
    assert data["sum_rule"] is True


def test_potential_of_examples():
    x_sq = Polynomial((0, 0, 1))
    assert potential_of(EMPTY).rational.is_zero
    assert potential_of(MayaDiagram((1,))).rational == RationalFunction(
        Polynomial.constant(2), x_sq
    )
    for m in (1, 2, 3, 4):
        staircase = MayaDiagram(tuple(range(1, 2 * m, 2)))
        parts = potential_of(staircase)
        assert parts.rational == RationalFunction(
            Polynomial.constant(m * (m + 1)), x_sq
        )
    parts = potential_of(MayaDiagram((1, 3)))
    assert parts.rational == RationalFunction(Polynomial.constant(6), x_sq)
    # omega**2 / 4 and m omega - omega / 2 at m = 2
    assert parts.harmonic_coeff == OMEGA * OMEGA / 4 == 1
    assert parts.constant == 2 * OMEGA - OMEGA / 2 == 3


def test_gauge_invariants():
    # odd components carry no 1/x part and lin = -+omega/2; even ones live
    # in z = x**2 (h = 1)
    sol = build_odd_chain(CyclicStructure(k=1, second_type=((1, 2),)))
    assert not sol.is_even
    for prev, cur in zip(sol.ladder, sol.ladder[1:]):
        lin, inv = _gauge(prev, cur)
        assert inv == 0 and lin in (F(1), F(-1))
    sol = build_even_chain(CyclicStructure(k=1), CyclicStructure(k=1), ALPHA)
    assert sol.is_even


def _span_oracle(sol, i, j):
    """span(i, j) from the gauge and the reduced log-derivative of the two
    end entries' primitive polynomials."""
    lin, inv = _gauge(sol.ladder[i], sol.ladder[j])
    inv = F(inv, 2 * sol.ladder[j].gauge_den)
    h = int(sol.is_even)
    log_ratio = log_derivative_ratio(sol.ladder[i].prim, sol.ladder[j].prim)
    return RationalFunction(Polynomial((inv, lin))) + (1 + h) * (
        log_ratio * Polynomial.monomial(h)
    )


@pytest.mark.parametrize("sol", SAMPLE_CHAINS.values(), ids=SAMPLE_CHAINS.keys())
def test_replaced_ladder_carries_its_own_terms(sol):
    # the components are derived from the ladder, so replacing the ladder
    # replaces the two spans that touch the bumped entry, and no gauge data
    bumped = sol.ladder[2].poly + Polynomial.one()
    new = _with_ladder_entry(sol, 2, bumped)
    assert new.ladder[2].prim == bumped.primitive() != sol.ladder[2].prim
    for i in (1, 2):
        assert new.span(i, i + 1) == _span_oracle(new, i, i + 1)
        assert new.span(i, i + 1) != sol.span(i, i + 1)
    for i in range(sol.period):
        if i not in (1, 2):
            assert new.span(i, i + 1) == sol.span(i, i + 1)
    pairs = list(itertools.combinations(range(sol.period + 1), 2))
    assert [_gauge(new.ladder[i], new.ladder[j]) for i, j in pairs] == [
        _gauge(sol.ladder[i], sol.ladder[j]) for i, j in pairs
    ]


TELESCOPE_CHAINS = dict(
    SAMPLE_CHAINS,
    **{name + "-bumped": _bumped(sol) for name, sol in SAMPLE_CHAINS.items()},
    **{name + "-unclosed": _unclosed(sol) for name, sol in SAMPLE_CHAINS.items()},
)


@pytest.mark.parametrize("name", TELESCOPE_CHAINS)
def test_span_telescopes(name):
    # one normalisation of the two end entries equals the RationalFunction
    # sum of the one-step spans in between, for every i < j
    sol = TELESCOPE_CHAINS[name]
    steps = [sol.span(k, k + 1) for k in range(sol.period)]
    for k, step in enumerate(steps):
        assert step == _span_oracle(sol, k, k + 1)
    for i, j in itertools.combinations(range(sol.period + 1), 2):
        assert sol.span(i, j) == sum(steps[i + 1:j], steps[i]), (i, j)
