import dataclasses
import itertools
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dresschain.chain
import dresschain.wronskian
from dresschain.chain import (
    DEFAULT_ALPHA_SAMPLES,
    VAR_X,
    VAR_X2,
    OddPeriodRequired,
    UnsupportedOmega,
    _terms_from_ladder,
    alpha_sampled_verify,
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
    build_diagram,
    enumerate_structures,
    static_flip_chain,
    uc_flip_chain,
)
from dresschain.orthopoly import AlphaParam
from dresschain.wronskian import (
    _hermite_matrix_det,
    _laguerre_matrix_det,
    _untranslate,
    laguerre_pseudo_wronskian,
)

from oracles import _residual_rf

EMPTY = MayaDiagram(())
X = Polynomial.x()
ALPHA = AlphaParam(F(1, 3))


def test_one_step_chain():
    sol = build_odd_chain(CyclicStructure(k=1))
    assert sol.period == 1 and sol.delta == 2
    assert sol.terms[0].rational_part() == RationalFunction(X)
    report = verify_chain(sol)
    assert report.ok
    assert report.equations[0].value == -2  # eps_11 minus the shift


def test_two_step_chain_closed_form():
    sol = build_even_chain(CyclicStructure(k=1), CyclicStructure(k=1), ALPHA)
    a = ALPHA.value
    assert sol.delta == 4
    assert sol.expected_eps == (4 * a, -4 * a - 4)
    v1 = sol.terms[0].rational_part()
    v2 = sol.terms[1].rational_part()
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
    for term, flip in zip(sol.terms, sol.chain_labels.flips):
        assert term.lin == -flip.sign * sol.omega / 2


def test_degenerate_structure_refused_then_allowed():
    cs = CyclicStructure(k=3, okamoto=(1, 1), second_type=((4, 1),))
    with pytest.raises(DegenerateStructure):
        build_odd_chain(cs)
    sol = build_odd_chain(cs, allow_degenerate=True)
    assert sol.period == 5
    assert verify_chain(sol).ok
    # the colliding level-4 flips carry opposite dynamic signs
    signs = [f.sign for f in sol.chain_labels.flips if f.level == 4]
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
    with pytest.raises(UnsupportedOmega):
        build_even_chain(
            CyclicStructure(k=1), CyclicStructure(k=1), ALPHA, omega=F(3)
        )
    with pytest.raises(OddPeriodRequired):
        build_odd_chain(CyclicStructure(k=2, okamoto=(1,)))
    with pytest.raises(UnsupportedOmega):
        build_odd_chain(CyclicStructure(k=1), omega=F(1))


def test_broken_chain_reports_not_ok():
    sol = build_odd_chain(CyclicStructure(k=1, second_type=((1, 2),)))
    wrong = sol.expected_eps[:1] + (sol.expected_eps[1] + 1,) + sol.expected_eps[2:]
    tampered = type(sol)(
        period=sol.period,
        delta=sol.delta,
        omega=sol.omega,
        terms=sol.terms,
        expected_eps=wrong,
        ladder=sol.ladder,
        chain_labels=sol.chain_labels,
    )
    report = verify_chain(tampered)
    assert not report.ok
    eq = report.equations[1]
    assert eq.residual_constant and eq.value == sol.expected_eps[1] and not eq.match


def test_broken_ladder_fails_sum_rule():
    sol = build_odd_chain(CyclicStructure(k=1, second_type=((1, 2),)))
    bad_last = sol.ladder[:-1] + (sol.ladder[1],)  # closure degree mismatch
    tampered = type(sol)(
        period=sol.period,
        delta=sol.delta,
        omega=sol.omega,
        terms=sol.terms,
        expected_eps=sol.expected_eps,
        ladder=bad_last,
        chain_labels=sol.chain_labels,
    )
    report = verify_chain(tampered)
    assert not report.sum_rule and not report.ok


def _with_ladder_entry(sol, index, poly):
    ladder = list(sol.ladder)
    ladder[index] = dataclasses.replace(ladder[index], poly=poly)
    terms = _terms_from_ladder(ladder, sol.omega, sol.terms[0].variable_map)
    return dataclasses.replace(sol, ladder=tuple(ladder), terms=tuple(terms))


SAMPLE_CHAINS = {
    "odd": build_odd_chain(CyclicStructure(k=3, okamoto=(1, 2)), perm=(2, 0, 1)),
    "even-31": build_even_chain(
        CyclicStructure(k=1, second_type=((1, 1),)),
        CyclicStructure(k=1),
        ALPHA,
        perm=(1, 2, 0, 3),
    ),
    "even-22": build_even_chain(
        CyclicStructure(k=2, okamoto=(1,)),
        CyclicStructure(k=2, okamoto=(2,)),
        ALPHA,
        perm=(1, 0, 3, 2),
    ),
}


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
    # does close, up to z**e with e = 10, goes through the form for two
    # distinct middle entries P_0 and z**e P_0 and still reads off eps;
    # only the sum rule fails
    sol = SAMPLE_CHAINS["even-22"]
    monkeypatch.setattr(dresschain.chain, "_closure_holds", lambda sol: False)
    report = verify_chain(sol)
    assert [eq.value for eq in report.equations] == list(sol.expected_eps)
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


def _chains_for_fast_check_oracle():
    """(chain, bump) pairs: the odd p, k <= 3 box under every flip order,
    and the criterion-6 (3,1) and (2,2) cells at alpha 1/3.  A bumped
    chain's residuals cost seconds of gcds each under some flip orders, so
    odd chains are bumped in their default order only."""
    for p, k in ((1, 1), (3, 1), (3, 3)):
        for cs in enumerate_structures(p, k, 3):
            for perm in itertools.permutations(range(p)):
                sol = build_odd_chain(cs, perm=perm, allow_degenerate=True)
                yield sol, perm == tuple(range(p))
    for lam, mu in itertools.product((1, 2), repeat=2):
        cs1 = CyclicStructure(k=1, second_type=((lam, mu),))
        sol = build_even_chain(cs1, CyclicStructure(k=1), ALPHA, perm=(1, 2, 0, 3))
        yield sol, True
    for a1, b1 in itertools.product((0, 1, 2), repeat=2):
        sol = build_even_chain(
            CyclicStructure(k=2, okamoto=(a1,)),
            CyclicStructure(k=2, okamoto=(b1,)),
            ALPHA,
            perm=(1, 0, 3, 2),
        )
        yield sol, True


def test_parity_generic_check_agrees_with_residual_oracle(monkeypatch):
    # every constant the fast check reads off (None: not a constant) equals
    # the slow residual's, on correct chains and on chains with their
    # highest interior ladder entry bumped (the closure is unaffected);
    # with one expected eps raised by 1, that equation fails and reports
    # the true eps
    values = []
    check = dresschain.chain._check_equation

    def recorder(*args):
        values.append(check(*args))
        return values[-1]

    monkeypatch.setattr(dresschain.chain, "_check_equation", recorder)
    parities, failures, unread = set(), 0, 0
    for sol, bump in _chains_for_fast_check_oracle():
        variants = [sol, _bumped(sol)] if bump and sol.period > 1 else [sol]
        for chain in variants:
            values.clear()
            report = verify_chain(chain)
            assert len(values) == chain.period
            for i, (value, eq) in enumerate(zip(values, report.equations), 1):
                assert value == _residual_rf(chain, i).constant_value(), (
                    chain.chain_labels, i)
                assert eq.value == value and eq.match == (value == eq.expected)
                failures += not eq.match
                unread += value is None
            parities.add(chain.terms[0].h)
        for i, true_eps in enumerate(sol.expected_eps):
            eps = sol.expected_eps[:i] + (true_eps + 1,) + sol.expected_eps[i + 1:]
            values.clear()
            eq = verify_chain(dataclasses.replace(sol, expected_eps=eps)).equations[i]
            assert values[i] == true_eps
            assert eq.residual_constant and eq.value == true_eps and not eq.match
    assert parities == {0, 1} and failures > 0 and unread > 0


def test_odd_ladders_match_raw_determinants():
    # every state of every flip order in the p, k <= 3 box; Polynomial
    # equality is on exact coefficients, so content and sign are covered
    for p, k in ((1, 1), (3, 1), (3, 3)):
        for cs in enumerate_structures(p, k, 3):
            start, _ = build_diagram(cs)
            for perm in itertools.permutations(range(p)):
                sol = build_odd_chain(cs, perm=perm, allow_degenerate=True)
                states = static_flip_chain(cs).permuted(perm).states(start)
                raw = [
                    dataclasses.replace(pw, poly=_hermite_matrix_det(s.entries))
                    for pw, s in zip(sol.ladder, states)
                ]
                assert [pw.poly for pw in sol.ladder] == [pw.poly for pw in raw]
                rebuilt = dataclasses.replace(
                    sol,
                    ladder=tuple(raw),
                    terms=tuple(_terms_from_ladder(raw, sol.omega, VAR_X)),
                )
                assert verify_chain(rebuilt).to_json() == verify_chain(sol).to_json()


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
    states = static_flip_chain(cs).permuted(perm).states(build_diagram(cs)[0])
    assert [pw.poly for pw in sol.ladder] == [_hermite_matrix_det(s.entries) for s in states]


def _period4_even_cells():
    # the criterion-6 cells of splits (3,1) and (2,2)
    for lam, mu in itertools.product((1, 2), repeat=2):
        yield CyclicStructure(k=1, second_type=((lam, mu),)), CyclicStructure(k=1)
    for a1, b1 in itertools.product((0, 1, 2), repeat=2):
        yield CyclicStructure(k=2, okamoto=(a1,)), CyclicStructure(k=2, okamoto=(b1,))


def _check_even_ladders_against_raw(alphas):
    """Build every period-4 cell in every flip order and compare each
    ladder entry with its matrix eliminated in full; return how many
    entries were translated characters."""
    translated = 0
    for alpha in alphas:
        for cs1, cs2 in _period4_even_cells():
            uc, _ = uc_flip_chain(cs1, cs2)
            for perm in itertools.permutations(range(4)):
                sol = build_even_chain(cs1, cs2, alpha, perm=perm)
                state = (uc.first, uc.second)
                states = [state]
                for f in sol.chain_labels.flips:
                    state = apply_uc_flip(state, f)
                    states.append(state)
                raw = [
                    dataclasses.replace(
                        pw, poly=_laguerre_matrix_det(UniversalCharacter(*s), alpha.value)
                    )
                    for pw, s in zip(sol.ladder, states)
                ]
                assert len(raw) == len(sol.ladder) == 5
                assert [pw.poly for pw in sol.ladder] == [pw.poly for pw in raw]
                translated += sum(
                    bool(_untranslate(n.entries)[0] or _untranslate(l.entries)[0])
                    for n, l in states
                )
                rebuilt = dataclasses.replace(
                    sol,
                    ladder=tuple(raw),
                    terms=tuple(_terms_from_ladder(raw, sol.omega, VAR_X2)),
                )
                assert verify_chain(rebuilt).to_json() == verify_chain(sol).to_json()
    return translated


def test_even_ladders_match_raw_determinants():
    alphas = (AlphaParam(F(1, 3)), AlphaParam(F(-2, 5)))
    assert _check_even_ladders_against_raw(alphas) > 0


def test_even_ladders_with_vanishing_top_coefficient(monkeypatch):
    # the top coefficient never vanishes on these cells, so force it to:
    # every translated entry must then be eliminated directly
    calls = []

    def vanishing(uc, a):
        calls.append(uc)
        return F(0)

    monkeypatch.setattr(dresschain.wronskian, "_top_coefficient", vanishing)
    laguerre_pseudo_wronskian.cache_clear()
    try:
        translated = _check_even_ladders_against_raw((AlphaParam(F(-2, 5)),))
    finally:
        laguerre_pseudo_wronskian.cache_clear()
    assert translated > 0 and calls


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
    parts = potential_of(MayaDiagram((1, 3)), omega=F(4))
    assert parts.rational == RationalFunction(Polynomial.constant(6), x_sq)
    assert parts.harmonic_coeff == 4 and parts.constant == 6


def test_alpha_sampled_verify():
    report = alpha_sampled_verify(
        CyclicStructure(k=1, second_type=((1, 1),)),
        CyclicStructure(k=1),
        perm=(1, 2, 0, 3),
    )
    assert report.ok and len(report.reports) == 5
    assert report.samples == DEFAULT_ALPHA_SAMPLES
    with pytest.raises(ValueError):
        alpha_sampled_verify(
            CyclicStructure(k=1),
            CyclicStructure(k=1),
            samples=[ALPHA, AlphaParam(F(1, 3))],
        )


def test_wterm_invariants():
    sol = build_odd_chain(CyclicStructure(k=1, second_type=((1, 2),)))
    for term in sol.terms:
        assert term.inv == 0 and term.variable_map == "x"
        assert term.lin in (F(1), F(-1))
    sol = build_even_chain(CyclicStructure(k=1), CyclicStructure(k=1), ALPHA)
    assert [t.variable_map for t in sol.terms] == ["x2", "x2"]
