import dataclasses
import itertools
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
    _closure,
    _gauge,
    build_even_chain,
    build_odd_chain,
    potential_of,
    verify_chain,
)
from dresschain.exact import (BOUND, VARIABLE, Point, Polynomial, RationalFunction,
                              ZeroPolynomial, vanishes)
from dresschain.maya import (
    AmplitudeMismatch,
    CyclicStructure,
    DegenerateStructure,
    DiagramTooLarge,
    MayaDiagram,
    apply_uc_flip,
    build_diagram,
    enumerate_structures,
    flip_at,
    static_flip_chain,
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

from oracles import Quotient, _residual_rf, clear_ladder_memos, log_derivative_ratio, residual_at

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


def test_degree_budget_refuses_before_any_determinant(monkeypatch):
    # the entry functions check each canonical label's weight and kernel
    # steps s (s + 1) / 2 against DIAGRAM_BUDGET before their kernel call:
    # a ladder whose first label is over it calls no kernel, and the
    # deepest labels in use reach it with their seed count, an odd one
    # through its smaller conjugate
    class Reached(Exception):
        pass

    def reached(p, q, seeds):
        raise Reached(len(seeds))

    def okamoto(k, *lengths):
        return CyclicStructure(k=k, okamoto=lengths)

    def free(*blocks):
        return CyclicStructure(k=1, second_type=blocks)

    empty = CyclicStructure(k=1)
    admitted = [
        (build_odd_chain, (okamoto(3, 25, 25),), 25),
        (build_odd_chain, (okamoto(5, 15, 15, 15, 15),), 15),
        (build_odd_chain, (free((200, 1)),), 1),
        (build_odd_chain, (free((800, 1)),), 1),
        (build_odd_chain, (free((1, 300)),), 1),
        (build_even_chain, (free((1, 39)), empty, ALPHA), 39),
    ]
    refused = [
        (build_odd_chain, (free((1000, 1)),)),
        (build_odd_chain, (free((801, 1)),)),
        (build_odd_chain, (free((1, 399), (799, 1)),)),
        (build_even_chain, (free((1, 40)), empty, ALPHA)),
        (build_even_chain, (free((1, 250)), empty, ALPHA)),
        (build_even_chain, (free((801, 1)), empty, ALPHA)),
        (build_even_chain, (empty, free((801, 1)), ALPHA)),
        (build_even_chain, (free((400, 1)), free((401, 1)), ALPHA)),
    ]
    assert [build_diagram(args[0])[0].weight for _, args, _ in admitted] == [
        650, 480, 200, 800, 300, 39]
    clear_ladder_memos()
    monkeypatch.setattr(dresschain.wronskian, "_laguerre_kernel", reached)
    for build, args, seeds in admitted:
        with pytest.raises(Reached) as exc:
            build(*args)
        assert exc.value.args == (seeds,), args
    for build, args in refused:
        with pytest.raises(DiagramTooLarge):
            build(*args)
    # a ladder is refused at its first label over the budget: (800) takes
    # one kernel call, and (800, 801) of weight 1600 none
    monkeypatch.undo()
    calls = []
    kernel = dresschain.wronskian._laguerre_kernel

    def recorded(p, q, seeds):
        calls.append(seeds)
        return kernel(p, q, seeds)

    monkeypatch.setattr(dresschain.wronskian, "_laguerre_kernel", recorded)
    with pytest.raises(DiagramTooLarge, match="weight 1600"):
        build_odd_chain(free((800, 1)), perm=(2, 0, 1))
    assert calls == [(~400,)]
    clear_ladder_memos()


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


def _as_entry(pw, det):
    """pw with the entry of the determinant det: its primitive polynomial
    in z, less its lowest power, which must be the `low` that pw's label
    carries; a Hermite det x**v G(x**2) gives G."""
    low, core = det.split_lowest()
    assert low == pw.low
    if pw.alpha is None:
        assert not any(core.coeffs[1::2])
        core = Polynomial(core.coeffs[::2])
    return dataclasses.replace(pw, prim=core.primitive())


def _with_ladder_entry(sol, index, poly):
    """sol with the primitive polynomial of poly, in z, as ladder entry
    index."""
    ladder = list(sol.ladder)
    ladder[index] = dataclasses.replace(ladder[index], prim=poly.primitive())
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


@pytest.mark.parametrize("sol", SAMPLE_CHAINS.values(), ids=SAMPLE_CHAINS.keys())
def test_zero_ladder_entry_raises(sol):
    # a zero entry has no log-derivative: both sides of its equations read
    # 0 at any point, so verify_chain refuses it, as span does
    for index in range(sol.period + 1):
        ladder = list(sol.ladder)
        ladder[index] = dataclasses.replace(ladder[index], prim=Polynomial.zero())
        with pytest.raises(ZeroPolynomial):
            verify_chain(dataclasses.replace(sol, ladder=tuple(ladder)))


def _unclosed(sol):
    """sol with its last ladder entry's `prim` bumped by 1: the closure and
    the sum rule fail, and the wrap equation has two distinct middle
    entries."""
    last = len(sol.ladder) - 1
    return _with_ladder_entry(sol, last, sol.ladder[last].prim + Polynomial.one())


def _bumped(sol):
    """sol with the `prim` of its highest interior ladder entry bumped by 1
    (the closure is unaffected)."""
    index = max(range(1, sol.period), key=lambda j: sol.ladder[j].poly.degree)
    return _with_ladder_entry(sol, index, sol.ladder[index].prim + Polynomial.one())


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


@pytest.mark.parametrize("name", ["odd", "even"])
def test_verify_chain_makes_no_polynomial_product(name, monkeypatch):
    # the chains are built with real products; verifying a chain that holds
    # evaluates every identity at one integer point and multiplies no
    # polynomials.  A failing equation is expanded in z, and its value is
    # checked against the oracle (test_unclosed_ladder_wrap_equation and
    # test_parity_generic_check_agrees_with_residual_oracle)
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
def test_unclosed_ladder_wrap_equation(sol, monkeypatch):
    # equations away from the replaced last entry still hold; the two that
    # touch it, the wrap equation with its distinct middle entries among
    # them, report the oracle's value.  Only the wrap equation of the
    # unclosed ladder takes the distinct-entry form
    forms = []
    equation = dresschain.chain._equation

    def recorder(entries, same, *rest):
        forms.append(same)
        return equation(entries, same, *rest)

    monkeypatch.setattr(dresschain.chain, "_equation", recorder)
    broken = _unclosed(sol)
    report = verify_chain(broken)
    p = sol.period
    assert forms == [True] * (p - 1) + [False]
    forms.clear()
    verify_chain(sol)
    assert forms == [True] * p
    assert not report.sum_rule and not report.ok
    assert all(eq.match for eq in report.equations[: p - 2])
    for i in (p - 1, p):
        eq = report.equations[i - 1]
        assert eq.value == _residual_rf(broken, i).constant_value()
        assert eq.residual_constant == (eq.value is not None)
    assert not report.equations[p - 1].match


def test_wrap_form_with_distinct_middle_entries(monkeypatch):
    # with the last entry of every even cell replaced by z P_0, the ladder
    # does not close, and the wrap equation goes through the form for two
    # distinct middle entries P_0 and z P_0.  The equations of the closed
    # ladder still read off eps; the two that read the last entry give the
    # oracle's value, None (the z adds a constant to v_p, whose z term is
    # not 0).  On every cell the point oracle reads eps at z = 1/3 and at
    # z = 2/7 on the closed part, and two different values on each of the
    # two others, and `_residual_rf` gives every value verify_chain
    # reports.  Forced on the closed ladders themselves, the distinct-entry
    # form reads off eps on every cell and on every criterion-4 odd chain,
    # whose gauge lines carry the x**v of their entries
    cells = list(even_cells())
    assert len(cells) == 145
    sols = [build_even_chain(cs1, cs2, ALPHA, perm=perm) for cs1, cs2, perm, _ in cells]
    for sol in sols:
        p = sol.period
        wrapped = _with_ladder_entry(sol, p, X * sol.ladder[0].prim)
        report = verify_chain(wrapped)
        values = [eq.value for eq in report.equations]
        assert values[: p - 2] == list(sol.expected_eps[: p - 2])
        assert values[p - 2:] == [None, None] and not report.sum_rule
        first, second = (
            [residual_at(wrapped, i, z) for i in range(1, p + 1)] for z in (F(1, 3), F(2, 7))
        )
        assert first[: p - 2] == second[: p - 2] == list(sol.expected_eps[: p - 2])
        assert all(a != b for a, b in zip(first[p - 2:], second[p - 2:]))
        assert values == [_residual_rf(wrapped, i).constant_value() for i in range(1, p + 1)]
    equation = dresschain.chain._equation
    monkeypatch.setattr(dresschain.chain, "_equation",
                        lambda entries, same, *rest: equation(entries, False, *rest))
    odd = _criterion_4_chains()
    assert len(odd) == 558
    assert any(any(_gauge(a, b)[1] for a, b in zip(sol.ladder, sol.ladder[1:])) for sol in odd)
    for sol in sols + odd:
        report = verify_chain(sol)
        assert [eq.value for eq in report.equations] == list(sol.expected_eps)
        assert report.ok


def test_even_chain_layers_read_cores(monkeypatch):
    # verify_chain packs, and span differentiates, only the z-free entries
    # of an even ladder: no polynomial there has a zero constant term,
    # though the determinants do.  The failing equations of the bumped
    # chain expand in z and differentiate P' too, so only the derivatives
    # of ladder entries are recorded
    sols = [build_even_chain(cs1, cs2, ALPHA, perm=perm) for cs1, cs2, perm in PERIOD4_CELLS]
    sols += [SAMPLE_CHAINS["even-31"], _bumped(SAMPLE_CHAINS["even-22"])]
    assert any(pw.poly.coeff(0) == 0 for sol in sols for pw in sol.ladder)
    expected = [(verify_chain(sol).to_json(), sol.span(0, 2)) for sol in sols]
    prims = {pw.prim for sol in sols for pw in sol.ladder}
    seen = []
    jet, derivative = dresschain.exact.jet, Polynomial.derivative

    def checked_jet(coeffs, k):
        seen.append(coeffs[0])
        return jet(coeffs, k)

    def checked_derivative(poly):
        if poly in prims:
            seen.append(poly.coeff(0))
        return derivative(poly)

    monkeypatch.setattr(dresschain.exact, "jet", checked_jet)
    monkeypatch.setattr(Polynomial, "derivative", checked_derivative)
    assert [(verify_chain(sol).to_json(), sol.span(0, 2)) for sol in sols] == expected
    assert len(seen) > 100 and all(seen)


@pytest.mark.parametrize("e", [1, 2])
def test_odd_ladder_closed_up_to_a_power_of_x_is_not_closed(e):
    # an odd ladder whose last entry is z**e = x**(2e) times its first does
    # not close: v_p gains the constant -2e, which the gauges of the labels
    # do not carry, so the sum rule fails and every equation reads the
    # oracle's constant
    sol = SAMPLE_CHAINS["odd"]
    p = sol.period
    shifted = _with_ladder_entry(sol, p, sol.ladder[0].prim.shifted(e))
    assert shifted.ladder[p].prim == sol.ladder[0].prim.shifted(e)
    report = verify_chain(shifted)
    assert not _closure(shifted) and not report.sum_rule and not report.ok
    for i, eq in enumerate(report.equations, 1):
        assert eq.value == _residual_rf(shifted, i).constant_value()


@pytest.mark.parametrize("sol", SAMPLE_CHAINS.values(), ids=SAMPLE_CHAINS.keys())
def test_corrupted_ladder_entry_fails(sol):
    # constant entries are exempt: constants cancel in log-derivatives
    assert verify_chain(sol).ok
    mutated = 0
    for index, pw in enumerate(sol.ladder):
        if pw.prim.degree < 1:
            continue
        for power in (0, pw.prim.degree):
            bumped = pw.prim + Polynomial.monomial(power)
            assert not verify_chain(_with_ladder_entry(sol, index, bumped)).ok
            mutated += 1
    assert mutated >= 4


def test_failing_equations_read_their_true_eps():
    # with every expected eps set to 0, every equation fails at the chain's
    # 2**K, which covers the left sides only; expanded in z, each reads off
    # the oracle's value, the true eps
    sol = SAMPLE_CHAINS["even-22"]
    p = sol.period
    zero = dataclasses.replace(sol, expected_eps=(F(0),) * p)
    report = verify_chain(zero)
    for i, eq in enumerate(report.equations, 1):
        assert eq.value == _residual_rf(zero, i).constant_value()
        assert eq.value == sol.expected_eps[i - 1]
        assert eq.residual_constant and not eq.match


def test_read_off_candidate_refuted_by_repacking():
    # unit ladder entries, v_a = 2 - z and v_b = -2 in z: the residual is
    # 5 - z, so L = 5z - z**2 and R = z.  At the chain's z = 2**3 it reads
    # -3, within the heights a constant could have (|L|_1 = 6, |R|_1 = 1),
    # and not the expected 0; only L expanded in z shows that it is not a
    # constant.  The gauges are (lin, 2 q inv) with q = 1.  With e = 0 the
    # formula is L itself, of bound 6, so K = 3
    chain = dresschain.chain
    coeffs = [(1,)] * 3
    eq = chain._equation((0, 1, 1, 2), True, 2, (-1, 4), (0, -4), F(0))
    assert (eq.d0, eq.lines) == (1, ((0, -1), (-3, 1)))
    norms = [BOUND.jets((1,))] * 3
    assert chain._sides(eq, norms, BOUND) == (6, 1)
    assert chain._formula(eq)(norms, BOUND).bit_length() == 3
    jets = [Point.at(3).jets(cs) for cs in coeffs]
    assert chain._sides(eq, jets, Point.at(3)) == (-24, 8)
    assert vanishes([chain._formula(eq)], coeffs) == [False]
    assert chain._read_off(eq, coeffs) is None


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
    st.integers(1, 12),
    st.tuples(gauge_ints, gauge_ints),
    st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 4),
)
def test_evaluation_bound_covers_every_coefficient(polys, q, gauges, eps):
    # both forms (Pa == Pb, and the distinct pair): 2**K, from the bound
    # of the equation's formula, exceeds the l1 norm of the formula
    # diff = den(eps) L - num(eps) R, so diff is 0 exactly when diff(2**K)
    # is; and the packed sides are L and R at 2**K.  R is never the zero
    # polynomial, so diff = 0 says L / R = eps.  L and R are chain._sides
    # itself, at the polynomial variable z
    chain = dresschain.chain
    coeffs = [P.int_coeffs for P in polys]
    den = 2 * q
    norms = [BOUND.jets(cs) for cs in coeffs]
    poly_jets = [VARIABLE.jets(cs) for cs in coeffs]
    for entries in ((0, 1, 1, 3), (0, 1, 2, 3)):
        same = entries[1] == entries[2]
        eq = chain._equation(entries, same, den, *gauges, eps)
        formula = chain._formula(eq)
        K = formula(norms, BOUND).bit_length()
        L, R = chain._sides(eq, poly_jets, VARIABLE)
        diff = L * eps.denominator - R * eps.numerator
        assert formula(poly_jets, VARIABLE) == diff
        assert _l1(diff) < 2 ** K and not R.is_zero
        pt = Point.at(K)
        jets = [pt.jets(cs) for cs in coeffs]
        assert chain._sides(eq, jets, pt) == (L.eval_at(2 ** K), R.eval_at(2 ** K))
        assert vanishes([formula], coeffs) == [diff.is_zero]


def test_evaluation_bound_must_be_strict():
    # 2**K - z is not zero, but it vanishes at z = 2**K: its coefficient
    # 2**K reaches the evaluation point.  Its l1 bound 2**K + 1 therefore
    # asks for K + 1, where the value no longer vanishes
    K = 40
    points = []

    def formula(jets, pt):
        points.append(pt.times(1))
        return jets[0][0]

    assert dresschain.exact.jet([2 ** K, -1], K)[0] == 0
    assert vanishes([formula], [(2 ** K, -1)]) == [False]
    assert points == [1, 2 ** (K + 1)]
    assert dresschain.exact.jet([2 ** K, -1], K + 1)[0] != 0


def _chains_for_fast_check_oracle():
    """The chains to check and bump: the odd p, k <= 3 box under every
    flip order, and the criterion-6 period-4 cells at alpha 1/3."""
    for p, k in ((1, 1), (3, 1), (3, 3)):
        for cs in enumerate_structures(p, k, 3):
            for perm in itertools.permutations(range(p)):
                yield build_odd_chain(cs, perm=perm, allow_degenerate=True)
    for cs1, cs2, perm in PERIOD4_CELLS:
        yield build_even_chain(cs1, cs2, ALPHA, perm=perm)


def test_parity_generic_check_agrees_with_residual_oracle(monkeypatch):
    # every constant the fast check reads off (None: not a constant) equals
    # the slow residual's, on correct chains and on chains with their
    # highest interior ladder entry bumped (the closure is unaffected);
    # with one expected eps raised by 1, that equation fails and reports
    # the true eps
    chain = dresschain.chain
    formula, read_off = chain._formula, chain._read_off
    bounds, packed, read = [], [], []

    def record_formula(eq):
        # each formula's l1 bound den(e) |L|_1 + |num(e)| |R|_1, and its
        # value at the packed point
        f = formula(eq)

        def recorded(jets, pt):
            value = f(jets, pt)
            if pt is BOUND:
                lb, rb = chain._sides(eq, jets, BOUND)
                e = eq.expected
                bounds.append(e.denominator * lb + abs(e.numerator) * rb)
            else:
                packed.append((pt.times(1), value))
            return value

        return recorded

    def record_read_off(*args):
        read.append(read_off(*args))
        return read[-1]

    def verify(sol):
        for log in (bounds, packed, read):
            log.clear()
        report = verify_chain(sol)
        # the chain's one point is above the bound of every equation; an
        # equation holds exactly when its formula is 0 there, and only the
        # others are read off in z
        (x,) = {x for x, _ in packed}
        assert len(bounds) == len(packed) == sol.period and x > max(bounds)
        assert [eq.match for eq in report.equations] == [v == 0 for _, v in packed]
        assert [eq.value for eq in report.equations if not eq.match] == read
        return report

    monkeypatch.setattr(chain, "_formula", record_formula)
    monkeypatch.setattr(chain, "_read_off", record_read_off)
    parities, failures, unread = set(), 0, 0
    for sol in _chains_for_fast_check_oracle():
        variants = [sol, _bumped(sol)] if sol.period > 1 else [sol]
        for variant in variants:
            report = verify(variant)
            for i, eq in enumerate(report.equations, 1):
                assert eq.value == _residual_rf(variant, i).constant_value(), (
                    variant.labels, i)
                failures += not eq.match
                unread += eq.value is None
            parities.add(variant.is_even)
        for i, true_eps in enumerate(sol.expected_eps):
            eps = sol.expected_eps[:i] + (true_eps + 1,) + sol.expected_eps[i + 1:]
            eq = verify(dataclasses.replace(sol, expected_eps=eps)).equations[i]
            assert true_eps in read
            assert eq.residual_constant and eq.value == true_eps and not eq.match
    assert parities == {0, 1} and failures > 0 and unread > 0


def _criterion_4_chains():
    """Every criterion-4 odd chain: the p <= 5 grid at bound 3, degenerate
    layouts included, and the period-5 table rows."""
    odd = [build_odd_chain(cs, allow_degenerate=True) for cs in _odd_parameter_grid(3)]
    return odd + [build() for _, build, _ in _odd_table_rows()]


def test_odd_ladders_match_raw_determinants():
    # every state of every flip order in the p, k <= 3 box, and the 174
    # criterion-4 chains with an entry whose determinant has a power of z
    # (x**v, v >= 2; none in the box has one); Polynomial equality is on
    # exact coefficients, so content, sign and the power of z are covered
    box = [
        build_odd_chain(cs, perm=perm, allow_degenerate=True)
        for p, k in ((1, 1), (3, 1), (3, 3))
        for cs in enumerate_structures(p, k, 3)
        for perm in itertools.permutations(range(p))
    ]
    powers = [sol for sol in _criterion_4_chains() if any(pw.low >= 2 for pw in sol.ladder)]
    assert len(powers) == 174
    for sol in box + powers:
        dets = [_hermite_matrix_det(d.entries) for d in sol.labels]
        assert [pw.poly for pw in sol.ladder] == dets
        raw = [_as_entry(pw, det) for pw, det in zip(sol.ladder, dets)]
        assert raw == list(sol.ladder)
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
            state, replay = sol.labels[0], [sol.labels[0]]
            for f in sol.flips:
                state = apply_uc_flip(state, f)
                replay.append(state)
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
    assert potential_of(EMPTY).rational.num.is_zero
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
    # odd components have lin = -+omega/2, and their 1/x part is
    # v_prev - v_cur, from the x**v of the entries: the second gauge
    # component is 2 (v_prev - v_cur), with v the lowest power of x of the
    # raw determinant.  The second ladder has entries with v = 3, whose
    # parity is that of v = 1
    lows = set()
    for cs in (CyclicStructure(k=1, second_type=((1, 2),)),
               CyclicStructure(k=5, okamoto=(1, 0, 1, 0))):
        sol = build_odd_chain(cs)
        assert not sol.is_even
        vs = [_hermite_matrix_det(d.entries).split_lowest()[0] for d in sol.labels]
        lows.update(vs)
        for (prev, cur), v_prev, v_cur in zip(zip(sol.ladder, sol.ladder[1:]), vs, vs[1:]):
            lin, inv = _gauge(prev, cur)
            assert inv == 2 * (v_prev - v_cur) and lin in (F(1), F(-1))
    assert lows == {0, 1, 3}
    sol = build_even_chain(CyclicStructure(k=1), CyclicStructure(k=1), ALPHA)
    assert sol.is_even


def _span_oracle(sol, i, j):
    """span(i, j) from the gauge and the log-derivative of the two end
    entries' primitive polynomials."""
    lin, inv = _gauge(sol.ladder[i], sol.ladder[j])
    inv = F(inv, 2 * sol.ladder[j].gauge_den)
    log_ratio = log_derivative_ratio(sol.ladder[i].prim, sol.ladder[j].prim)
    return Quotient(Polynomial((inv, lin))) + 2 * (log_ratio * X)


@pytest.mark.parametrize("sol", SAMPLE_CHAINS.values(), ids=SAMPLE_CHAINS.keys())
def test_replaced_ladder_carries_its_own_terms(sol):
    # the components are derived from the ladder, so replacing the ladder
    # replaces the two spans that touch the bumped entry, and no gauge data
    bumped = sol.ladder[2].prim + Polynomial.one()
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
    # one normalisation of the two end entries equals the Quotient sum of
    # the one-step spans in between, for every i < j
    sol = TELESCOPE_CHAINS[name]
    steps = [Quotient.of(sol.span(k, k + 1)) for k in range(sol.period)]
    for k, step in enumerate(steps):
        assert step == _span_oracle(sol, k, k + 1)
    for i, j in itertools.combinations(range(sol.period + 1), 2):
        assert sol.span(i, j) == sum(steps[i + 1:j], steps[i]), (i, j)


def test_bulk_records_hold_no_instance_dict():
    # the records that the builders and verify_chain make in bulk are
    # slotted, `low` among the entry's fields, and dataclasses.replace
    # recomputes `low` from the new label
    cs = CyclicStructure(k=1, second_type=((1, 2),))
    odd = build_odd_chain(cs)
    even = build_even_chain(cs, CyclicStructure(k=1), ALPHA)
    report = verify_chain(odd)
    records = [cs, static_flip_chain(cs), ALPHA, odd, even, report, report.equations[0]]
    for sol in (odd, even):
        records += list(sol.ladder) + list(sol.labels) + list(sol.flips)
    kinds = {type(r).__name__ for r in records}
    assert kinds == {"CyclicStructure", "FlipChain", "AlphaParam", "ChainSolution",
                     "VerificationReport", "EquationCheck", "PseudoWronskian",
                     "MayaDiagram", "UniversalCharacter", "Flip"}
    assert not [r for r in records if hasattr(r, "__dict__")]
    pw = hermite_wronskian(MayaDiagram((1, 2)))
    moved = dataclasses.replace(pw, label=MayaDiagram((1,)))
    assert pw.low == 0 and moved.low == hermite_wronskian(MayaDiagram((1,))).low == 1
