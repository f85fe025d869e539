import itertools
import operator
from dataclasses import replace
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dresschain import painleve
from dresschain.chain import build_even_chain, build_odd_chain
from dresschain.exact import Polynomial, RationalFunction
from dresschain.maya import CyclicStructure, MayaDiagram
from dresschain.orthopoly import AlphaParam
from dresschain.painleve import (
    PVInstance,
    WrongPeriod,
    ZeroDenominator,
    piv_families,
    piv_from_chain,
    piv_residual,
    pv_from_chain,
    pv_residual,
)
from dresschain.selftest import ALPHA_TRIPLE, even_cells
from dresschain.wronskian import hermite_wronskian

from oracles import log_derivative_ratio, piv_residual_oracle, pv_residual_oracle

ALPHA = AlphaParam(F(1, 3))


def gh(lam, mu):
    return CyclicStructure(k=1, second_type=((lam, mu),))


def okamoto(a1, a2):
    return CyclicStructure(k=3, okamoto=(a1, a2))


def test_gh_family_parameters():
    fams = piv_families(gh(1, 2))
    assert fams[0].a == 3 and fams[0].b == -8  # -(1-mu-2lam), -2mu^2
    assert fams[0].c_sq == 1


def test_gh_families_solve_piv():
    for lam, mu in itertools.product((1, 2, 3), repeat=2):
        for inst in piv_families(gh(lam, mu)):
            assert piv_residual(inst).is_zero


def test_okamoto_family_parameters():
    fams = piv_families(okamoto(1, 1))
    assert fams[0].a == 2
    assert fams[0].b == F(-2, 9)
    assert fams[0].c_sq == F(1, 3)


def test_okamoto_families_solve_piv():
    for a1, a2 in itertools.product((0, 1, 2), repeat=2):
        for inst in piv_families(okamoto(a1, a2)):
            assert piv_residual(inst).is_zero


def test_smallest_gh_family():
    # single-seed ladder: the zero-flip family runs over H(1,1) = (1)
    fams = piv_families(gh(1, 1))
    assert hermite_wronskian(MayaDiagram((1,))).poly == Polynomial((0, 2))
    for inst in fams:
        assert piv_residual(inst).is_zero


def test_gh_y0_log_derivative_form():
    # first family: y = d/dt log of the block ladder, exactly
    for lam, mu in itertools.product((1, 2, 3), repeat=2):
        inst = piv_families(gh(lam, mu))[0]
        top = hermite_wronskian(MayaDiagram(tuple(range(lam, lam + mu)))).poly
        bot = hermite_wronskian(
            MayaDiagram(tuple(range(lam - 1, lam - 1 + mu)))
        ).poly
        assert inst.y == log_derivative_ratio(top, bot)  # c = 1 here


def test_piv_perturbation_detected():
    inst = piv_families(gh(1, 2))[0]
    bad = replace(inst, b=inst.b + 1)
    assert piv_residual(bad) == -1 / inst.y


def test_piv_wrong_scaling_has_no_parameters():
    # with the t map the other way around, y = c u(t/c), which is y(t/c**2)
    # for the printed y = c u(c t), no (a, b) make the Okamoto residual
    # vanish: the equation itself pins the map
    inst = piv_families(okamoto(1, 1))[0]
    k = Polynomial((0, 1 / inst.c_sq))
    wrong = RationalFunction(inst.y.num.compose(k), inst.y.den.compose(k))

    def fit(y):
        # the residual is base + 2 a y - b/y; solve for (a, b) at two points
        base = piv_residual(replace(inst, y=y, a=F(0), b=F(0)))
        (p1, q1, r1), (p2, q2, r2) = [
            (2 * y.eval_at(t), -1 / y.eval_at(t), -base.eval_at(t)) for t in (F(1), F(2))
        ]
        det = p1 * q2 - p2 * q1
        return replace(inst, y=y, a=(r1 * q2 - r2 * q1) / det, b=(p1 * r2 - p2 * r1) / det)

    assert fit(inst.y) == inst
    assert not piv_residual(fit(wrong)).is_zero


def test_piv_wrong_period():
    sol = build_odd_chain(CyclicStructure(k=1))
    with pytest.raises(WrongPeriod):
        piv_from_chain(sol)
    with pytest.raises(WrongPeriod):
        piv_families(CyclicStructure(k=1))


def test_piv_map_refuses_a_solution_not_odd_in_x():
    # ladder entry 1 times z + 1 breaks the parity that the map rescales by
    sol = build_odd_chain(gh(1, 2))
    entry = replace(sol.ladder[1], prim=sol.ladder[1].prim * Polynomial((1, 1)))
    with pytest.raises(ValueError, match="solution is not odd in x"):
        piv_from_chain(replace(sol, ladder=sol.ladder[:1] + (entry,) + sol.ladder[2:]))


def test_piv_zero_denominator():
    inst = piv_families(gh(1, 2))[0]
    bad = replace(inst, y=RationalFunction.zero())
    with pytest.raises(ZeroDenominator):
        piv_residual(bad)


def test_piv_json():
    inst = piv_families(okamoto(1, 1))[0]
    data = inst.to_json()
    assert data["equation"] == "PIV" and data["variable"] == "t"
    assert data["residual_zero"] is True
    assert data["params"]["c_sq"] == "1/3"


# -- PV -------------------------------------------------------------------------


def pv_31(lam, mu, alpha):
    cs1 = CyclicStructure(k=1, second_type=((lam, mu),))
    sol = build_even_chain(
        cs1, CyclicStructure(k=1), alpha, perm=(1, 2, 0, 3)
    )
    return pv_from_chain(sol)


def pv_22(a1, b1, alpha):
    sol = build_even_chain(
        CyclicStructure(k=2, okamoto=(a1,)),
        CyclicStructure(k=2, okamoto=(b1,)),
        alpha,
        perm=(1, 0, 3, 2),
    )
    return pv_from_chain(sol)


def test_pv_31_parameters_and_residual():
    a = ALPHA.value
    inst = pv_31(1, 1, ALPHA)
    assert (inst.a, inst.b, inst.c, inst.d) == (
        F(1, 2), -a * a / 2, a + 4, F(-1, 2)
    )
    assert pv_residual(inst).is_zero


def test_pv_22_parameters_and_residual():
    alpha = AlphaParam(F(2, 5))
    a = alpha.value
    inst = pv_22(0, 0, alpha)
    assert (inst.a, inst.b, inst.c, inst.d) == (
        F(1, 8), F(-1, 8), 2 * (a + 1), F(-2)
    )
    assert pv_residual(inst).is_zero


def test_pv_sweep_residuals():
    for alpha_value in (F(1, 3), F(2, 5), F(7, 3)):
        alpha = AlphaParam(alpha_value)
        for lam, mu in itertools.product((1, 2), repeat=2):
            assert pv_residual(pv_31(lam, mu, alpha)).is_zero
        for a1, b1 in itertools.product((0, 1), repeat=2):
            assert pv_residual(pv_22(a1, b1, alpha)).is_zero


def test_pv_perturbation_detected():
    inst = pv_31(1, 1, ALPHA)
    bad = PVInstance(y=inst.y, a=inst.a, b=inst.b, c=inst.c + 1, d=inst.d)
    assert not pv_residual(bad).is_zero


def test_perturbed_solutions_detected():
    one = RationalFunction(Polynomial.one())
    for inst in piv_families(gh(1, 2)) + piv_families(okamoto(1, 1)):
        assert piv_residual(inst).is_zero
        for y in (inst.y + one, inst.y * 2):
            bad = replace(inst, y=y)
            assert not piv_residual(bad).is_zero
    for inst in (pv_31(1, 1, ALPHA), pv_31(2, 1, ALPHA)):
        assert pv_residual(inst).is_zero
        for y in (inst.y + one, inst.y * 2):
            bad = PVInstance(y=y, a=inst.a, b=inst.b, c=inst.c, d=inst.d)
            assert not pv_residual(bad).is_zero


def test_pv_wrong_period():
    sol = build_even_chain(CyclicStructure(k=1), CyclicStructure(k=1), ALPHA)
    with pytest.raises(WrongPeriod):
        pv_from_chain(sol)
    sol3 = build_odd_chain(CyclicStructure(k=1, second_type=((1, 1),)))
    with pytest.raises(WrongPeriod):
        pv_from_chain(sol3)


def test_pv_zero_solution_rejected():
    inst = pv_31(1, 1, ALPHA)
    with pytest.raises(ZeroDenominator):
        pv_residual(PVInstance(y=RationalFunction.zero(), a=inst.a, b=inst.b,
                               c=inst.c, d=inst.d))


def test_pv_json():
    inst = pv_22(1, 1, ALPHA)
    data = inst.to_json()
    assert data["equation"] == "PV"
    assert data["residual_zero"] is True
    assert set(data["params"]) == {"a", "b", "c", "d"}


# -- fast residuals against the RationalFunction oracles ----------------------

PIV_BOX = [gh(lam, mu) for lam, mu in itertools.product((1, 2, 3), repeat=2)] + [
    okamoto(a1, a2) for a1, a2 in itertools.product((0, 1, 2), repeat=2)
]


def perturbed(inst, field):
    """The instance itself, then its solution plus 1 and times 2, then each
    parameter plus 1."""
    sol = getattr(inst, field)
    params = [name for name in ("a", "b", "c", "d") if hasattr(inst, name)]
    return [inst, replace(inst, **{field: sol + 1}), replace(inst, **{field: sol * 2})] + [
        replace(inst, **{name: getattr(inst, name) + 1}) for name in params
    ]


def test_piv_residual_matches_oracle_on_criterion_5_box():
    for cs in PIV_BOX:
        for inst in piv_families(cs):
            first, *bad = perturbed(inst, "y")
            assert piv_residual(first).is_zero and piv_residual_oracle(first).is_zero
            for other in bad:
                fast = piv_residual(other)
                assert not fast.is_zero
                assert fast == piv_residual_oracle(other)


@pytest.mark.parametrize("alpha_value", (F(1, 3), F(-2, 5), F(4, 7)), ids=str)
def test_pv_residual_matches_oracle_on_pv_cells(alpha_value):
    # the criterion-7 cells at one alpha per denominator 3, 5 and 7
    alpha = AlphaParam(alpha_value)
    cells = [pv_31(lam, mu, alpha) for lam, mu in itertools.product((1, 2), repeat=2)]
    cells += [pv_22(a1, b1, alpha) for a1, b1 in itertools.product((0, 1, 2), repeat=2)]
    for inst in cells:
        first, *bad = perturbed(inst, "y")
        assert pv_residual(first).is_zero and pv_residual_oracle(first).is_zero
        for other in bad:
            fast = pv_residual(other)
            assert not fast.is_zero
            assert fast == pv_residual_oracle(other)


# the property tests put a random y and (a, b) into this family member
PIV_MEMBER = piv_families(gh(1, 1))[0]

small_polys = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=3), max_size=4
).map(Polynomial)
small_params = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, small_params, small_params)
def test_piv_residual_matches_oracle_property(n, d, a, b):
    assume(not n.is_zero and not d.is_zero)
    inst = replace(PIV_MEMBER, y=RationalFunction(n, d), c_sq=F(1), a=a, b=b)
    assert piv_residual(inst) == piv_residual_oracle(inst)


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, small_params, small_params, small_params, small_params)
def test_pv_residual_matches_oracle_property(n, d, a, b, c, e):
    assume(not n.is_zero and not d.is_zero and n != d)
    inst = PVInstance(y=RationalFunction(n, d), a=a, b=b, c=c, d=e)
    assert pv_residual(inst) == pv_residual_oracle(inst)


# -- the check at 2**K ----------------------------------------------------------


def test_passing_instances_take_the_check_at_a_power_of_two(monkeypatch):
    # every PIV family of the criterion-5 box and every criterion-7 PV cell
    # is accepted without building R by polynomial products
    def refuse(*coeff_lists):
        raise AssertionError("polynomial residual built for a solution")

    monkeypatch.setattr(painleve, "_quotient_derivatives", refuse)
    instances = [inst for cs in PIV_BOX for inst in piv_families(cs)]
    for cs1, cs2, perm, _ in even_cells():
        if cs1.p + cs2.p == 4:
            for a in ALPHA_TRIPLE:
                sol = build_even_chain(cs1, cs2, AlphaParam(a), perm=perm)
                instances.append(pv_from_chain(sol))
    assert len(instances) == 54 + 39
    for inst in instances:
        assert inst.to_json()["residual_zero"] is True


def _recorded_numerator(name, inst, residual):
    """The calls that residual(inst) makes of the numerator painleve.<name>,
    each as (args, result): the bound, the value at 2**K, and for a
    failing instance the polynomial."""
    calls = []
    numerator = getattr(painleve, name)

    def recorder(*args):
        calls.append((args, numerator(*args)))
        return calls[-1][1]

    with mock.patch.object(painleve, name, recorder):
        residual(inst)
    return calls


def _assert_bound_covers_numerator(name, inst, f, residual):
    # the bound is at least the l1 norm of the expanded integer numerator,
    # 2**K exceeds it, and the value at 2**K is the numerator's
    calls = _recorded_numerator(name, inst, residual)
    (bound_args, bound), (value_args, value) = calls[:2]
    assert bound_args[2] == 1 and bound_args[4] is operator.add
    _, _, x, ints, sub = value_args
    N, V = painleve._quotient_derivatives(*f.integer_pair())
    expanded = getattr(painleve, name)(N, V, Polynomial.x(), ints, operator.sub)
    assert sub is operator.sub
    assert sum(abs(c) for c in expanded.coeffs) <= bound < x
    assert expanded.eval_at(x) == value


# degree <= 8, every coefficient +-2**b with b <= 40
adversarial_polys = st.lists(
    st.builds(lambda s, b: s * 2 ** b, st.sampled_from((1, -1)), st.integers(0, 40)),
    min_size=1,
    max_size=9,
).map(Polynomial)
signed_params = st.fractions(min_value=-10 ** 4, max_value=10 ** 4, max_denominator=60)


@settings(max_examples=40, deadline=None)
@given(adversarial_polys, adversarial_polys, signed_params, signed_params)
def test_piv_bound_covers_every_coefficient(n, d, a, b):
    inst = replace(PIV_MEMBER, y=RationalFunction(n, d), c_sq=F(1), a=a, b=b)
    _assert_bound_covers_numerator("_piv_numerator", inst, inst.y, piv_residual)


@settings(max_examples=40, deadline=None)
@given(adversarial_polys, adversarial_polys, *[signed_params] * 4)
def test_pv_bound_covers_every_coefficient(n, d, a, b, c, e):
    assume(n != d)
    inst = PVInstance(y=RationalFunction(n, d), a=a, b=b, c=c, d=e)
    _assert_bound_covers_numerator("_pv_numerator", inst, inst.y, pv_residual)
