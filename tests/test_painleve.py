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
from dresschain.exact import BOUND, VARIABLE, Polynomial, RationalFunction
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

from oracles import (
    log_derivative_ratio,
    piv_numerator_residual,
    piv_residual_oracle,
    pv_numerator_residual,
    pv_residual_oracle,
)

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
            assert piv_residual(inst)


def test_okamoto_family_parameters():
    fams = piv_families(okamoto(1, 1))
    assert fams[0].a == 2
    assert fams[0].b == F(-2, 9)
    assert fams[0].c_sq == F(1, 3)


def test_okamoto_families_solve_piv():
    for a1, a2 in itertools.product((0, 1, 2), repeat=2):
        for inst in piv_families(okamoto(a1, a2)):
            assert piv_residual(inst)


def test_smallest_gh_family():
    # single-seed ladder: the zero-flip family runs over H(1,1) = (1)
    fams = piv_families(gh(1, 1))
    assert hermite_wronskian(MayaDiagram((1,))).poly == Polynomial((0, 2))
    for inst in fams:
        assert piv_residual(inst)


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
    assert not piv_residual(bad)
    assert piv_numerator_residual(bad) == -1 / inst.y == piv_residual_oracle(bad)


def test_piv_wrong_scaling_has_no_parameters():
    # with the t map the other way around, y = c u(t/c), which is y(t/c**2)
    # for the printed y = c u(c t): in z the pair (N(k**2 z), k V(k**2 z)),
    # k = 1/c**2.  No (a, b) make the Okamoto residual vanish: the equation
    # itself pins the map
    inst = piv_families(okamoto(1, 1))[0]
    k = 1 / inst.c_sq
    k2z = Polynomial((0, k * k))

    def fit(num, den):
        # the residual is base + 2 a y - b/y; solve for (a, b) at two points
        trial = replace(inst, num=num, den=den, a=F(0), b=F(0))
        y, base = trial.y, piv_numerator_residual(trial)
        assert piv_residual(trial) == base.is_zero
        (p1, q1, r1), (p2, q2, r2) = [
            (2 * y.eval_at(t), -1 / y.eval_at(t), -base.eval_at(t)) for t in (F(1), F(2))
        ]
        det = p1 * q2 - p2 * q1
        return replace(trial, a=(r1 * q2 - r2 * q1) / det, b=(p1 * r2 - p2 * r1) / det)

    assert fit(inst.num, inst.den) == inst
    assert not piv_residual(fit(inst.num.compose(k2z), k * inst.den.compose(k2z)))


def test_piv_wrong_period():
    sol = build_odd_chain(CyclicStructure(k=1))
    with pytest.raises(WrongPeriod):
        piv_from_chain(sol)
    with pytest.raises(WrongPeriod):
        piv_families(CyclicStructure(k=1))


def test_piv_zero_denominator():
    inst = piv_families(gh(1, 2))[0]
    bad = replace(inst, num=Polynomial.zero())
    with pytest.raises(ZeroDenominator):
        piv_residual(bad)
    with pytest.raises(ZeroDenominator):
        piv_residual(replace(inst, den=Polynomial.zero()))


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
    assert pv_residual(inst)


def test_pv_22_parameters_and_residual():
    alpha = AlphaParam(F(2, 5))
    a = alpha.value
    inst = pv_22(0, 0, alpha)
    assert (inst.a, inst.b, inst.c, inst.d) == (
        F(1, 8), F(-1, 8), 2 * (a + 1), F(-2)
    )
    assert pv_residual(inst)


def test_pv_sweep_residuals():
    for alpha_value in (F(1, 3), F(2, 5), F(7, 3)):
        alpha = AlphaParam(alpha_value)
        for lam, mu in itertools.product((1, 2), repeat=2):
            assert pv_residual(pv_31(lam, mu, alpha))
        for a1, b1 in itertools.product((0, 1), repeat=2):
            assert pv_residual(pv_22(a1, b1, alpha))


def test_pv_perturbation_detected():
    inst = pv_31(1, 1, ALPHA)
    bad = PVInstance(num=inst.num, den=inst.den, a=inst.a, b=inst.b, c=inst.c + 1, d=inst.d)
    assert not pv_residual(bad)


def test_perturbed_solutions_detected():
    # on the pair (N, V): y + t and 2y for PIV, y + 1 and 2y for PV
    for inst in piv_families(gh(1, 2)) + piv_families(okamoto(1, 1)):
        assert piv_residual(inst)
        for num in (inst.num + piv_t(inst) * inst.den, inst.num * 2):
            bad = replace(inst, num=num)
            assert not piv_residual(bad)
    for inst in (pv_31(1, 1, ALPHA), pv_31(2, 1, ALPHA)):
        assert pv_residual(inst)
        for num in (inst.num + inst.den, inst.num * 2):
            bad = PVInstance(num=num, den=inst.den, a=inst.a, b=inst.b, c=inst.c, d=inst.d)
            assert not pv_residual(bad)


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
        pv_residual(PVInstance(num=Polynomial.zero(), den=inst.den, a=inst.a, b=inst.b,
                               c=inst.c, d=inst.d))
    with pytest.raises(ZeroDenominator):
        pv_residual(replace(inst, num=inst.den))
    # with V = 0, R is -2a N**5: zero at a = 0, yet y = N/0 is no solution
    with pytest.raises(ZeroDenominator):
        pv_residual(replace(inst, den=Polynomial.zero(), a=F(0)))


def test_pv_json():
    inst = pv_22(1, 1, ALPHA)
    data = inst.to_json()
    assert data["equation"] == "PV"
    assert data["residual_zero"] is True
    assert set(data["params"]) == {"a", "b", "c", "d"}


def test_deep_failing_instances_are_refused():
    # b off by one on deep ladders: PIV on the Okamoto (10, 10) family, PV
    # on the instance of `verify --period 4 --case 3,1 --params 7,7
    # --alpha 1/3`.  The check answers no by the one zero test that
    # accepts the true b
    piv = piv_families(okamoto(10, 10))[0]
    assert piv_residual(piv) and not piv_residual(replace(piv, b=piv.b + 1))
    pv = pv_from_chain(build_even_chain(gh(7, 7), CyclicStructure(k=1), ALPHA))
    assert pv_residual(pv) and not pv_residual(replace(pv, b=pv.b + 1))


# -- fast residuals against the RationalFunction oracles ----------------------

PIV_BOX = [gh(lam, mu) for lam, mu in itertools.product((1, 2, 3), repeat=2)] + [
    okamoto(a1, a2) for a1, a2 in itertools.product((0, 1, 2), repeat=2)
]


def piv_t(inst):
    """k z, k = 1/c**2 = shift/2: N + k z V is the pair of PIV's y + t."""
    return Polynomial((0, 1 / inst.c_sq))


def perturbed(inst, shift):
    """The instance itself, then its pair (N, V) with N + shift V and 2N,
    then each parameter plus 1, then b plus 1/3."""
    params = [name for name in ("a", "b", "c", "d") if hasattr(inst, name)]
    return [
        inst, replace(inst, num=inst.num + shift * inst.den), replace(inst, num=2 * inst.num)
    ] + [replace(inst, **{name: getattr(inst, name) + 1}) for name in params] + [
        replace(inst, b=inst.b + F(1, 3))
    ]


def test_piv_residual_matches_oracle_on_criterion_5_box():
    for cs in PIV_BOX:
        for inst in piv_families(cs):
            first, *bad = perturbed(inst, piv_t(inst))
            assert piv_residual(first) and piv_residual_oracle(first).is_zero
            for other in bad:
                residual = piv_numerator_residual(other)
                assert not piv_residual(other) and not residual.is_zero
                assert residual == piv_residual_oracle(other)


@pytest.mark.parametrize("alpha_value", (F(1, 3), F(-2, 5), F(4, 7)), ids=str)
def test_pv_residual_matches_oracle_on_pv_cells(alpha_value):
    # the criterion-7 cells at one alpha per denominator 3, 5 and 7
    alpha = AlphaParam(alpha_value)
    cells = [pv_31(lam, mu, alpha) for lam, mu in itertools.product((1, 2), repeat=2)]
    cells += [pv_22(a1, b1, alpha) for a1, b1 in itertools.product((0, 1, 2), repeat=2)]
    for inst in cells:
        first, *bad = perturbed(inst, 1)
        assert pv_residual(first) and pv_residual_oracle(first).is_zero
        for other in bad:
            residual = pv_numerator_residual(other)
            assert not pv_residual(other) and not residual.is_zero
            assert residual == pv_residual_oracle(other)


# the property tests put a random pair (N, V), c**2 and (a, b) into this
# family member
PIV_MEMBER = piv_families(gh(1, 1))[0]

# integer pairs (N, V) in z
small_polys = st.lists(st.integers(-3, 3), max_size=4).map(Polynomial)
small_params = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, st.integers(1, 3), small_params, small_params)
def test_piv_residual_matches_oracle_property(n, d, k, a, b):
    assume(not n.is_zero and not d.is_zero)
    inst = replace(PIV_MEMBER, num=n, den=d, c_sq=F(1, k), a=a, b=b)
    residual = piv_numerator_residual(inst)
    assert residual == piv_residual_oracle(inst)
    assert piv_residual(inst) == residual.is_zero


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, small_params, small_params, small_params, small_params)
def test_pv_residual_matches_oracle_property(n, d, a, b, c, e):
    assume(not n.is_zero and not d.is_zero and n != d)
    inst = PVInstance(num=n, den=d, a=a, b=b, c=c, d=e)
    residual = pv_numerator_residual(inst)
    assert residual == pv_residual_oracle(inst)
    assert pv_residual(inst) == residual.is_zero


# -- the check at 2**K ----------------------------------------------------------


def test_passing_instances_take_the_check_at_a_power_of_two():
    # every PIV family of the criterion-5 box and every criterion-7 PV cell
    # is accepted; no residual polynomial can be built, since painleve does
    # not name VARIABLE (test_exact.py).  The maps take no gcd, yet y is in
    # lowest terms: each divides out the one factor t its numerator and
    # denominator can share
    instances = [inst for cs in PIV_BOX for inst in piv_families(cs)]
    for cs1, cs2, perm, _ in even_cells():
        if cs1.p + cs2.p == 4:
            for a in ALPHA_TRIPLE:
                sol = build_even_chain(cs1, cs2, AlphaParam(a), perm=perm)
                instances.append(pv_from_chain(sol))
    assert len(instances) == 54 + 39
    for inst in instances:
        assert RationalFunction(inst.y.num, inst.y.den) == inst.y
        assert inst.to_json()["residual_zero"] is True


def _recorded_numerator(name, inst, residual):
    """The calls that residual(inst) makes of the numerator painleve.<name>,
    each as (args, result): the bound and the value at 2**K."""
    calls = []
    numerator = getattr(painleve, name)

    def recorder(*args):
        calls.append((args, numerator(*args)))
        return calls[-1][1]

    with mock.patch.object(painleve, name, recorder):
        residual(inst)
    return calls


def _assert_bound_covers_numerator(name, inst, residual):
    # the bound is at least the l1 norm of the expanded integer numerator,
    # 2**K exceeds it, and the value at 2**K is the numerator's
    calls = _recorded_numerator(name, inst, residual)
    (bound_args, bound), (value_args, value) = calls[:2]
    assert bound_args[2] is BOUND
    _, _, pt, ints = value_args
    x = pt.times(1)
    cs, vs = inst.num.int_coeffs, inst.den.int_coeffs
    expanded = getattr(painleve, name)(VARIABLE.jets(cs), VARIABLE.jets(vs), VARIABLE, ints)
    assert pt.sub is operator.sub
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
@given(adversarial_polys, adversarial_polys, st.integers(1, 5), signed_params, signed_params)
def test_piv_bound_covers_every_coefficient(n, d, k, a, b):
    inst = replace(PIV_MEMBER, num=n, den=d, c_sq=F(1, k), a=a, b=b)
    _assert_bound_covers_numerator("_piv_numerator", inst, piv_residual)


@settings(max_examples=40, deadline=None)
@given(adversarial_polys, adversarial_polys, *[signed_params] * 4)
def test_pv_bound_covers_every_coefficient(n, d, a, b, c, e):
    assume(n != d)
    inst = PVInstance(num=n, den=d, a=a, b=b, c=c, d=e)
    _assert_bound_covers_numerator("_pv_numerator", inst, pv_residual)
