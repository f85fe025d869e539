from fractions import Fraction as F

import pytest

from dresschain.exact import Polynomial, RationalFunction
from dresschain.maya import POSITIVE, CyclicStructure, Flip, MayaDiagram, flip_at
from dresschain.orthopoly import (
    AlphaParam,
    IntegerAlpha,
    falling_factorial,
    hermite,
    laguerre,
)

Z = Polynomial.x()

ALPHAS = (F(1, 3), F(2, 5), F(7, 3), F(-5, 2), F(9, 7))


def test_hermite_small_values():
    assert hermite(0) == Polynomial.one()
    assert hermite(1) == 2 * Z
    assert hermite(2) == 4 * Z ** 2 - 2
    assert hermite(3) == 8 * Z ** 3 - 12 * Z


def test_hermite_derivative_rule():
    for n in range(1, 13):
        assert hermite(n).derivative() == 2 * n * hermite(n - 1)


def test_laguerre_small_values():
    assert laguerre(0, F(5)) == Polynomial.one()
    assert laguerre(1, F(1, 2)) == Polynomial((F(3, 2), -1))
    assert laguerre(2, F(0)) == Polynomial((1, -2, F(1, 2)))


def test_laguerre_derivative_rule():
    for a in ALPHAS:
        for n in range(1, 11):
            assert laguerre(n, a).derivative() == -laguerre(n - 1, a + 1)


def test_hermite_laguerre_bridge():
    zsq = Z * Z
    fact = 1
    for j in range(6):
        if j:
            fact *= j
        sign = -1 if j % 2 else 1
        assert hermite(2 * j) == sign * 4 ** j * fact * laguerre(j, F(-1, 2)).compose(zsq)
        assert hermite(2 * j + 1) == sign * 2 * 4 ** j * fact * Z * laguerre(
            j, F(1, 2)
        ).compose(zsq)


def test_shadow_derivative_rule():
    # d^j/dz^j (z^-a L_n^-a) = (n-a)_j z^(-a-j) L_n^(-a-j); both sides are
    # multiplied by z^(a+j), the left one expanded by the product rule
    from math import comb

    for a in ALPHAS[:3]:
        for n in range(0, 5):
            for j in range(0, 4):
                lhs = Polynomial.zero()
                for i in range(j + 1):
                    k = j - i
                    if n - k < 0:
                        continue
                    sign = -1 if k % 2 else 1
                    coeff = comb(j, i) * falling_factorial(-a, i) * sign
                    lhs = lhs + coeff * laguerre(n - k, -a + k).shifted(k)
                rhs = falling_factorial(n - a, j) * laguerre(n, -a - j)
                assert lhs == rhs


def test_factorials():
    assert falling_factorial(3, 2) == 6
    assert falling_factorial(F(7, 2), 0) == 1
    assert falling_factorial(2, 3) == 0


def test_alpha_param_rejects_integers():
    with pytest.raises(IntegerAlpha):
        AlphaParam(F(2))
    with pytest.raises(IntegerAlpha):
        AlphaParam(F(0))
    with pytest.raises(IntegerAlpha):
        AlphaParam(F(-3))
    assert AlphaParam(F(1, 2)).shifted(3).value == F(7, 2)


def _warm_laguerre(v):
    # L_1^a is cached first at the Fraction a = F(v), which equals a float v
    # and hashes alike, so the call with v would hit that entry
    laguerre(1, F(v))
    return laguerre(1, v)


@pytest.mark.parametrize(
    "make",
    (
        lambda v: Polynomial((1, v)),
        AlphaParam,
        lambda v: Polynomial((1, 2)).eval_at(v),
        lambda v: RationalFunction(Polynomial.one(), Z + 1).eval_at(v),
        _warm_laguerre,
        lambda v: falling_factorial(v, 2),
        lambda v: MayaDiagram((1, v)),
        lambda v: Flip(v, POSITIVE),
        lambda v: Flip(1, v),
        lambda v: Flip(1, POSITIVE, v),
        lambda v: flip_at(MayaDiagram((1, 2, 3)), v),
        lambda v: CyclicStructure(k=v, okamoto=(0,)),
        lambda v: CyclicStructure(k=2, okamoto=(v,)),
        lambda v: CyclicStructure(k=1, second_type=((1, v),)),
        lambda v: CyclicStructure.from_json({"k": v, "okamoto": [0], "blocks": [[1, 2]]}),
    ),
    ids=("Polynomial", "AlphaParam", "Polynomial.eval_at", "RationalFunction.eval_at",
         "laguerre", "falling_factorial", "MayaDiagram", "Flip.level", "Flip.sign",
         "Flip.slot", "flip_at", "CyclicStructure.k", "CyclicStructure.okamoto",
         "CyclicStructure.second_type", "CyclicStructure.from_json"),
)
@pytest.mark.parametrize("value", (0.1, 2.0, "1/3"), ids=("float", "whole-float", "str"))
def test_exact_inputs_only(make, value):
    with pytest.raises(TypeError):
        make(value)
