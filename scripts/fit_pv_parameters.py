#!/usr/bin/env python3
"""Re-derive the PV parameter map from the chains themselves.

The PV equation is linear in its four parameters, so given one of the
constructed period-4 solutions y(t) the identity can be solved exactly
for (a, b, c, d): sample the four coefficient functions at rational
points, solve the linear system, then confirm the residual vanishes
symbolically.  Sweeping structures and alpha samples shows the unique
solution always equals

    a = e12^2 / (2 D^2),  b = -e34^2 / (2 D^2),
    c = (D - e41 + e23) / 4,  d = -D^2 / 32,

with D the shift and e_ij the seed energy differences.  This is the map
implemented in dresschain.painleve; published per-case tables that
disagree with it (by constant factors) fail the equation outright.

For some very small seeds the solution is a Mobius function of t and the
coefficient functions become linearly dependent; those cases admit a line
of parameter values, which still contains the map above.

Usage: python scripts/fit_pv_parameters.py
"""

from fractions import Fraction

from dresschain.chain import build_even_chain
from dresschain.orthopoly import AlphaParam
from dresschain.painleve import pv_from_chain, pv_pieces, pv_residual
from dresschain.selftest import even_cells

ALPHAS = (Fraction(1, 3), Fraction(2, 5))


def solve_parameters(y):
    """Unique (a, b, c, d) with base = a A + b B + c C + d E, or None if
    the coefficient functions are linearly dependent along this y."""
    base, fa, fb, fc, fd = pv_pieces(y)
    rows = []
    point = Fraction(2)
    while len(rows) < 8:
        try:
            rows.append(
                [f.eval_at(point) for f in (fa, fb, fc, fd)] + [base.eval_at(point)]
            )
        except ZeroDivisionError:
            pass
        point += Fraction(1, 3)
    work = [row[:] for row in rows]
    used = []
    for col in range(4):
        pivot = next(
            (i for i in range(len(work)) if i not in used and work[i][col] != 0),
            None,
        )
        if pivot is None:
            return None
        used.append(pivot)
        for i in range(len(work)):
            if i != pivot and work[i][col] != 0:
                factor = work[i][col] / work[pivot][col]
                work[i] = [x - factor * p for x, p in zip(work[i], work[pivot])]
    params = [None] * 4
    for col, i in enumerate(used):
        params[col] = work[i][4] / work[i][col]
    residual = base - sum(p * f for p, f in zip(params, (fa, fb, fc, fd)))
    assert residual.is_zero, "solved parameters do not satisfy the equation"
    return tuple(params)


def cell_label(cs1, cs2):
    """The cell's name from its structures: the block of a (3,1) split,
    the Okamoto lengths of a (2,2) one."""
    if cs1.p == 3:
        ((lam, mu),) = cs1.second_type
        return "split (3,1) lam=%d mu=%d" % (lam, mu)
    return "split (2,2) a1=%d b1=%d" % (cs1.okamoto + cs2.okamoto)


def survey():
    for cs1, cs2, perm, _ in even_cells():
        if cs1.p + cs2.p != 4:
            continue
        for alpha_value in ALPHAS:
            sol = build_even_chain(cs1, cs2, AlphaParam(alpha_value), perm=perm)
            inst = pv_from_chain(sol)
            solved = solve_parameters(inst.y)
            implemented = (inst.a, inst.b, inst.c, inst.d)
            assert pv_residual(inst)
            if solved is None:
                status = "underdetermined (implemented map verified on the line)"
            elif solved == implemented:
                status = "unique solution == implemented map"
            else:
                status = "MISMATCH: solved %s" % (solved,)
            print(
                "%-26s alpha=%-4s (a,b,c,d)=(%s, %s, %s, %s)  %s"
                % (cell_label(cs1, cs2), alpha_value, *implemented, status)
            )


if __name__ == "__main__":
    survey()
