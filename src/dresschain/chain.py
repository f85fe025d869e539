"""Dressing-chain assembly and exact verification.

A period-p chain is a ladder of p+1 seed-function Wronskians, one per flip
of the labeling diagram.  Each solution component w_i is minus the
logarithmic x-derivative of the full gauge-tracked ratio of consecutive
ladder entries.  The builders fix omega = OMEGA = 2, and both families
live in the one variable z = x**2: a Hermite (odd, harmonic-seed) entry
is x**v times a polynomial in z, v the `low` of its label, a Laguerre
(even, isotonic-seed) one a power of z times one.  So every component is
odd in x, and v_i = x w_i is the rational function of z

    v_i = lin_i * z + inv_i + 2 z d/dz log(P_{i-1} / P_i),

with lin_i = -omega * (exp-gauge increment) and inv_i = -2 * (z-power
increment), integers over one denominator 2q for alpha = p/q (`_gauge`).
The P_i are the entries' `prim`, in z, each with a nonzero constant
term; an entry's power of z, a Hermite x**v = z**(v/2) included, is part
of its gauge.
Verification substitutes these exact rational functions into the
first-order cyclic system and checks every residual against the seed
energy differences.  Cleared of denominators, each equation is one identity
between integer polynomials in z, written once for both families
(`_sides`) and tested as one integer by `exact.vanishes`, which picks
the one point z = 2**K of the chain; an equation that fails there is
expanded in z to tell which constant, if any, its residual is.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _gcd
from typing import NamedTuple, Optional, Sequence, Tuple, Union

from .exact import (VARIABLE, Point, Polynomial, RationalFunction, ZeroPolynomial,
                    frac_str, vanishes)
from .maya import (
    NEGATIVE,
    POSITIVE,
    CyclicStructure,
    DegenerateStructure,
    Flip,
    MayaDiagram,
    UniversalCharacter,
    apply_uc_flip,
    build_diagram,
    static_flip_chain,
    uc_flip_chain,
)
from .orthopoly import AlphaParam
from .wronskian import (
    PseudoWronskian,
    hermite_wronskian,
    laguerre_pseudo_wronskian,
)


class OddPeriodRequired(ValueError):
    """The harmonic-seed builder only produces odd-period chains."""


OMEGA = Fraction(2)


def _gauge(prev: PseudoWronskian, cur: PseudoWronskian) -> Tuple[int, int]:
    """(lin, 2 q inv) of the components from ladder entry prev to cur, as
    integers, with q = cur.gauge_den (1 on an odd ladder).  lin is minus
    omega times the exp-gauge increment, Delta(m + r) at OMEGA = 2, and inv
    is -2 times the z-power increment, -Delta(4 q z_power) / (2 q); on an
    odd ladder it is v_prev - v_cur, the x**v of the entries.  Consecutive
    increments add, so a span of components has the gauge of its two end
    entries."""
    return cur.m + cur.r - prev.m - prev.r, prev.z_power_num - cur.z_power_num


@dataclass(frozen=True, slots=True)
class EquationCheck:
    """The constant an equation's residual reads off, None if it is not one."""

    value: Optional[Fraction]
    expected: Fraction

    @property
    def residual_constant(self) -> bool:
        return self.value is not None

    @property
    def match(self) -> bool:
        return self.value == self.expected

    def to_json(self) -> dict:
        return {
            "residual_constant": self.residual_constant,
            "value": None if self.value is None else frac_str(self.value),
            "expected": frac_str(self.expected),
            "match": self.match,
        }


@dataclass(frozen=True, slots=True)
class VerificationReport:
    period: int
    delta: Fraction
    equations: Tuple[EquationCheck, ...]
    sum_rule: bool

    @property
    def ok(self) -> bool:
        return self.sum_rule and all(eq.match for eq in self.equations)

    def to_json(self) -> dict:
        return {
            "period": self.period,
            "delta": frac_str(self.delta),
            "equations": [eq.to_json() for eq in self.equations],
            "sum_rule": self.sum_rule,
        }


@dataclass(frozen=True, slots=True)
class ChainSolution:
    """Verified-form data of a period-p dressing chain solution.

    The ladder of p + 1 pseudo-Wronskians is the solution: every component
    is read off it (`span`), and so are the labels and the flips, so
    dataclasses.replace(sol, ladder=...) has matching components, labels
    and flips.  Laguerre entries carry an alpha and Hermite entries None,
    which fixes the family.
    """

    delta: Fraction
    expected_eps: Tuple[Fraction, ...]
    ladder: Tuple[PseudoWronskian, ...]

    @property
    def period(self) -> int:
        return len(self.ladder) - 1

    @property
    def is_even(self) -> bool:
        return self.ladder[0].alpha is not None

    @property
    def labels(self) -> Tuple[Union[MayaDiagram, UniversalCharacter], ...]:
        """The index of each ladder entry: a MayaDiagram on an odd ladder,
        a UniversalCharacter on an even one."""
        return tuple(pw.label for pw in self.ladder)

    @property
    def flips(self) -> Tuple[Flip, ...]:
        """The flip from each label to the next: the one level where they
        differ, in the component (slot) that changed, POSITIVE when the
        earlier label held it.  Inside a degenerate layout a level flips
        twice, once each way, whatever signs the static chain gave."""
        out, labels = [], self.labels
        for prev, cur in zip(labels, labels[1:]):
            pairs = (zip((prev.first, prev.second), (cur.first, cur.second))
                     if self.is_even else [(prev, cur)])
            for slot, (a, b) in enumerate(pairs, start=1):
                if a != b:
                    (level,) = set(a.entries) ^ set(b.entries)
                    out.append(Flip(level, POSITIVE if level in a else NEGATIVE, slot))
        return tuple(out)

    def span_pair(self, i: int, j: int) -> Tuple[Polynomial, Polynomial]:
        """v_{i+1} + ... + v_j, each component v = x w in z = x**2, as the
        integer polynomials (A, B) of A / B, unreduced.  The sum telescopes
        to ladder entries P = ladder[i].prim and Q = ladder[j].prim: it is
        lin z + inv + 2z (P'Q - PQ')/(PQ), with (lin, 2q inv) = _gauge of the
        entries, so B = 2q PQ and A = (2q inv + 2q lin z) PQ + 4q z (P'Q - PQ').
        """
        prev, cur = self.ladder[i], self.ladder[j]
        lin, inv = _gauge(prev, cur)
        q2 = 2 * cur.gauge_den
        P, Q = prev.prim, cur.prim
        if P.is_zero or Q.is_zero:
            raise ZeroPolynomial("log-derivative of a zero polynomial")
        PQ = P * Q
        W = (P.derivative() * Q - P * Q.derivative()).shifted(1) * (2 * q2)
        return Polynomial((inv, q2 * lin)) * PQ + W, q2 * PQ

    def span(self, i: int, j: int) -> RationalFunction:
        """`span_pair` as one reduced fraction."""
        return RationalFunction(*self.span_pair(i, j))


def _assemble(ladder: Sequence[PseudoWronskian], flips: Sequence[Flip],
              delta: Fraction) -> ChainSolution:
    """The solution of a replayed ladder.  The seed of a flip at level n
    has energy (1 + h)(n - alpha [slot 2]) omega, h = 1 on an even ladder
    and 0 on an odd one, and the energy differences are those of
    consecutive seeds, the last one less the shift."""
    alpha = ladder[0].alpha
    h = int(alpha is not None)
    seeds = [(1 + h) * (f.level - (alpha if f.slot == 2 else 0)) * OMEGA for f in flips]
    eps = [a - b for a, b in zip(seeds, seeds[1:])] + [seeds[-1] - seeds[0] - delta]
    return ChainSolution(delta=delta, expected_eps=tuple(eps), ladder=tuple(ladder))


def build_odd_chain(
    cs: CyclicStructure,
    perm: Optional[Sequence[int]] = None,
    allow_degenerate: bool = False,
) -> ChainSolution:
    """Chain solution from a harmonic-oscillator Wronskian ladder.

    The flips of the structure's chain (optionally permuted) are replayed
    on its diagram; each intermediate diagram labels one Hermite
    Wronskian of the ladder.  Seed energies are level * omega.

    Degenerate layouts are refused unless allow_degenerate is set; the
    replayed chain still closes for them, so the solution verifies, but
    the diagram also carries a shorter chain of lower period.
    """
    if cs.p % 2 == 0:
        raise OddPeriodRequired("period %d is even" % cs.p)
    start, degenerate = build_diagram(cs)
    if degenerate and not allow_degenerate:
        raise DegenerateStructure("degenerate block layout: %r" % (cs,))
    chain = static_flip_chain(cs)
    if perm is not None:
        chain = chain.permuted(perm)
    ladder = [hermite_wronskian(d) for d in chain.states(start)]
    return _assemble(ladder, chain.flips, cs.k * OMEGA)


def build_even_chain(
    cs1: CyclicStructure,
    cs2: CyclicStructure,
    alpha: AlphaParam,
    perm: Optional[Sequence[int]] = None,
) -> ChainSolution:
    """Chain solution from an isotonic pseudo-Wronskian ladder.

    Slot-1 flips act on the spectrum component of the universal character
    (seed energy 2 nu omega), slot-2 flips on the shadow component (seed
    energy 2 (nu - alpha) omega).  The shift is 2 k omega.
    """
    uc, chain = uc_flip_chain(cs1, cs2)
    if perm is not None:
        chain = chain.permuted(perm)
    ladder = [laguerre_pseudo_wronskian(c, alpha) for c in chain.states(uc, apply_uc_flip)]
    return _assemble(ladder, chain.flips, 2 * cs1.k * OMEGA)


# ---------------------------------------------------------------------------
# Verification.  Every equation is one identity between integer-coefficient
# polynomials, and `exact.vanishes` tells whether it holds.  Only an
# equation that fails is expanded in z (`exact.VARIABLE`).  No gcds.


def _closure(sol: ChainSolution) -> bool:
    """Whether the last entry's `prim` is the first one's.  On an even
    ladder the determinants then differ by a constant and the z power of
    the diagram translation, which the gauges of the entries carry."""
    return sol.ladder[-1].prim == sol.ladder[0].prim


class _Equation(NamedTuple):
    """One chain equation for `_sides`: the ladder indices of B, Pa, Pb and
    C, the common denominator d0 of the gauge coefficients, the integer
    coefficients (of 1 and z) of the identity's linear polynomials, (S0, E)
    when Pa == Pb and (a0, Ea, b0, Eb) when not, and the expected eps."""

    entries: Tuple[int, int, int, int]
    d0: int
    lines: Tuple[Tuple[int, int], ...]
    expected: Fraction


def _equation(
    entries: Tuple[int, int, int, int],
    same: bool,
    den: int,
    gauge_a: Tuple[int, int],
    gauge_b: Tuple[int, int],
    expected: Fraction,
) -> _Equation:
    """The equation of components a and b, from their gauges (lin, den inv)
    as `_gauge` gives them, with den = 2 q: a0 = d0 (inv_a + lin_a z) and
    b0 = d0 (inv_b + lin_b z), d0 the least denominator of inv_a and inv_b;
    same says Pa == Pb."""
    (lin_a, inv_a), (lin_b, inv_b) = gauge_a, gauge_b
    t = _gcd(inv_a, inv_b, den)
    d0, a0, b0 = den // t, inv_a // t, inv_b // t
    a1, b1 = lin_a * d0, lin_b * d0
    if same:
        lines = ((a0 + b0, a1 + b1), (b0 - a0 + d0, b1 - a1))
    else:
        lines = ((a0, a1), (d0 - a0, -a1), (b0, b1), (b0 + d0, b1))
    return _Equation(entries, d0, lines, expected)


def _numerator(g, dg, U, V, cd, pt) -> tuple:
    """(N, N', UV) at the point pt, where N = g UV + 2 d0 z (U'V - UV') is
    d0 UV times the component g/d0 + 2 z (log U/V)'; cd = 2 d0, and U and
    V are jets."""
    times, sub = pt.times, pt.sub
    u, u1, u2 = U
    v, v1, v2 = V
    uv, t1, t2 = u * v, u1 * v, u * v1
    w = sub(t1, t2)
    n = g * uv + times(cd * w)
    dn = dg * uv + g * (t1 + t2) + cd * (w + times(sub(u2 * v, u * v2)))
    return n, dn, uv


def _lhs_part(n, dn, e, V, cd, pt):
    """V (E N - 2 d0 z N') + 4 d0 z V' N at the point pt."""
    v, v1, _ = V
    return v * pt.sub(e * n, pt.times(cd * dn)) + pt.times(2 * cd * v1 * n)


def _sides(eq: _Equation, jets, pt: Point) -> tuple:
    """(L, R) at the point pt (`exact.Point`), from the ladder-entry jets
    there: the residual
    rho = -(w_a + w_b)' + w_b**2 - w_a**2 of eq is constant exactly when
    L / R is, and then equals it.

    With a0 and b0 as in `_equation`, the components are
    v_a = a0/d0 + 2 z (log B/Pa)' and v_b = b0/d0 + 2 z (log Pb/C)', and
    z rho = -2 z S' + S (1 + D) for S = v_a + v_b, D = v_b - v_a.
    If Pa == Pb = P, write S = Sn / (d0 BC) (`_numerator`): the (BC)'/BC
    parts of -2 z S' and of S D cancel, squares of B'/B and C'/C
    included, as in the bilinear form of the chain, and
    d0**2 z BCP rho = `_lhs_part`(Sn, b0 - a0 + d0, P).  Otherwise (the
    wrap equation of an unclosed ladder) the squares of Pa'/Pa and Pb'/Pb
    stay: z rho = F(v_a) + G(v_b) with F, G = -2 z v' + v -+ v**2,
    where d0**2 B Pa**2 F(v_a) = `_lhs_part`(Na, d0 - a0, Pa) and
    d0**2 C Pb**2 G(v_b) = `_lhs_part`(Nb, d0 + b0, Pb).
    """
    d0 = eq.d0
    cd = 2 * d0
    times, const = pt.times, pt.const
    B, Pa, Pb, C = (jets[j] for j in eq.entries)
    lines = [(const(g0) + times(const(g1)), const(g1)) for g0, g1 in eq.lines]
    if len(lines) == 2:
        (s, ds), (e, _) = lines
        n, dn, bc = _numerator(s, ds, B, C, cd, pt)
        return _lhs_part(n, dn, e, Pa, cd, pt), times(d0 * d0 * bc * Pa[0])
    (a, da), (ea, _), (b, db), (eb, _) = lines
    na, dna, bpa = _numerator(a, da, B, Pa, cd, pt)
    nb, dnb, pbc = _numerator(b, db, Pb, C, cd, pt)
    bpa2, cpb2 = bpa * Pa[0], pbc * Pb[0]
    lhs = (
        _lhs_part(na, dna, ea, Pa, cd, pt) * cpb2
        + _lhs_part(nb, dnb, eb, Pb, cd, pt) * bpa2
    )
    return lhs, times(d0 * d0 * bpa2 * cpb2)


def _formula(eq: _Equation):
    """den(e) L - num(e) R at the point pt, e = eq.expected: the residual
    rho = L / R of eq is e exactly when this is the zero polynomial, as R
    is never zero."""
    e = eq.expected

    def f(jets, pt):
        lhs, rhs = _sides(eq, jets, pt)
        return pt.sub(e.denominator * lhs, pt.const(e.numerator) * rhs)

    return f


def _read_off(eq: _Equation, coeffs: Sequence) -> Optional[Fraction]:
    """The residual of an equation that is not its expected eps: L and R
    are expanded in z from eq's own entries (`exact.VARIABLE`), and rho
    is c = lead(L) / lead(R) if L = c R, no constant (None) if not.
    """
    poly_jets = {j: VARIABLE.jets(coeffs[j]) for j in set(eq.entries)}
    lhs, rhs = _sides(eq, poly_jets, VARIABLE)
    c = Fraction(0) if lhs.is_zero else lhs.leading / rhs.leading
    return c if lhs == rhs * c else None


def verify_chain(sol: ChainSolution) -> VerificationReport:
    """Check every chain equation and the sum rule, exactly.

    Failures are report entries, not exceptions; a zero ladder entry, which
    has no log-derivative, raises ZeroPolynomial, as `span` does.  Each
    equation says, as one cross-multiplied integer identity (`_formula`),
    that its residual is the expected energy difference.  One call of
    `exact.vanishes` tests them all and packs every ladder entry once; a
    closed ladder's last entry is its first.  An equation that fails reads
    its residual off in z (`_read_off`).
    """
    p = sol.period
    den = 2 * sol.ladder[0].gauge_den

    # every check is homogeneous in each ladder entry, so it reads the
    # primitive integer polynomials: small, exact arithmetic
    coeffs = [pw.prim.int_coeffs for pw in sol.ladder]
    if not all(coeffs):
        raise ZeroPolynomial("log-derivative of a zero polynomial")
    closed = _closure(sol)
    gauges = list(map(_gauge, sol.ladder, sol.ladder[1:]))
    equations = [
        _equation((i - 1, i, i % p, i % p + 1), i < p or closed, den,
                  gauges[i - 1], gauges[i % p], sol.expected_eps[i - 1])
        for i in range(1, p + 1)
    ]
    holds = vanishes(list(map(_formula, equations)), coeffs)
    checks = [
        EquationCheck(eq.expected if ok else _read_off(eq, coeffs), eq.expected)
        for eq, ok in zip(equations, holds)
    ]

    # sum rule: on a closed ladder the components add up to their gauges;
    # the total lin must be delta/2, and the total 1/x part 0
    lin, inv = map(sum, zip(*gauges))
    sum_rule = closed and 2 * lin == sol.delta and inv == 0
    return VerificationReport(
        period=p, delta=sol.delta, equations=tuple(checks), sum_rule=sum_rule
    )


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PotentialParts:
    """Extended potential split as harmonic_coeff * x**2 + constant + rational."""

    rational: RationalFunction
    harmonic_coeff: Fraction
    constant: Fraction


def potential_of(d: MayaDiagram) -> PotentialParts:
    """Exact rational part -2 (log W)'' of the extension labeled by d.

    The Wronskian's gauge contributes the constant m * OMEGA and leaves the
    harmonic term untouched; the polynomial part has definite parity, so
    its log-derivative data is rational in x.
    """
    if not d.is_canonical:
        raise ValueError("potential_of expects a canonical diagram")
    h = hermite_wronskian(d).core
    m = len(d.entries)
    constant = m * OMEGA - OMEGA / 2
    num = h.derivative().derivative() * h - h.derivative() * h.derivative()
    rational = RationalFunction(-OMEGA * num, h * h)
    return PotentialParts(
        rational=rational, harmonic_coeff=OMEGA * OMEGA / 4, constant=constant
    )
