"""Dressing-chain assembly and exact verification.

A period-p chain is a ladder of p+1 seed-function Wronskians, one per flip
of the labeling diagram.  Each solution component is minus the logarithmic
x-derivative of the full gauge-tracked ratio of consecutive ladder entries:

    w_i = lin_i * x + inv_i / x + (dz/dx) d/dz log(P_{i-1} / P_i),

with lin_i = -omega * (exp-gauge increment) and inv_i = -2 * (z-power
increment).  Verification substitutes these exact rational functions into
the first-order cyclic system and checks every residual against the seed
energy differences, entirely in integer polynomial arithmetic.

The builders fix omega = OMEGA = 2: it makes z = x**(1+h) with parity
h = 0 in the odd (harmonic-seed) case and h = 1 in the even
(isotonic-seed) case, so every identity lives in a single rational
function field, and one parity-generic check serves both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm as _lcm
from typing import Optional, Sequence, Tuple

from .exact import Polynomial, RationalFunction, ZeroPolynomial, frac_str
from .maya import (
    NEGATIVE,
    POSITIVE,
    CyclicStructure,
    DegenerateStructure,
    Flip,
    FlipChain,
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
    translation_power,
)


class OddPeriodRequired(ValueError):
    """The harmonic-seed builder only produces odd-period chains."""


OMEGA = Fraction(2)


@dataclass(frozen=True)
class WTerm:
    """One chain component w(x) = lin*x + inv/x + (dz/dx) d/dz log(prev/next)."""

    lin: Fraction
    inv: Fraction
    log_prev: Polynomial
    log_next: Polynomial
    h: int  # parity: z = x**(1 + h), so 0 for odd and 1 for even chains

    def rational_part(self) -> RationalFunction:
        """The component v = x**h * w rewritten in z, as one reduced fraction:

            v(z) = lin*z + inv + (1 + h) z**h (P'Q - PQ')/(PQ),

        with P, Q the previous and next ladder entries.  Odd ladders carry
        no z-power, so inv = 0 there and v = w.
        """
        P, Q = self.log_prev, self.log_next
        if P.is_zero or Q.is_zero:
            raise ZeroPolynomial("log-derivative of a zero polynomial")
        h = self.h
        return RationalFunction(*_component(Polynomial((self.inv, self.lin)), P, Q, h, 1 + h))


@dataclass(frozen=True)
class EquationCheck:
    residual_constant: bool
    value: Optional[Fraction]
    expected: Fraction
    match: bool

    def to_json(self) -> dict:
        return {
            "residual_constant": self.residual_constant,
            "value": None if self.value is None else frac_str(self.value),
            "expected": frac_str(self.expected),
            "match": self.match,
        }


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ChainSolution:
    """Verified-form data of a period-p dressing chain solution.

    The ladder of p + 1 pseudo-Wronskians is the solution: the components
    `terms` are derived from it once, on construction, so
    dataclasses.replace(sol, ladder=...) carries matching terms.  Laguerre
    entries carry an alpha and Hermite entries None, which fixes h.
    """

    delta: Fraction
    expected_eps: Tuple[Fraction, ...]
    ladder: Tuple[PseudoWronskian, ...]
    chain_labels: FlipChain
    terms: Tuple[WTerm, ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        h = int(self.is_even)
        terms = tuple(
            WTerm(
                lin=-OMEGA * (cur.exp_coeff - prev.exp_coeff),
                inv=-2 * (cur.z_power - prev.z_power),
                log_prev=prev.prim,
                log_next=cur.prim,
                h=h,
            )
            for prev, cur in zip(self.ladder, self.ladder[1:])
        )
        object.__setattr__(self, "terms", terms)

    @property
    def period(self) -> int:
        return len(self.ladder) - 1

    @property
    def is_even(self) -> bool:
        return self.ladder[0].alpha is not None

    @property
    def translation(self) -> int:
        """The diagram translation k realized by the chain: delta is
        (1 + h) k omega."""
        return int(self.delta / ((1 + self.is_even) * OMEGA))


def _dynamic_signs(chain: FlipChain, start_states) -> FlipChain:
    """Re-tag each flip with the sign it actually had when applied.

    For a non-degenerate layout this equals the static assignment; inside
    a degenerate one, colliding flips swap signs pairwise depending on the
    order, and the replayed state is the ground truth.
    """
    flips = []
    for f, state in zip(chain.flips, start_states):
        d = state if isinstance(state, MayaDiagram) else state[f.slot - 1]
        sign = POSITIVE if f.level in d.entries else NEGATIVE
        flips.append(Flip(f.level, sign, f.slot))
    return FlipChain(tuple(flips))


def _assemble(
    chain: FlipChain,
    states: Sequence,
    ladder: Sequence[PseudoWronskian],
    seeds: Sequence[Fraction],
    delta: Fraction,
) -> ChainSolution:
    """The solution of a replayed chain: its ladder, the energy differences
    of consecutive seeds (the last one less the shift), and the flips
    re-tagged with their dynamic signs."""
    eps = [a - b for a, b in zip(seeds, seeds[1:])] + [seeds[-1] - seeds[0] - delta]
    return ChainSolution(
        delta=delta,
        expected_eps=tuple(eps),
        ladder=tuple(ladder),
        chain_labels=_dynamic_signs(chain, states[:-1]),
    )


def build_odd_chain(
    cs: CyclicStructure,
    perm: Optional[Sequence[int]] = None,
    allow_degenerate: bool = False,
) -> ChainSolution:
    """Chain solution from a harmonic-oscillator Wronskian ladder.

    The flips of the structure's chain (optionally permuted) are replayed
    on its diagram; each intermediate diagram contributes one Hermite
    Wronskian to the ladder.  Seed energies are level * omega.

    Degenerate layouts are refused unless allow_degenerate is set; the
    replayed chain still closes for them, so the solution verifies, but
    the diagram also carries a shorter chain of lower period.
    """
    if cs.p % 2 == 0:
        raise OddPeriodRequired("period %d is even" % cs.p)
    if cs.is_degenerate and not allow_degenerate:
        raise DegenerateStructure("degenerate block layout: %r" % (cs,))
    chain = static_flip_chain(cs)
    if perm is not None:
        chain = chain.permuted(perm)
    states = chain.states(build_diagram(cs)[0])
    ladder = [hermite_wronskian(s) for s in states]
    seeds = [f.level * OMEGA for f in chain.flips]
    return _assemble(chain, states, ladder, seeds, cs.k * OMEGA)


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
    state = (uc.first, uc.second)
    states = [state]
    for f in chain.flips:
        state = apply_uc_flip(state, f)
        states.append(state)
    ladder = [
        laguerre_pseudo_wronskian(UniversalCharacter(n, l), alpha)
        for n, l in states
    ]
    seeds = [
        2 * (f.level - (alpha.value if f.slot == 2 else 0)) * OMEGA
        for f in chain.flips
    ]
    return _assemble(chain, states, ladder, seeds, 2 * cs1.k * OMEGA)


# ---------------------------------------------------------------------------
# Verification.  Every equation is one identity between integer-coefficient
# polynomials, whether or not it holds; no polynomial gcds.


def _closure_exponent(sol: ChainSolution) -> int:
    if not sol.is_even:
        return 0
    return translation_power(sol.ladder[0].r, sol.translation)


def _closure_holds(sol: ChainSolution) -> bool:
    """Ladder closure: last determinant == const * z**e * first one, that
    is, equal primitive polynomials."""
    return sol.ladder[-1].prim == sol.ladder[0].prim.shifted(_closure_exponent(sol))


def _component(
    g0: Polynomial, U: Polynomial, V: Polynomial, h: int, cd: int
) -> tuple:
    """(N, UV) with N / (d0 UV) = g0/d0 + c z**h (log U/V)', where cd = c d0:
    N = g0 UV + c d0 z**h (U'V - UV')."""
    UV = U * V
    return g0 * UV + (U.derivative() * V - U * V.derivative()).shifted(h) * cd, UV


def _riccati(
    N: Polynomial,
    E: Polynomial,
    V: Polynomial,
    h: int,
    cd: int,
    M: Polynomial = Polynomial(),
) -> Polynomial:
    """V (E N - c d0 z**h N' - M) + 2 c d0 z**h V' N, where cd = c d0."""
    inner = E * N - N.derivative().shifted(h) * cd - M
    return V * inner + (V.derivative() * N).shifted(h) * (2 * cd)


def _check_equation(
    B: Polynomial,
    Pa: Polynomial,
    Pb: Polynomial,
    C: Polynomial,
    h: int,
    lin_a: Fraction,
    inv_a: Fraction,
    lin_b: Fraction,
    inv_b: Fraction,
    expected: Fraction,
) -> Optional[Fraction]:
    """The residual rho = -(w_a + w_b)' + w_b**2 - w_a**2 if it is a
    constant, else None.

    With c = 1 + h, d0 the common denominator of the gauge coefficients,
    a0 = d0 (inv_a + lin_a z) and b0 = d0 (inv_b + lin_b z), the components
    are v_a = a0/d0 + c z**h (log B/Pa)' and v_b = b0/d0 + c z**h (log Pb/C)',
    and z**h rho = -c z**h S' + S (h + D) for S = v_a + v_b, D = v_b - v_a.
    If Pa == Pb = P, write S = Sn / (d0 BC) (`_component`): the (BC)'/BC
    parts of -c z**h S' and of S D cancel, squares of B'/B and C'/C
    included, as in the bilinear form of the chain, and
    d0**2 z**h BCP rho = `_riccati`(Sn, b0 - a0 + h d0, P).  Otherwise (the
    wrap equation of an unclosed ladder) the squares of Pa'/Pa and Pb'/Pb
    stay: z**h rho = F(v_a) + G(v_b) with F, G = -c z**h v' + h v -+ v**2,
    where d0**2 B Pa**2 F(v_a) = `_riccati`(Na, h d0 - a0, Pa) and
    d0**2 C Pb**2 G(v_b) = `_riccati`(Nb, h d0 + b0, Pb).

    Either way rho = lhs / (d0**2 rhs), so rho is a constant k iff
    diff = lhs - expected d0**2 rhs is (k - expected) d0**2 rhs: zero, or
    the ratio of the leading coefficients, confirmed by one exact
    comparison.  Each ladder entry may be scaled freely.
    """
    d0 = _lcm(
        lin_a.denominator, inv_a.denominator, lin_b.denominator, inv_b.denominator
    )
    a0 = Polynomial((inv_a * d0, lin_a * d0))
    b0 = Polynomial((inv_b * d0, lin_b * d0))
    cd = (1 + h) * d0
    scale = d0 * d0
    if Pa == Pb:
        Sn, BC = _component(a0 + b0, B, C, h, cd)
        eps_part = BC.shifted(h) * (expected * scale)
        diff = _riccati(Sn, b0 - a0 + h * d0, Pa, h, cd, eps_part)
        if diff.is_zero:
            return expected
        rhs = (BC * Pa).shifted(h)
    else:
        Na, BPa = _component(a0, B, Pa, h, cd)
        Nb, PbC = _component(b0, Pb, C, h, cd)
        BPa2, CPb2 = BPa * Pa, PbC * Pb
        rhs = (BPa2 * CPb2).shifted(h)
        diff = (
            _riccati(Na, h * d0 - a0, Pa, h, cd) * CPb2
            + _riccati(Nb, b0 + h * d0, Pb, h, cd) * BPa2
            - rhs * (expected * scale)
        )
        if diff.is_zero:
            return expected
    k = diff.leading / (rhs.leading * scale)
    return expected + k if diff == rhs * (k * scale) else None


def verify_chain(sol: ChainSolution) -> VerificationReport:
    """Check every chain equation and the sum rule, exactly.

    Failures are report entries, not exceptions.  Each residual is read
    off as a constant, or found not to be one, by one cross-multiplied
    polynomial identity (`_check_equation`) and compared with the expected
    energy difference.
    """
    p = sol.period
    closed = _closure_holds(sol)
    e = _closure_exponent(sol)

    # every check is homogeneous in each ladder entry, so it reads the
    # primitive integer polynomials: small and exact arithmetic
    prims = [pw.prim for pw in sol.ladder]
    equations = []
    for i in range(1, p + 1):
        a = sol.terms[i - 1]
        b = sol.terms[i % p]
        expected = sol.expected_eps[i - 1]
        B, Pa, Pb, C = prims[i - 1], prims[i], prims[i % p], prims[i % p + 1]
        inv_a = a.inv
        if i == p and closed:
            # last determinant is z**e * first: same log derivative up to
            # e/z, absorbed into the 1/x coefficient
            Pa, inv_a = Pb, inv_a - 2 * e
        value = _check_equation(
            B, Pa, Pb, C, a.h, a.lin, inv_a, b.lin, b.inv, expected
        )
        equations.append(
            EquationCheck(value is not None, value, expected, value == expected)
        )

    # sum rule: total lin must be delta/2, total 1/x part must vanish
    lin_total = sum(t.lin for t in sol.terms)
    inv_total = sum(t.inv for t in sol.terms)
    sum_rule = closed and lin_total == sol.delta / 2 and inv_total == 2 * e
    return VerificationReport(
        period=p, delta=sol.delta, equations=tuple(equations), sum_rule=sum_rule
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
    h = hermite_wronskian(d).prim
    m = len(d.entries)
    constant = m * OMEGA - OMEGA / 2
    num = h.derivative().derivative() * h - h.derivative() * h.derivative()
    rational = RationalFunction(-OMEGA * num, h * h)
    return PotentialParts(
        rational=rational, harmonic_coeff=OMEGA * OMEGA / 4, constant=constant
    )
