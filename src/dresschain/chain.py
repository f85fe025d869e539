"""Dressing-chain assembly and exact verification.

A period-p chain is a ladder of p+1 seed-function Wronskians, one per flip
of the labeling diagram.  Each solution component is minus the logarithmic
x-derivative of the full gauge-tracked ratio of consecutive ladder entries:

    w_i = lin_i * x + inv_i / x + (dz/dx) d/dz log(P_{i-1} / P_i),

with lin_i = -omega * (exp-gauge increment) and inv_i = -2 * (z-power
increment).  Verification substitutes these exact rational functions into
the first-order cyclic system and checks every residual against the seed
energy differences, entirely in integer polynomial arithmetic.

Only omega = 2 is verified exactly: it makes z = x**(1+h) with parity
h = 0 in the odd (harmonic-seed) case and h = 1 in the even
(isotonic-seed) case, so every identity lives in a single rational
function field, and one parity-generic check serves both.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm as _lcm
from typing import List, Optional, Sequence, Tuple

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
)


class OddPeriodRequired(ValueError):
    """The harmonic-seed builder only produces odd-period chains."""


class UnsupportedOmega(ValueError):
    """Exact verification requires omega = 2."""


class SampleDegenerate(ValueError):
    """A ladder determinant vanished identically at this alpha sample."""


VAR_X = "x"  # z = x (odd chains)
VAR_X2 = "x2"  # z = x**2 (even chains)


@dataclass(frozen=True)
class WTerm:
    """One chain component w(x) = lin*x + inv/x + (dz/dx) d/dz log(prev/next)."""

    lin: Fraction
    inv: Fraction
    log_prev: Polynomial
    log_next: Polynomial
    variable_map: str

    @property
    def h(self) -> int:
        """Parity exponent: z = x**(1 + h), so 0 for odd and 1 for even chains."""
        return int(self.variable_map == VAR_X2)

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
        PQ = P * Q
        W = P.derivative() * Q - P * Q.derivative()
        return RationalFunction(
            Polynomial((self.inv, self.lin)) * PQ + W.shifted(h) * (1 + h), PQ
        )


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
    """Verified-form data of a period-p dressing chain solution."""

    period: int
    delta: Fraction
    omega: Fraction
    terms: Tuple[WTerm, ...]
    expected_eps: Tuple[Fraction, ...]
    ladder: Tuple[PseudoWronskian, ...]
    chain_labels: FlipChain

    @property
    def is_even(self) -> bool:
        return self.terms[0].variable_map == VAR_X2

    @property
    def translation(self) -> int:
        """The diagram translation k realized by the chain: delta is
        (1 + h) k omega."""
        return int(self.delta / ((1 + self.terms[0].h) * self.omega))


def _expected_eps(seeds: Sequence[Fraction], delta: Fraction) -> List[Fraction]:
    p = len(seeds)
    out = [seeds[i] - seeds[i + 1] for i in range(p - 1)]
    out.append(seeds[p - 1] - seeds[0] - delta)
    return out


def _guard_ladder(ladder: Sequence[PseudoWronskian]) -> None:
    for pw in ladder:
        if pw.poly.is_zero:
            raise SampleDegenerate(
                "a pseudo-Wronskian vanished identically; resample alpha"
            )


def _terms_from_ladder(
    ladder: Sequence[PseudoWronskian], omega: Fraction, variable_map: str
) -> List[WTerm]:
    terms = []
    for prev, cur in zip(ladder, ladder[1:]):
        d_exp = cur.exp_coeff - prev.exp_coeff
        d_pow = cur.z_power - prev.z_power
        terms.append(
            WTerm(
                lin=-omega * d_exp,
                inv=-2 * d_pow,
                log_prev=prev.poly,
                log_next=cur.poly,
                variable_map=variable_map,
            )
        )
    return terms


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


def build_odd_chain(
    cs: CyclicStructure,
    perm: Optional[Sequence[int]] = None,
    omega: Fraction = Fraction(2),
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
    omega = Fraction(omega)
    if omega != 2:
        raise UnsupportedOmega("exact verification requires omega = 2")
    p = cs.p
    if p % 2 == 0:
        raise OddPeriodRequired("period %d is even" % p)
    if cs.is_degenerate and not allow_degenerate:
        raise DegenerateStructure("degenerate block layout: %r" % (cs,))
    chain = static_flip_chain(cs)
    if perm is not None:
        chain = chain.permuted(perm)
    start, _ = build_diagram(cs)
    states = chain.states(start)
    chain = _dynamic_signs(chain, states[:-1])
    ladder = [hermite_wronskian(s) for s in states]
    _guard_ladder(ladder)
    delta = cs.k * omega
    seeds = [Fraction(f.level) * omega for f in chain.flips]
    return ChainSolution(
        period=p,
        delta=delta,
        omega=omega,
        terms=tuple(_terms_from_ladder(ladder, omega, VAR_X)),
        expected_eps=tuple(_expected_eps(seeds, delta)),
        ladder=tuple(ladder),
        chain_labels=chain,
    )


def build_even_chain(
    cs1: CyclicStructure,
    cs2: CyclicStructure,
    alpha: AlphaParam,
    perm: Optional[Sequence[int]] = None,
    omega: Fraction = Fraction(2),
) -> ChainSolution:
    """Chain solution from an isotonic pseudo-Wronskian ladder.

    Slot-1 flips act on the spectrum component of the universal character
    (seed energy 2 nu omega), slot-2 flips on the shadow component (seed
    energy 2 (nu - alpha) omega).  The shift is 2 k omega.
    """
    omega = Fraction(omega)
    if omega != 2:
        raise UnsupportedOmega("exact verification requires omega = 2")
    uc, chain = uc_flip_chain(cs1, cs2)
    if perm is not None:
        chain = chain.permuted(perm)
    state = (uc.first, uc.second)
    states = [state]
    for f in chain.flips:
        state = apply_uc_flip(state, f)
        states.append(state)
    chain = _dynamic_signs(chain, states[:-1])
    ladder = [
        laguerre_pseudo_wronskian(UniversalCharacter(n, l), alpha)
        for n, l in states
    ]
    _guard_ladder(ladder)
    delta = 2 * cs1.k * omega
    seeds = [
        (2 * Fraction(f.level) * omega)
        if f.slot == 1
        else (2 * (Fraction(f.level) - alpha.value) * omega)
        for f in chain.flips
    ]
    return ChainSolution(
        period=cs1.p + cs2.p,
        delta=delta,
        omega=omega,
        terms=tuple(_terms_from_ladder(ladder, omega, VAR_X2)),
        expected_eps=tuple(_expected_eps(seeds, delta)),
        ladder=tuple(ladder),
        chain_labels=chain,
    )


# ---------------------------------------------------------------------------
# Verification.  The happy path runs over integer-coefficient polynomials
# with a single cross-multiplied comparison per equation; no polynomial gcds.


def _closure_exponent(sol: ChainSolution) -> int:
    if not sol.is_even:
        return 0
    k = sol.translation
    r = sol.ladder[0].r
    return 2 * r * k + k * (k - 1)


def _closure_holds(sol: ChainSolution) -> bool:
    """Ladder closure: last determinant == const * z**e * first one."""
    first = sol.ladder[0].poly
    last = sol.ladder[-1].poly
    e = _closure_exponent(sol)
    shifted = first.shifted(e)
    if last.degree != shifted.degree:
        return False
    return last * shifted.leading == shifted * last.leading


def _check_equation(
    B: Polynomial,
    P: Polynomial,
    C: Polynomial,
    h: int,
    lin_a: Fraction,
    inv_a: Fraction,
    lin_b: Fraction,
    inv_b: Fraction,
    expected: Fraction,
) -> bool:
    """Exact check of -(w_a + w_b)' + w_b**2 - w_a**2 == expected.

    With w = v(z) / x**h and z = x**(1+h), w' = (1+h) v'(z) - h v/z and
    w**2 = v(z)**2 / z**h, so the residual is -(1+h) S' + S (h + D) / z**h
    with S = v_a + v_b and D = v_b - v_a.  Over ladder entries B, P, C the
    log-derivative parts are W/BC and cross/BPC, with W = B'C - BC' and
    cross = 2 P' BC - B' PC - C' PB.  The gauge coefficients are scaled by
    their common denominator d0 so every operand keeps integer coefficients.
    """
    d0 = _lcm(
        lin_a.denominator, inv_a.denominator, lin_b.denominator, inv_b.denominator
    )
    S0 = Polynomial(((inv_a + inv_b) * d0, (lin_a + lin_b) * d0))
    D0 = Polynomial(((inv_b - inv_a) * d0, (lin_b - lin_a) * d0))
    dB, dP, dC = B.derivative(), P.derivative(), C.derivative()
    BC = B * C
    BPC = BC * P
    W = dB * C - dC * B
    cross = 2 * (dP * BC) - (dB * (P * C) + dC * (P * B))
    c = (1 + h) * d0
    Sn = S0 * BC + W.shifted(h) * c
    Dn = D0 * BPC + cross.shifted(h) * c
    inner = P * (Sn.derivative() * BC - Sn * BC.derivative())
    num = inner.shifted(h) * -c + Sn * (BPC * (h * d0) + Dn)
    den = (BC * BPC).shifted(h)
    return num * expected.denominator == den * (expected.numerator * d0 * d0)


def _residual_rf(sol: ChainSolution, i: int) -> RationalFunction:
    """Slow exact residual of equation i (1-based), for diagnostics:
    -(1+h) s' + s (h + v_b - v_a) / z**h with s = v_a + v_b."""
    a = sol.terms[i - 1]
    b = sol.terms[i % sol.period]
    h = a.h
    va, vb = a.rational_part(), b.rational_part()
    s = va + vb
    return -(1 + h) * s.derivative() + s * ((h + vb - va) / Polynomial.monomial(h))


def verify_chain(sol: ChainSolution) -> VerificationReport:
    """Check every chain equation and the sum rule, exactly.

    Failures are report entries, not exceptions.  Residuals are compared
    against the expected energy differences by cross-multiplication; a
    mismatching equation is re-examined with full rational-function
    arithmetic so the report can state the actual constant, if any.
    """
    if sol.omega != 2:
        raise UnsupportedOmega("exact verification requires omega = 2")
    p = sol.period
    closed = _closure_holds(sol)
    e = _closure_exponent(sol)

    # every check is homogeneous in each ladder entry: integer entries
    # with coprime coefficients keep the arithmetic small and exact
    prims = [pw.poly.primitive() for pw in sol.ladder]
    equations = []
    for i in range(1, p + 1):
        a = sol.terms[i - 1]
        b = sol.terms[i % p]
        expected = sol.expected_eps[i - 1]
        wrap = i == p
        if closed:
            if wrap:
                # last determinant replaced by z**e * first: same log
                # derivative up to e/z, absorbed into the 1/x coefficient
                B, P, C = prims[p - 1], prims[0], prims[1]
                inv_a = a.inv - 2 * e
            else:
                B, P, C = prims[i - 1], prims[i], prims[i + 1]
                inv_a = a.inv
            ok = _check_equation(
                B, P, C, a.h, a.lin, inv_a, b.lin, b.inv, expected
            )
        else:
            ok = False
        if ok:
            equations.append(EquationCheck(True, expected, expected, True))
        else:
            residual = _residual_rf(sol, i)
            value = residual.constant_value()
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


def potential_of(d: MayaDiagram, omega: Fraction = Fraction(2)) -> PotentialParts:
    """Exact rational part -2 (log W)'' of the extension labeled by d.

    The Wronskian's gauge contributes the constant m * omega and leaves the
    harmonic term untouched; the polynomial part has definite parity, so
    its log-derivative data is rational in x for every rational omega.
    """
    if not d.is_canonical:
        raise ValueError("potential_of expects a canonical diagram")
    omega = Fraction(omega)
    h = hermite_wronskian(d).poly
    m = len(d.entries)
    constant = m * omega - omega / 2
    num = h.derivative().derivative() * h - h.derivative() * h.derivative()
    den = h * h
    inner = Polynomial((0, 0, omega / 2))  # z**2 = (omega/2) x**2
    rational = RationalFunction(
        -omega * num.decompress_even().compose(inner),
        den.decompress_even().compose(inner),
    )
    return PotentialParts(
        rational=rational, harmonic_coeff=omega * omega / 4, constant=constant
    )


DEFAULT_ALPHA_SAMPLES: Tuple[Fraction, ...] = (
    Fraction(1, 3),
    Fraction(2, 5),
    Fraction(7, 3),
    Fraction(5, 2),
    Fraction(-4, 3),
)


@dataclass(frozen=True)
class AlphaSweepReport:
    samples: Tuple[Fraction, ...]
    reports: Tuple[VerificationReport, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.reports)


def alpha_sampled_verify(
    cs1: CyclicStructure,
    cs2: CyclicStructure,
    samples: Optional[Sequence[AlphaParam]] = None,
    perm: Optional[Sequence[int]] = None,
) -> AlphaSweepReport:
    """Build and verify the even chain at several alpha samples.

    The residual identities are rational in alpha, so exact agreement at
    enough distinct samples certifies the identity; the default sweep uses
    five.  A vanishing ladder determinant raises SampleDegenerate.
    """
    if samples is None:
        samples = tuple(AlphaParam(v) for v in DEFAULT_ALPHA_SAMPLES)
    values = [a.value for a in samples]
    if len(set(values)) != len(values):
        raise ValueError("alpha samples must be distinct")
    reports = []
    for a in samples:
        sol = build_even_chain(cs1, cs2, a, perm=perm)
        reports.append(verify_chain(sol))
    return AlphaSweepReport(samples=tuple(values), reports=tuple(reports))
