"""Dressing-chain assembly and exact verification.

A period-p chain is a ladder of p+1 seed-function Wronskians, one per flip
of the labeling diagram.  Each solution component is minus the logarithmic
x-derivative of the full gauge-tracked ratio of consecutive ladder entries:

    w_i = lin_i * x + inv_i / x + (dz/dx) d/dz log(P_{i-1} / P_i),

with lin_i = -omega * (exp-gauge increment) and inv_i = -2 * (z-power
increment), integers over one denominator 2q for alpha = p/q (`_gauge`).
Verification substitutes these exact rational functions into the
first-order cyclic system and checks every residual against the seed
energy differences.  Cleared of denominators, each equation is one identity
between integer polynomials, and it is tested as one integer: its value at
z = 2**K, where 2**K exceeds a proven bound on its coefficients.  On an odd
ladder whose entries are each parity-definite, as Hermite Wronskians are,
every identity is parity-definite too, and z = 2**ceil(K/2) suffices
(`_stride`, `exact.bits_above`).

The builders fix omega = OMEGA = 2: it makes z = x**(1+h) with parity
h = 0 in the odd (harmonic-seed) case and h = 1 in the even
(isotonic-seed) case, so every identity lives in a single rational
function field, and one parity-generic check serves both.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _gcd
from typing import NamedTuple, Optional, Sequence, Tuple, Union

from .exact import Polynomial, RationalFunction, ZeroPolynomial, bits_above, frac_str, jet
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
    is -2 times the z-power increment, -Delta(4 q z_power) / (2 q); it is 0
    on an odd ladder.  Consecutive increments add, so a span of components
    has the gauge of its two end entries."""
    return cur.m + cur.r - prev.m - prev.r, prev.z_power_num - cur.z_power_num


@dataclass(frozen=True)
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

    The ladder of p + 1 pseudo-Wronskians is the solution: every component
    is read off it (`span`), and so are the labels and the flips, so
    dataclasses.replace(sol, ladder=...) has matching components, labels
    and flips.  Laguerre entries carry an alpha and Hermite entries None,
    which fixes h.
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

    def span(self, i: int, j: int) -> RationalFunction:
        """v_{i+1} + ... + v_j, with each component v = x**h w rewritten in
        z, as one reduced fraction.  The sum telescopes to ladder entries
        P = ladder[i] and Q = ladder[j]:

            lin*z + inv + (1 + h) z**h (P'Q - PQ')/(PQ),

        with (lin, inv) = _gauge(P, Q).  Odd ladders carry no z-power, so
        inv = 0 there and v = w.
        """
        prev, cur = self.ladder[i], self.ladder[j]
        lin, inv = _gauge(prev, cur)
        inv = Fraction(inv, 2 * cur.gauge_den)
        P, Q = prev.prim, cur.prim
        if P.is_zero or Q.is_zero:
            raise ZeroPolynomial("log-derivative of a zero polynomial")
        h = int(self.is_even)
        PQ = P * Q
        W = (P.derivative() * Q - P * Q.derivative()).shifted(h) * (1 + h)
        return RationalFunction(Polynomial((inv, lin)) * PQ + W, PQ)


def _assemble(ladder: Sequence[PseudoWronskian], flips: Sequence[Flip],
              delta: Fraction) -> ChainSolution:
    """The solution of a replayed ladder.  The seed of a flip at level n
    has energy (1 + h)(n - alpha [slot 2]) omega, and the energy
    differences are those of consecutive seeds, the last one less the
    shift."""
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
    ladder = [laguerre_pseudo_wronskian(uc, alpha)]
    for f in chain.flips:
        uc = UniversalCharacter(*apply_uc_flip((uc.first, uc.second), f))
        ladder.append(laguerre_pseudo_wronskian(uc, alpha))
    return _assemble(ladder, chain.flips, 2 * cs1.k * OMEGA)


# ---------------------------------------------------------------------------
# Verification.  Every equation is one identity between integer-coefficient
# polynomials, whether or not it holds, and it is tested as one integer: its
# value at z = 2**K.  No polynomial products and no gcds.


def _closure(sol: ChainSolution) -> Optional[int]:
    """The e >= 0, read off the degrees, with last determinant == const *
    z**e * first one (equal primitive polynomials up to z**e), or None
    when the ladder does not close.  An odd ladder closes with e = 0, an
    even one with the z power of its diagram translation."""
    first, last = sol.ladder[0].prim, sol.ladder[-1].prim
    e = last.degree - first.degree
    return e if e >= 0 and last == first.shifted(e) else None


class _Equation(NamedTuple):
    """One chain equation for `_sides`: the ladder indices of B, Pa, Pb and
    C, the parity h, the common denominator d0 of the gauge coefficients,
    the integer coefficients (of 1 and z) of the identity's linear
    polynomials, (S0, E) when Pa == Pb and (a0, Ea, b0, Eb) when not, and
    the expected eps."""

    entries: Tuple[int, int, int, int]
    h: int
    d0: int
    lines: Tuple[Tuple[int, int], ...]
    expected: Fraction

    def bounds(self, norms: Sequence) -> tuple:
        """l1 bounds of L and R (`_sides`), from the l1 norm jets of the
        ladder entries: the sides at z = 1 with every coefficient made
        nonnegative and every subtraction an addition."""
        lines = tuple((abs(g0), abs(g1)) for g0, g1 in self.lines)
        return _sides(self._replace(lines=lines), norms, lambda v: v, operator.add)


def _equation(
    entries: Tuple[int, int, int, int],
    same: bool,
    h: int,
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
    hd = h * d0
    if same:
        lines = ((a0 + b0, a1 + b1), (b0 - a0 + hd, b1 - a1))
    else:
        lines = ((a0, a1), (hd - a0, -a1), (b0, b1), (b0 + hd, b1))
    return _Equation(entries, h, d0, lines, expected)


def _numerator(g, dg, U, V, h, zh, cd, sub) -> tuple:
    """(N, N', UV) at one point, where N = g UV + c d0 z**h (U'V - UV') is
    d0 UV times the component g/d0 + c z**h (log U/V)'; cd = c d0, U and V
    are jets, and zh multiplies by z**h."""
    u, u1, u2 = U
    v, v1, v2 = V
    uv, t1, t2 = u * v, u1 * v, u * v1
    w = sub(t1, t2)
    n = g * uv + zh(cd * w)
    dn = dg * uv + g * (t1 + t2) + cd * (h * w + zh(sub(u2 * v, u * v2)))
    return n, dn, uv


def _lhs_part(n, dn, e, V, zh, cd, sub):
    """V (E N - c d0 z**h N') + 2 c d0 z**h V' N at one point."""
    v, v1, _ = V
    return v * sub(e * n, zh(cd * dn)) + zh(2 * cd * v1 * n)


def _sides(eq: _Equation, jets, times_z, sub) -> tuple:
    """(L, R) at the point z that times_z multiplies by, from the
    ladder-entry jets there: the residual
    rho = -(w_a + w_b)' + w_b**2 - w_a**2 of eq is constant exactly when
    L / R is, and then equals it.

    With c = 1 + h, a0 and b0 as in `_equation`, the components are
    v_a = a0/d0 + c z**h (log B/Pa)' and v_b = b0/d0 + c z**h (log Pb/C)',
    and z**h rho = -c z**h S' + S (h + D) for S = v_a + v_b, D = v_b - v_a.
    If Pa == Pb = P, write S = Sn / (d0 BC) (`_numerator`): the (BC)'/BC
    parts of -c z**h S' and of S D cancel, squares of B'/B and C'/C
    included, as in the bilinear form of the chain, and
    d0**2 z**h BCP rho = `_lhs_part`(Sn, b0 - a0 + h d0, P).  Otherwise (the
    wrap equation of an unclosed ladder) the squares of Pa'/Pa and Pb'/Pb
    stay: z**h rho = F(v_a) + G(v_b) with F, G = -c z**h v' + h v -+ v**2,
    where d0**2 B Pa**2 F(v_a) = `_lhs_part`(Na, h d0 - a0, Pa) and
    d0**2 C Pb**2 G(v_b) = `_lhs_part`(Nb, h d0 + b0, Pb).

    The same arithmetic bounds the coefficients (`_Equation.bounds`), by
    |f + g| <= |f| + |g|, |fg| <= |f| |g| and z**h free.
    """
    h, d0 = eq.h, eq.d0
    cd = (1 + h) * d0
    zh = times_z if h else (lambda v: v)
    B, Pa, Pb, C = (jets[j] for j in eq.entries)
    lines = [(g0 + times_z(g1), g1) for g0, g1 in eq.lines]
    if len(lines) == 2:
        (s, ds), (e, _) = lines
        n, dn, bc = _numerator(s, ds, B, C, h, zh, cd, sub)
        return _lhs_part(n, dn, e, Pa, zh, cd, sub), zh(d0 * d0 * bc * Pa[0])
    (a, da), (ea, _), (b, db), (eb, _) = lines
    na, dna, bpa = _numerator(a, da, B, Pa, h, zh, cd, sub)
    nb, dnb, pbc = _numerator(b, db, Pb, C, h, zh, cd, sub)
    bpa2, cpb2 = bpa * Pa[0], pbc * Pb[0]
    lhs = (
        _lhs_part(na, dna, ea, Pa, zh, cd, sub) * cpb2
        + _lhs_part(nb, dnb, eb, Pb, zh, cd, sub) * bpa2
    )
    return lhs, zh(d0 * d0 * bpa2 * cpb2)


def _bits(value: Fraction, bounds: tuple, stride: int) -> int:
    """The least K with 2**(stride K) above the l1 bounds of R and of
    den(value) L - num(value) R, given those of L and R."""
    lb, rb = bounds
    return bits_above(
        max(value.denominator * lb + abs(value.numerator) * rb, rb), stride
    )


def _stride(equations: Sequence[_Equation], coeffs: Sequence) -> int:
    """2 when every identity of the chain is parity-definite in z, else 1.

    That holds when every equation has h = 0 and gauge lines g1 z, as on
    every odd ladder, and every ladder entry is parity-definite: every
    other coefficient from the top is zero (`exact.bits_above`).  Mixed
    parity keeps stride 1.
    """
    if any(eq.h or any(g0 for g0, _ in eq.lines) for eq in equations):
        return 1
    if any(any(cs[-2::-2]) for cs in coeffs):
        return 1
    return 2


def _check_equation(
    eq: _Equation, coeffs: Sequence, jets: Sequence, k: int, bounds: tuple,
    stride: int,
) -> Optional[Fraction]:
    """The residual of eq if it is a constant, else None, from the jets of
    the ladder entries at z = 2**k, where
    k >= _bits(eq.expected, bounds, stride) and stride = _stride of the
    chain.

    rho is the constant q exactly when the integer polynomial
    den(q) L - num(q) R is zero.  If 2**(stride k) exceeds its l1 bound, it
    is zero exactly when its value at 2**k is: at stride 2 because L and R
    are then parity-definite of one parity (`exact.bits_above`).  The same
    bound on R makes R(2**k) nonzero.  So rho is eq.expected iff that value
    is 0; otherwise the only candidate is q = L(2**k) / R(2**k), which the
    value at 2**k cannot refute.  If L = q R, then q = L_j / R_j at a
    nonzero coefficient R_j, so den(q) and |num(q)| are at most the l1
    bounds of R and L; past them q is refuted.  Within them q is confirmed
    by its own bound, or by the entries repacked at _bits(q, bounds,
    stride) when that exceeds k.
    """
    sub = operator.sub
    lhs, rhs = _sides(eq, jets, lambda v: v << k, sub)
    e = eq.expected
    if e.denominator * lhs == e.numerator * rhs:
        return e
    value = Fraction(lhs, rhs)
    if value.denominator > bounds[1] or abs(value.numerator) > bounds[0]:
        return None
    k2 = _bits(value, bounds, stride)
    if k2 > k:
        jets = {j: jet(coeffs[j], k2) for j in set(eq.entries)}
        lhs, rhs = _sides(eq, jets, lambda v: v << k2, sub)
        if value.denominator * lhs != value.numerator * rhs:
            return None
    return value


def verify_chain(sol: ChainSolution) -> VerificationReport:
    """Check every chain equation and the sum rule, exactly.

    Failures are report entries, not exceptions.  Each residual is read
    off as a constant, or found not to be one, by one cross-multiplied
    integer identity (`_check_equation`) and compared with the expected
    energy difference.  Every ladder entry is packed once, at the one
    z = 2**K that the l1 bounds of all equations admit; on an odd ladder of
    parity-definite entries at half the bits (`_stride`).
    """
    p = sol.period
    e = _closure(sol)
    closed = e is not None

    # every check is homogeneous in each ladder entry, so it reads the
    # primitive integer polynomials: small and exact arithmetic
    coeffs = [pw.prim.int_coeffs for pw in sol.ladder]
    gauges = [_gauge(prev, cur) for prev, cur in zip(sol.ladder, sol.ladder[1:])]
    h = int(sol.is_even)
    den = 2 * sol.ladder[0].gauge_den
    equations = []
    for i in range(1, p + 1):
        gauge_a, gauge_b = gauges[i - 1], gauges[i % p]
        entries = (i - 1, i, i % p, i % p + 1)
        if i == p and closed:
            # last determinant is z**e * first: same log derivative up to
            # e/z, absorbed into the 1/x coefficient
            entries = (i - 1, 0, 0, 1)
            gauge_a = (gauge_a[0], gauge_a[1] - 2 * e * den)
        same = coeffs[entries[1]] == coeffs[entries[2]]
        equations.append(_equation(
            entries, same, h, den, gauge_a, gauge_b, sol.expected_eps[i - 1]
        ))
    stride = _stride(equations, coeffs)
    norms = [jet([abs(c) for c in cs], 0) for cs in coeffs]
    bounds = [eq.bounds(norms) for eq in equations]
    k = max(_bits(eq.expected, bound, stride) for eq, bound in zip(equations, bounds))
    jets = [jet(cs, k) for cs in coeffs]
    checks = [
        EquationCheck(_check_equation(eq, coeffs, jets, k, bound, stride), eq.expected)
        for eq, bound in zip(equations, bounds)
    ]

    # sum rule: the gauges telescope to the end entries; the total lin must
    # be delta/2, and the total 1/x part 2e, which the closure z**e cancels
    lin, inv = _gauge(sol.ladder[0], sol.ladder[-1])
    sum_rule = closed and 2 * lin == sol.delta and inv == 2 * e * den
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
    h = hermite_wronskian(d).prim
    m = len(d.entries)
    constant = m * OMEGA - OMEGA / 2
    num = h.derivative().derivative() * h - h.derivative() * h.derivative()
    rational = RationalFunction(-OMEGA * num, h * h)
    return PotentialParts(
        rational=rational, harmonic_coeff=OMEGA * OMEGA / 4, constant=constant
    )
