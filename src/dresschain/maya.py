"""Maya diagram combinatorics.

A Maya diagram is an infinite row of levels, filled far to the left and
empty far to the right, encoded by the finite tuple N of its non-vacuum
data: level j is filled iff (j < 0 and j not in N) or (j >= 0 and j in N).
The canonical representative of a translation class is the strictly
positive tuple whose level 0 is the first empty level.

Cyclic diagrams (carried to their k-translate by p level flips) decompose
into stride-k blocks: k-1 "Okamoto" blocks anchored at 1..k-1 plus
(p-k)/2 free two-parameter blocks.  This module builds diagrams from that
block data, produces the flip chains that realize the translation, detects
degenerate (overlapping or merging) block layouts, and enumerates all
structures inside a parameter box.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, List, Sequence, Tuple


class InvalidParity(ValueError):
    """k must be one of admitted_shifts(p)."""


class DegenerateStructure(ValueError):
    """The block layout overlaps or merges; no static flip chain exists."""


class EnumerationTooLarge(ValueError):
    """The structure box exceeds ENUM_BUDGET (`enumerate_structures`)."""


class DiagramTooLarge(ValueError):
    """Block indices (`build_diagram`), or a ladder label's weight or kernel
    steps (the Wronskian entry functions), over DIAGRAM_BUDGET."""


class AmplitudeMismatch(ValueError):
    """The two components of a universal character must share the same k."""


POSITIVE = +1  # flip removes a particle (level was filled)
NEGATIVE = -1  # flip fills an empty level


@dataclass(frozen=True, slots=True)
class MayaDiagram:
    """Finite integer tuple encoding of a Maya diagram.

    Entries are integers (operator.index: a float or a str is a
    TypeError), strictly increasing and pairwise distinct.  A canonical
    diagram additionally has all entries >= 1 (level 0 empty).
    """

    entries: Tuple[int, ...]

    def __post_init__(self):
        entries = tuple(map(operator.index, self.entries))
        object.__setattr__(self, "entries", entries)
        for a, b in zip(entries, entries[1:]):
            if a >= b:
                raise ValueError("entries must be strictly increasing")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __contains__(self, level: int) -> bool:
        return level in self.entries

    @property
    def is_canonical(self) -> bool:
        return not self.entries or self.entries[0] >= 1

    @property
    def weight(self) -> int:
        """|lambda| = sum(entries) - m (m - 1) / 2, kept by translation and
        conjugation: the degree of the diagram's Hermite determinant."""
        return sum(self.entries) - len(self) * (len(self) - 1) // 2

    def is_filled(self, level: int) -> bool:
        if level < 0:
            return level not in self.entries
        return level in self.entries

    def to_json(self) -> list:
        return list(self.entries)


def canonicalize(raw: Iterable[int]) -> Tuple[MayaDiagram, int]:
    """Canonical representative of a raw index tuple, plus the offset used.

    Indices that repeat cancel pairwise, leaving the set S of those that
    appear an odd number of times: level j is filled iff (j < 0) != (j in S).
    The diagram is translated so that its first empty level lands at 0; the
    returned offset is that translation (filled levels move by +offset).
    """
    odd = {v for v, c in Counter(raw).items() if c % 2}

    def filled(j: int) -> bool:
        return (j < 0) != (j in odd)

    first_empty = min(odd | {0})
    while filled(first_empty):
        first_empty += 1
    top = max(odd | {0})
    entries = tuple(
        j - first_empty for j in range(first_empty, top + 1) if filled(j)
    )
    return MayaDiagram(entries), -first_empty


def translate(d: MayaDiagram, k: int) -> MayaDiagram:
    """k-translate of a canonical diagram: (0, ..., k-1) joined with d + k.

    k = 0 is permitted and is the identity.
    """
    if k < 0:
        raise ValueError("translation amplitude must be non-negative")
    if not d.is_canonical:
        raise ValueError("translate expects a canonical diagram")
    if k == 0:
        return d
    return MayaDiagram(tuple(range(k)) + tuple(n + k for n in d.entries))


def conjugate(d: MayaDiagram) -> MayaDiagram:
    """Canonical diagram of the conjugate partition (an involution).

    A canonical (c_1 < ... < c_m) carries the partition
    lambda_i = c_{m+1-i} - (m - i); its conjugate is the diagram of
    c_m - h over the holes h of d in [0, c_m), of size c_m - m + 1, and
    has the same `weight`.
    """
    if not d.is_canonical:
        raise ValueError("conjugate expects a canonical diagram")
    if not d.entries:
        return d
    top = d.entries[-1]
    filled = set(d.entries)
    return MayaDiagram(tuple(sorted(top - h for h in range(top) if h not in filled)))


def flip_at(d: MayaDiagram, level: int) -> MayaDiagram:
    """Toggle one level (>= 0): remove it if present, insert it if absent."""
    level = operator.index(level)
    if level < 0:
        raise ValueError("flips act on non-negative levels")
    entries = set(d.entries)
    if level in entries:
        entries.remove(level)
    else:
        entries.add(level)
    return MayaDiagram(tuple(sorted(entries)))


def spin_at(d: MayaDiagram, n: int) -> int:
    """Spin of level n for a canonical diagram: -1 filled, +1 empty."""
    if not d.is_canonical:
        raise ValueError("spin_at expects a canonical diagram")
    if n < 0 or n in d.entries:
        return -1
    return +1


@dataclass(frozen=True, slots=True)
class Flip:
    level: int
    sign: int  # POSITIVE removes, NEGATIVE inserts
    slot: int = 1  # universal characters tag flips with their component, 1 or 2

    def __post_init__(self):
        for name in ("level", "sign", "slot"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.sign not in (POSITIVE, NEGATIVE):
            raise ValueError("sign must be +1 or -1")
        if self.level < 0:
            raise ValueError("flip level must be non-negative")
        if self.slot not in (1, 2):
            raise ValueError("slot must be 1 or 2")


@dataclass(frozen=True, slots=True)
class FlipChain:
    """Ordered flips realizing a diagram's k-translation."""

    flips: Tuple[Flip, ...]

    @property
    def size(self) -> int:
        return len(self.flips)

    @property
    def translation(self) -> int:
        """Count(negative) - count(positive); equals k for a valid chain."""
        return sum(-f.sign for f in self.flips)

    def levels(self) -> Tuple[int, ...]:
        return tuple(f.level for f in self.flips)

    def apply(self, d: MayaDiagram) -> MayaDiagram:
        return self.states(d)[-1]

    def states(self, start, step: Callable = lambda d, f: flip_at(d, f.level)) -> list:
        """start and the label after each flip, step(label, flip) applying
        one: by default a diagram flipped at f.level, and with
        `apply_uc_flip` a universal character flipped in component f.slot."""
        out = [start]
        for f in self.flips:
            start = step(start, f)
            out.append(start)
        return out

    def permuted(self, order: Sequence[int]) -> "FlipChain":
        if sorted(order) != list(range(len(self.flips))):
            raise ValueError("order must be a permutation of 0..p-1")
        return FlipChain(tuple(self.flips[i] for i in order))

    def multiset(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(sorted((f.level, f.sign) for f in self.flips))


@dataclass(frozen=True, slots=True)
class CyclicStructure:
    """Block data (k | Okamoto lengths | free blocks) of a p-cyclic diagram.

    okamoto[l-1] is the length of the stride-k block anchored at l, for
    l in 1..k-1; length 0 means the block is absent.  Each second_type pair
    (lam, mu) is the block (lam, lam+k, ..., lam+(mu-1)k) with lam, mu >= 1.
    The period is p = k + 2*len(second_type).
    """

    k: int
    okamoto: Tuple[int, ...] = ()
    second_type: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self):
        # operator.index: a float or a str is a TypeError, not truncated
        object.__setattr__(self, "k", operator.index(self.k))
        object.__setattr__(self, "okamoto", tuple(map(operator.index, self.okamoto)))
        object.__setattr__(
            self, "second_type",
            tuple((operator.index(l), operator.index(m)) for l, m in self.second_type),
        )
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if len(self.okamoto) != self.k - 1:
            raise ValueError("need exactly k-1 Okamoto lengths")
        if any(a < 0 for a in self.okamoto):
            raise ValueError("Okamoto lengths must be >= 0")
        if any(l < 1 or m < 1 for l, m in self.second_type):
            raise ValueError("second-type parameters must be >= 1")

    @property
    def p(self) -> int:
        return self.k + 2 * len(self.second_type)

    def blocks(self) -> List[range]:
        """The stride-k index blocks: each present Okamoto block, then each
        free block."""
        k = self.k
        out = [range(l, l + a * k, k) for l, a in enumerate(self.okamoto, start=1) if a > 0]
        out.extend(range(l, l + m * k, k) for l, m in self.second_type)
        return out

    @property
    def is_degenerate(self) -> bool:
        return build_diagram(self)[1]

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "okamoto": list(self.okamoto),
            "blocks": [list(b) for b in self.second_type],
        }

    @classmethod
    def from_json(cls, data: dict) -> "CyclicStructure":
        return cls(data["k"], data.get("okamoto", ()), data.get("blocks", ()))


@dataclass(frozen=True, slots=True)
class UniversalCharacter:
    """Pair of Maya diagrams; first indexes the extended spectrum seeds,
    second the shadow-spectrum seeds of an isotonic extension."""

    first: MayaDiagram
    second: MayaDiagram

    def __post_init__(self):
        if not (isinstance(self.first, MayaDiagram) and isinstance(self.second, MayaDiagram)):
            raise TypeError("a universal character holds two Maya diagrams")


DIAGRAM_BUDGET = 800


def build_diagram(cs: CyclicStructure) -> Tuple[MayaDiagram, bool]:
    """Expand the block data; repeated indices cancel pairwise.

    The degenerate flag is set when two blocks overlap (share an index) or
    merge (are adjacent on the same stride-k support, including a free
    block continuing an Okamoto block, even one of length 0).  More than
    DIAGRAM_BUDGET block indices, the sum of the block lengths, are
    refused before any is expanded; on a non-degenerate layout, that is
    no diagram whose weight, at least its entry count, is within budget.
    """
    size = sum(cs.okamoto) + sum(m for _, m in cs.second_type)
    if size > DIAGRAM_BUDGET:
        raise DiagramTooLarge("%d block indices, over %d" % (size, DIAGRAM_BUDGET))
    counts = {}
    for b in cs.blocks():
        for idx in b:
            counts[idx] = counts.get(idx, 0) + 1
    entries = tuple(sorted(i for i, c in counts.items() if c % 2 == 1))
    degenerate = any(c > 1 for c in counts.values())

    if not degenerate:
        # merge test: any block starting exactly where another ends (a
        # block's start and end share a residue mod k, so one set of each
        # suffices).  Absent Okamoto blocks still anchor their residue, so
        # a free block starting at l with okamoto[l-1] == 0 merges too.
        okamoto = tuple(enumerate(cs.okamoto, start=1))
        starts = {l for l, a in okamoto if a > 0} | {l for l, _ in cs.second_type}
        ends = {l + a * cs.k for l, a in okamoto + cs.second_type}
        degenerate = bool(starts & ends)

    return MayaDiagram(entries), degenerate


def static_flip_chain(cs: CyclicStructure) -> FlipChain:
    """Block-order flip chain of a structure, without a degeneracy gate.

    Default order: the level-0 flip, the closure flip of each Okamoto
    block, then for each free block its opening (positive) and closing
    (negative) flip.  Any permutation also realizes the translation; for
    a degenerate layout the replay still works (flips commute as toggles)
    but individual signs are only correct as a multiset.
    """
    flips = [Flip(0, NEGATIVE)]
    for l, a in enumerate(cs.okamoto, start=1):
        flips.append(Flip(l + a * cs.k, NEGATIVE))
    for l, m in cs.second_type:
        flips.append(Flip(l, POSITIVE))
        flips.append(Flip(l + m * cs.k, NEGATIVE))
    return FlipChain(tuple(flips))


def minimal_flip_chain(d: MayaDiagram, k: int) -> FlipChain:
    """Minimal flip multiset carrying the canonical d to its k-translate.

    Scans each stride-k support for sign changes of the spin sequence; a
    flip sits one stride above each discontinuity.  The result is ordered
    by support and then by level.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not d.is_canonical:
        raise ValueError("minimal_flip_chain expects a canonical diagram")
    top = max(d.entries, default=-1)
    flips = []
    for residue in range(k):
        prev = -1  # level residue - k is negative, hence filled
        n = residue
        while n <= top + k:
            cur = spin_at(d, n)
            if cur != prev:
                sign = POSITIVE if d.is_filled(n) else NEGATIVE
                flips.append(Flip(n, sign))
            prev = cur
            n += k
    return FlipChain(tuple(flips))


def admitted_shifts(*periods: int) -> range:
    """The shifts k that structures of these periods can share: a
    p-cyclic structure has k - 1 Okamoto and (p - k) / 2 free blocks, and
    the components of a universal character share k (uc_flip_chain), so
    1 <= k <= min(periods) and k = p (mod 2) for every p."""
    top = min(periods)
    if top < 1 or len({p % 2 for p in periods}) > 1:
        return range(0)
    return range(2 - top % 2, top + 1, 2)


# The size of a structure box bounds the flips and diagram entries its
# structures carry, (p + L) (bound + 1)**(k - 1) bound**(p - k): k - 1
# Okamoto lengths in 0..bound and (p - k) / 2 block pairs in 1..bound, each
# structure with p flips and a diagram of at most
# L = bound (k - 1 + (p - k) / 2) entries, one per block index.  The largest
# box in use, p = k = 9 at bound 2, has size (9 + 16) 3**8 = 164025.
ENUM_BUDGET = 10 ** 6


def _box_size_capped(p: int, k: int, bound: int) -> int:
    """The size of the (p, k, bound) box, or a number above ENUM_BUDGET
    when it exceeds it.  p + L is compared first, and every factor past 1
    at least doubles the product, so at most log2(ENUM_BUDGET) of the
    factors are multiplied."""
    size = p + bound * (k - 1 + (p - k) // 2)
    for base, count in ((bound + 1, k - 1), (bound, p - k)):
        for _ in range(count if base > 1 else 0):
            if size > ENUM_BUDGET:
                return size
            size *= base
    return size


def enumerate_structures(p: int, k: int, bound: int) -> List[CyclicStructure]:
    """All structures with Okamoto lengths <= bound and block parameters
    <= bound, in lexicographic order.  Degenerate layouts are included;
    callers filter on is_degenerate.  A box of size above ENUM_BUDGET is
    refused before any work."""
    if p < 1 or k < 1 or bound < 1:
        raise ValueError("p, k, bound must be >= 1")
    if k not in admitted_shifts(p):
        raise InvalidParity("period %d admits no shift %d" % (p, k))
    if _box_size_capped(p, k, bound) > ENUM_BUDGET:
        raise EnumerationTooLarge(
            "period %d, shift %d, bound %d: more than %d flips and diagram"
            " entries to enumerate"
            % (p, k, bound, ENUM_BUDGET)
        )
    j = (p - k) // 2
    out = []
    for okamoto in itertools.product(range(bound + 1), repeat=k - 1):
        pair_space = itertools.product(
            itertools.product(range(1, bound + 1), repeat=2), repeat=j
        )
        for pairs in pair_space:
            out.append(CyclicStructure(k=k, okamoto=okamoto, second_type=pairs))
    return out


def uc_flip_chain(
    cs1: CyclicStructure, cs2: CyclicStructure
) -> Tuple[UniversalCharacter, FlipChain]:
    """Universal character and slot-tagged chain for a zero balanced
    translation amplitude (both components share the same k): the flips
    of cs1's static chain, which carry slot 1, then those of cs2's,
    tagged with slot 2."""
    if cs1.k != cs2.k:
        raise AmplitudeMismatch(
            "balanced translation amplitude must vanish: k1=%d k2=%d"
            % (cs1.k, cs2.k)
        )
    d1, _ = build_diagram(cs1)
    d2, _ = build_diagram(cs2)
    second = tuple(Flip(f.level, f.sign, slot=2) for f in static_flip_chain(cs2).flips)
    return UniversalCharacter(d1, d2), FlipChain(static_flip_chain(cs1).flips + second)


def apply_uc_flip(uc: UniversalCharacter, f: Flip) -> UniversalCharacter:
    """uc with level f.level flipped in its spectrum component (slot 1,
    `first`) or its shadow component (slot 2, `second`): the step of
    `FlipChain.states` on universal characters."""
    if f.slot == 1:
        return UniversalCharacter(flip_at(uc.first, f.level), uc.second)
    return UniversalCharacter(uc.first, flip_at(uc.second, f.level))
