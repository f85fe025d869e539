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
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple


class InvalidParity(ValueError):
    """p and k must satisfy k <= p and k == p (mod 2)."""


class DegenerateStructure(ValueError):
    """The block layout overlaps or merges; no static flip chain exists."""


class AmplitudeMismatch(ValueError):
    """The two components of a universal character must share the same k."""


POSITIVE = +1  # flip removes a particle (level was filled)
NEGATIVE = -1  # flip fills an empty level


@dataclass(frozen=True)
class MayaDiagram:
    """Finite integer tuple encoding of a Maya diagram.

    Entries are strictly increasing and pairwise distinct.  A canonical
    diagram additionally has all entries >= 1 (level 0 empty).
    """

    entries: Tuple[int, ...]

    def __post_init__(self):
        entries = tuple(int(n) for n in self.entries)
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
    def size(self) -> int:
        return len(self.entries)

    def is_filled(self, level: int) -> bool:
        if level < 0:
            return level not in self.entries
        return level in self.entries

    def to_json(self) -> list:
        return list(self.entries)

    @classmethod
    def from_json(cls, data: Sequence[int]) -> "MayaDiagram":
        return cls(tuple(sorted(int(v) for v in data)))


EMPTY_DIAGRAM = MayaDiagram(())


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
    has the same weight |lambda| = sum c - m (m - 1) / 2.
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


@dataclass(frozen=True)
class Block:
    """Stride-k index block (r, r+k, ..., r+(s-1)k)."""

    r: int
    s: int
    k: int

    def __post_init__(self):
        if self.r < 0 or self.s < 1 or self.k < 1:
            raise ValueError("block needs r >= 0, s >= 1, k >= 1")

    def indices(self) -> Tuple[int, ...]:
        return tuple(self.r + i * self.k for i in range(self.s))


@dataclass(frozen=True)
class Flip:
    level: int
    sign: int  # POSITIVE removes, NEGATIVE inserts
    slot: int = 1  # universal characters tag flips with their component

    def __post_init__(self):
        if self.sign not in (POSITIVE, NEGATIVE):
            raise ValueError("sign must be +1 or -1")
        if self.level < 0:
            raise ValueError("flip level must be non-negative")


@dataclass(frozen=True)
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
        for f in self.flips:
            d = flip_at(d, f.level)
        return d

    def states(self, d: MayaDiagram) -> List[MayaDiagram]:
        out = [d]
        for f in self.flips:
            d = flip_at(d, f.level)
            out.append(d)
        return out

    def permuted(self, order: Sequence[int]) -> "FlipChain":
        if sorted(order) != list(range(len(self.flips))):
            raise ValueError("order must be a permutation of 0..p-1")
        return FlipChain(tuple(self.flips[i] for i in order))

    def multiset(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(sorted((f.level, f.sign) for f in self.flips))


@dataclass(frozen=True)
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
        object.__setattr__(self, "okamoto", tuple(int(a) for a in self.okamoto))
        object.__setattr__(
            self, "second_type",
            tuple((int(l), int(m)) for l, m in self.second_type),
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

    def blocks(self) -> List[Block]:
        out = [
            Block(l, a, self.k)
            for l, a in enumerate(self.okamoto, start=1)
            if a > 0
        ]
        out.extend(Block(l, m, self.k) for l, m in self.second_type)
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
        return cls(
            k=int(data["k"]),
            okamoto=tuple(data.get("okamoto", ())),
            second_type=tuple(tuple(b) for b in data.get("blocks", ())),
        )


@dataclass(frozen=True)
class UniversalCharacter:
    """Pair of Maya diagrams; first indexes the extended spectrum seeds,
    second the shadow-spectrum seeds of an isotonic extension."""

    first: MayaDiagram
    second: MayaDiagram

    def to_json(self) -> dict:
        return {"N": self.first.to_json(), "L": self.second.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "UniversalCharacter":
        return cls(MayaDiagram.from_json(data["N"]), MayaDiagram.from_json(data["L"]))


def build_diagram(cs: CyclicStructure) -> Tuple[MayaDiagram, bool]:
    """Expand the block data; repeated indices cancel pairwise.

    The degenerate flag is set when two blocks overlap (share an index) or
    merge (are adjacent on the same stride-k support, including a free
    block continuing an Okamoto block, even one of length 0).
    """
    counts = {}
    for b in cs.blocks():
        for idx in b.indices():
            counts[idx] = counts.get(idx, 0) + 1
    entries = tuple(sorted(i for i, c in counts.items() if c % 2 == 1))
    degenerate = any(c > 1 for c in counts.values())

    if not degenerate:
        # merge test per residue class: any block starting exactly where
        # another ends.  Absent Okamoto blocks still anchor their residue,
        # so a free block starting at l with okamoto[l-1] == 0 merges too.
        starts = {}
        ends = {}
        for l, a in enumerate(cs.okamoto, start=1):
            ends.setdefault(l % cs.k, set()).add(l + a * cs.k)
            if a > 0:
                starts.setdefault(l % cs.k, set()).add(l)
        for l, m in cs.second_type:
            starts.setdefault(l % cs.k, set()).add(l)
            ends.setdefault(l % cs.k, set()).add(l + m * cs.k)
        for res, ss in starts.items():
            if ss & ends.get(res, set()):
                degenerate = True
                break

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


def flip_chain_of(cs: CyclicStructure) -> FlipChain:
    """Static flip chain of a non-degenerate structure, in block order."""
    if cs.is_degenerate:
        raise DegenerateStructure("degenerate block layout: %r" % (cs,))
    return static_flip_chain(cs)


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


def enumerate_structures(p: int, k: int, bound: int) -> List[CyclicStructure]:
    """All structures with Okamoto lengths <= bound and block parameters
    <= bound, in lexicographic order.  Degenerate layouts are included;
    callers filter on is_degenerate."""
    if p < 1 or k < 1 or bound < 1:
        raise ValueError("p, k, bound must be >= 1")
    if k > p or (p - k) % 2 != 0:
        raise InvalidParity("need k <= p with k and p of equal parity")
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
    translation amplitude (both components share the same k)."""
    if cs1.k != cs2.k:
        raise AmplitudeMismatch(
            "balanced translation amplitude must vanish: k1=%d k2=%d"
            % (cs1.k, cs2.k)
        )
    d1, _ = build_diagram(cs1)
    d2, _ = build_diagram(cs2)
    first = static_flip_chain(cs1)
    second = static_flip_chain(cs2)
    tagged = tuple(
        Flip(f.level, f.sign, slot=1) for f in first.flips
    ) + tuple(Flip(f.level, f.sign, slot=2) for f in second.flips)
    return UniversalCharacter(d1, d2), FlipChain(tagged)


def apply_uc_flip(
    state: Tuple[MayaDiagram, MayaDiagram], f: Flip
) -> Tuple[MayaDiagram, MayaDiagram]:
    if f.slot == 1:
        return flip_at(state[0], f.level), state[1]
    return state[0], flip_at(state[1], f.level)
