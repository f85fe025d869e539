import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dresschain.maya import (
    NEGATIVE,
    POSITIVE,
    AmplitudeMismatch,
    CyclicStructure,
    DegenerateStructure,
    InvalidParity,
    MayaDiagram,
    UniversalCharacter,
    build_diagram,
    canonicalize,
    conjugate,
    enumerate_structures,
    flip_at,
    flip_chain_of,
    minimal_flip_chain,
    spin_at,
    static_flip_chain,
    translate,
    uc_flip_chain,
)

EMPTY = MayaDiagram(())


# -- canonical forms ----------------------------------------------------------

def test_canonicalize_negative_entries():
    d, offset = canonicalize((-1, 0, 2))
    assert d.entries == (1, 3) and offset == 1


def test_canonicalize_already_canonical():
    d, offset = canonicalize((1, 3))
    assert d.entries == (1, 3) and offset == 0


def test_canonicalize_pair_suppression():
    # (2,2) cancels; (5,) already has level 0 as its first empty level
    d, offset = canonicalize((2, 2, 5))
    assert d.entries == (5,) and offset == 0


def test_canonicalize_removes_removable_blocks():
    d, offset = canonicalize((0, 1, 3))
    assert d.entries == (1,) and offset == -2


canonical_diagrams = st.sets(st.integers(1, 9), max_size=4).map(
    lambda s: MayaDiagram(tuple(sorted(s)))
)


@settings(max_examples=80, deadline=None)
@given(canonical_diagrams, st.integers(1, 3))
def test_canonicalize_constant_on_translates(d, k):
    shifted = translate(d, k)
    back, offset = canonicalize(shifted.entries)
    assert back == d and offset == -k


@settings(max_examples=80, deadline=None)
@given(canonical_diagrams)
def test_canonicalize_idempotent(d):
    once, offset = canonicalize(d.entries)
    assert once == d and offset == 0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-6, 8), max_size=8))
def test_canonicalize_matches_definition(raw):
    # level j of the raw tuple is filled iff (j < 0) != (j occurs an odd
    # number of times); canonicalize translates it by the returned offset
    canon, offset = canonicalize(raw)
    assert canon.is_canonical
    for j in range(-16, 18):
        filled = (j < 0) != (raw.count(j) % 2 == 1)
        assert filled == canon.is_filled(j + offset), j


def _weight(d):
    return sum(d.entries) - len(d) * (len(d) - 1) // 2


def test_conjugate_examples():
    assert conjugate(MayaDiagram((1, 2))).entries == (2,)
    assert conjugate(MayaDiagram((3,))).entries == (1, 2, 3)
    assert conjugate(MayaDiagram((1, 3))).entries == (1, 3)
    assert conjugate(EMPTY) == EMPTY
    with pytest.raises(ValueError):
        conjugate(MayaDiagram((0, 2)))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 20), max_size=10, unique=True))
def test_conjugate_is_weight_keeping_involution(entries):
    d = MayaDiagram(tuple(sorted(entries)))
    c = conjugate(d)
    assert c.is_canonical and conjugate(c) == d
    assert _weight(c) == _weight(d)
    if d.entries:
        assert len(c) == d.entries[-1] - len(d) + 1


# -- translations, flips, spins ------------------------------------------------

def test_translate_examples():
    assert translate(MayaDiagram((1, 3)), 2).entries == (0, 1, 3, 5)
    assert translate(EMPTY, 1).entries == (0,)
    assert translate(MayaDiagram((1, 2)), 3).entries == (0, 1, 2, 4, 5)
    assert translate(MayaDiagram((1, 2)), 0).entries == (1, 2)


def test_flip_examples():
    assert flip_at(MayaDiagram((2, 3)), 2).entries == (3,)
    assert flip_at(MayaDiagram((2, 3)), 0).entries == (0, 2, 3)
    d = MayaDiagram((2, 3))
    for level in (2, 4, 0):
        d = flip_at(d, level)
    assert d == translate(MayaDiagram((2, 3)), 1)


def test_spin_examples():
    d = MayaDiagram((1, 3))
    assert spin_at(d, -5) == -1
    assert spin_at(d, 0) == +1
    assert spin_at(d, 3) == -1
    assert spin_at(d, 2) == +1


def test_diagram_validation():
    with pytest.raises(ValueError):
        MayaDiagram((3, 1))
    with pytest.raises(ValueError):
        MayaDiagram((1, 1))
    with pytest.raises(ValueError):
        flip_at(EMPTY, -1)


# -- block structures -----------------------------------------------------------

def test_build_diagram_gh_block():
    d, degenerate = build_diagram(CyclicStructure(k=1, second_type=((2, 2),)))
    assert d.entries == (2, 3) and not degenerate


def test_build_diagram_okamoto():
    d, degenerate = build_diagram(CyclicStructure(k=3, okamoto=(1, 1)))
    assert d.entries == (1, 2) and not degenerate


def test_build_diagram_overlap_cancels_pairwise():
    d, degenerate = build_diagram(
        CyclicStructure(k=1, second_type=((1, 2), (2, 1)))
    )
    assert d.entries == (1,) and degenerate


def test_build_diagram_merge_flagged():
    # adjacent free blocks fuse into one longer block
    cs = CyclicStructure(k=1, second_type=((1, 1), (2, 2)))
    d, degenerate = build_diagram(cs)
    assert d.entries == (1, 2, 3) and degenerate
    # an Okamoto closure continued by a free block is degenerate too
    cs = CyclicStructure(k=3, okamoto=(1, 1), second_type=((4, 1),))
    assert cs.is_degenerate


def test_okamoto_gh_coincidences():
    # small Okamoto diagrams coincide with generalized-Hermite blocks
    assert build_diagram(CyclicStructure(k=3, okamoto=(1, 1)))[0] == \
        build_diagram(CyclicStructure(k=1, second_type=((1, 2),)))[0]
    assert build_diagram(CyclicStructure(k=3, okamoto=(1, 0)))[0] == \
        build_diagram(CyclicStructure(k=1, second_type=((1, 1),)))[0]
    assert build_diagram(CyclicStructure(k=3, okamoto=(0, 1)))[0] == \
        build_diagram(CyclicStructure(k=1, second_type=((2, 1),)))[0]


# -- flip chains -----------------------------------------------------------------

def test_flip_chain_gh():
    cs = CyclicStructure(k=1, second_type=((2, 2),))
    chain = flip_chain_of(cs)
    assert chain.multiset() == ((0, NEGATIVE), (2, POSITIVE), (4, NEGATIVE))
    d, _ = build_diagram(cs)
    assert chain.apply(d) == translate(d, 1)


def test_flip_chain_okamoto():
    cs = CyclicStructure(k=3, okamoto=(1, 1))
    chain = flip_chain_of(cs)
    assert chain.multiset() == ((0, NEGATIVE), (4, NEGATIVE), (5, NEGATIVE))
    d, _ = build_diagram(cs)
    assert chain.apply(d) == translate(d, 3)


def test_flip_chain_zero_lengths():
    cs = CyclicStructure(k=5, okamoto=(0, 0, 0, 0))
    chain = flip_chain_of(cs)
    assert sorted(chain.levels()) == [0, 1, 2, 3, 4]
    assert chain.apply(EMPTY) == translate(EMPTY, 5)


def test_flip_chain_rejects_degenerate():
    cs = CyclicStructure(k=1, second_type=((1, 2), (2, 1)))
    with pytest.raises(DegenerateStructure):
        flip_chain_of(cs)
    # the unchecked variant still closes the translation
    d, _ = build_diagram(cs)
    assert static_flip_chain(cs).apply(d) == translate(d, 1)


def test_permutation_validation():
    chain = flip_chain_of(CyclicStructure(k=1, second_type=((2, 2),)))
    assert chain.permuted((2, 0, 1)).levels() == (4, 0, 2)
    with pytest.raises(ValueError):
        chain.permuted((0, 0, 1))


def test_minimal_flip_chain_examples():
    assert sorted(minimal_flip_chain(MayaDiagram((2, 3)), 1).levels()) == [0, 2, 4]
    assert minimal_flip_chain(EMPTY, 1).levels() == (0,)
    assert sorted(minimal_flip_chain(MayaDiagram((1, 3)), 2).levels()) == [0, 5]


@settings(max_examples=80, deadline=None)
@given(canonical_diagrams, st.integers(1, 3))
def test_minimal_chain_realizes_translation(d, k):
    chain = minimal_flip_chain(d, k)
    assert chain.apply(d) == translate(d, k)
    assert chain.translation == k
    assert (chain.size - k) % 2 == 0


@settings(max_examples=60, deadline=None)
@given(canonical_diagrams, st.integers(1, 3))
def test_trivial_cyclicity(d, k):
    # flipping every level of d, of d+k, and of 0..k-1 translates by k
    levels = list(d.entries) + [n + k for n in d.entries] + list(range(k))
    state = d
    for level in levels:
        state = flip_at(state, level)
    assert state == translate(d, k)


def test_lemma_counts_on_enumerated_chains():
    for p, k in ((1, 1), (3, 1), (3, 3), (5, 1), (5, 3), (5, 5)):
        for cs in enumerate_structures(p, k, 2):
            chain = static_flip_chain(cs)
            assert chain.size == p
            assert chain.translation == k
            d, _ = build_diagram(cs)
            assert chain.apply(d) == translate(d, k)
            if not cs.is_degenerate:
                assert minimal_flip_chain(d, k).multiset() == chain.multiset()


# -- enumeration ------------------------------------------------------------------

def test_enumerate_counts():
    assert len(enumerate_structures(1, 1, 5)) == 1
    assert len(enumerate_structures(3, 3, 1)) == 4
    assert len(enumerate_structures(3, 1, 2)) == 4
    assert len(enumerate_structures(5, 3, 1)) == 4


def test_enumerate_lexicographic_and_flagging():
    out = enumerate_structures(3, 1, 2)
    assert [cs.second_type for cs in out] == [
        ((1, 1),), ((1, 2),), ((2, 1),), ((2, 2),)
    ]
    flagged = [cs for cs in enumerate_structures(5, 1, 2) if cs.is_degenerate]
    assert flagged  # kept, not dropped


def test_enumerate_parity_errors():
    with pytest.raises(InvalidParity):
        enumerate_structures(3, 2, 1)
    with pytest.raises(InvalidParity):
        enumerate_structures(3, 5, 1)


# -- universal characters -----------------------------------------------------------

def test_uc_flip_chain_examples():
    lam, mu = 2, 3
    uc, chain = uc_flip_chain(
        CyclicStructure(k=1, second_type=((lam, mu),)), CyclicStructure(k=1)
    )
    assert uc.first.entries == tuple(range(lam, lam + mu))
    assert uc.second.entries == ()
    slot1 = [f.level for f in chain.flips if f.slot == 1]
    slot2 = [f.level for f in chain.flips if f.slot == 2]
    assert sorted(slot1) == [0, lam, lam + mu] and slot2 == [0]

    uc, chain = uc_flip_chain(CyclicStructure(k=1), CyclicStructure(k=1))
    assert uc.first == EMPTY and uc.second == EMPTY
    assert [(f.level, f.slot) for f in chain.flips] == [(0, 1), (0, 2)]

    a1, b1 = 2, 1
    uc, chain = uc_flip_chain(
        CyclicStructure(k=2, okamoto=(a1,)), CyclicStructure(k=2, okamoto=(b1,))
    )
    assert sorted(f.level for f in chain.flips if f.slot == 1) == [0, 1 + 2 * a1]
    assert sorted(f.level for f in chain.flips if f.slot == 2) == [0, 1 + 2 * b1]


def test_uc_flip_chain_amplitude_mismatch():
    with pytest.raises(AmplitudeMismatch):
        uc_flip_chain(CyclicStructure(k=1), CyclicStructure(k=3, okamoto=(1, 1)))


# -- serialization --------------------------------------------------------------------

def test_json_round_trips():
    d = MayaDiagram((1, 4, 6))
    assert MayaDiagram.from_json(d.to_json()) == d
    cs = CyclicStructure(k=2, okamoto=(1,), second_type=((2, 2),))
    assert CyclicStructure.from_json(cs.to_json()) == cs
    uc = UniversalCharacter(d, EMPTY)
    assert UniversalCharacter.from_json(uc.to_json()) == uc
