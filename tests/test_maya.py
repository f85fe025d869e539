from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dresschain.chain import build_odd_chain
from dresschain.maya import (
    NEGATIVE,
    POSITIVE,
    AmplitudeMismatch,
    CyclicStructure,
    DIAGRAM_BUDGET,
    ENUM_BUDGET,
    DegenerateStructure,
    DiagramTooLarge,
    EnumerationTooLarge,
    Flip,
    InvalidParity,
    MayaDiagram,
    _box_size_capped,
    admitted_shifts,
    build_diagram,
    canonicalize,
    conjugate,
    enumerate_structures,
    flip_at,
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


@pytest.mark.parametrize(
    "args", ((0, NEGATIVE, 0), (0, NEGATIVE, 3), (1, 0, 1), (1, 2, 1), (-1, POSITIVE, 1)),
    ids=("slot-0", "slot-3", "sign-0", "sign-2", "level--1"),
)
def test_flip_validation(args):
    # a flip toggles a non-negative level, removing (+1) or inserting (-1)
    # it, in the spectrum (slot 1) or shadow (slot 2) component
    with pytest.raises(ValueError):
        Flip(*args)


# -- block structures -----------------------------------------------------------

def test_build_diagram_gh_block():
    d, degenerate = build_diagram(CyclicStructure(k=1, second_type=((2, 2),)))
    assert d.entries == (2, 3) and not degenerate


def test_build_diagram_okamoto():
    d, degenerate = build_diagram(CyclicStructure(k=3, okamoto=(1, 1)))
    assert d.entries == (1, 2) and not degenerate


def test_build_diagram_budget_counts_every_block_index():
    # Okamoto and free blocks both count; one index past the budget is
    # refused, whatever its length would cost
    assert DIAGRAM_BUDGET == 1000
    d, _ = build_diagram(CyclicStructure(k=3, okamoto=(400, 0), second_type=((3, 600),)))
    assert len(d.entries) == 1000
    for cs in (CyclicStructure(k=3, okamoto=(401, 0), second_type=((3, 600),)),
               CyclicStructure(k=3, okamoto=(400, 0), second_type=((3, 601),)),
               CyclicStructure(k=1, second_type=((1, 10 ** 30),))):
        with pytest.raises(DiagramTooLarge):
            build_diagram(cs)


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
    chain = static_flip_chain(cs)
    assert chain.multiset() == ((0, NEGATIVE), (2, POSITIVE), (4, NEGATIVE))
    d, _ = build_diagram(cs)
    assert chain.apply(d) == translate(d, 1)


def test_flip_chain_okamoto():
    cs = CyclicStructure(k=3, okamoto=(1, 1))
    chain = static_flip_chain(cs)
    assert chain.multiset() == ((0, NEGATIVE), (4, NEGATIVE), (5, NEGATIVE))
    d, _ = build_diagram(cs)
    assert chain.apply(d) == translate(d, 3)


def test_flip_chain_zero_lengths():
    cs = CyclicStructure(k=5, okamoto=(0, 0, 0, 0))
    chain = static_flip_chain(cs)
    assert sorted(chain.levels()) == [0, 1, 2, 3, 4]
    assert chain.apply(EMPTY) == translate(EMPTY, 5)


def test_flip_chain_rejects_degenerate():
    cs = CyclicStructure(k=1, second_type=((1, 2), (2, 1)))
    with pytest.raises(DegenerateStructure, match="degenerate block layout"):
        build_odd_chain(cs)
    # the ungated chain still closes the translation
    d, _ = build_diagram(cs)
    assert static_flip_chain(cs).apply(d) == translate(d, 1)


def test_permutation_validation():
    chain = static_flip_chain(CyclicStructure(k=1, second_type=((2, 2),)))
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


def test_degenerate_exactly_when_minimal_chain_differs():
    # the converse of criterion 2, which compares the two multisets only
    # on non-degenerate structures: every period up to 9, bounds 4, 2, 1.
    # Period 3 has none (k = 1: one free block and no Okamoto block;
    # k = 3: one Okamoto block per residue), which `dresschain painleve
    # --period 3` relies on
    degenerate = Counter()
    for p in range(1, 10):
        bound = 4 if p <= 5 else 2 if p <= 7 else 1
        for k in admitted_shifts(p):
            for cs in enumerate_structures(p, k, bound):
                d, flagged = build_diagram(cs)
                minimal = minimal_flip_chain(d, k).multiset()
                assert flagged == (minimal != static_flip_chain(cs).multiset()), cs
                degenerate[p] += flagged
    assert sum(degenerate.values()) == 1355 and degenerate[3] == 0


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


def test_box_size_rule():
    # (p + L) (bound + 1)**(k - 1) bound**(p - k), exact up to the budget,
    # with L = bound (k - 1 + (p - k) / 2) bounding every diagram's length
    for p, k, bound in ((1, 1, 5), (3, 1, 2), (5, 3, 1), (7, 3, 3), (9, 9, 2)):
        size = _box_size_capped(p, k, bound)
        structures = enumerate_structures(p, k, bound)
        longest = bound * (k - 1 + (p - k) // 2)
        assert max(len(build_diagram(cs)[0]) for cs in structures) <= longest
        assert size == (p + longest) * (bound + 1) ** (k - 1) * bound ** (p - k)
        assert size == (p + longest) * len(structures)
    # past the budget the product stops after a few factors, however large
    # the period or the bound; a box of few structures with long diagrams
    # is over the budget too
    for p, k, bound in ((99999999999, 1, 1), (3, 3, 200), (5, 1, 10 ** 40),
                        (10 ** 30 + 1, 10 ** 30 + 1, 2), (3, 3, 181)):
        size = _box_size_capped(p, k, bound)
        start = p + bound * (k - 1 + (p - k) // 2)
        assert ENUM_BUDGET < size <= max(start, ENUM_BUDGET * (bound + 1))
        with pytest.raises(EnumerationTooLarge):
            enumerate_structures(p, k, bound)


def test_every_box_in_use_fits_the_budget():
    # selftest and the tests (periods up to 9), the bench and script boxes
    # (bound 3 up to period 5), the p = 7, bound 3 and p = 9, bound 2 boxes
    boxes = [(p, 4 if p <= 5 else 2) for p in range(1, 10)] + [(7, 3), (9, 2)]
    for p, bound in boxes:
        for k in admitted_shifts(p):
            assert _box_size_capped(p, k, bound) <= ENUM_BUDGET, (p, k, bound)


def test_enumerate_parity_errors():
    with pytest.raises(InvalidParity):
        enumerate_structures(3, 2, 1)
    with pytest.raises(InvalidParity):
        enumerate_structures(3, 5, 1)


def test_admitted_shifts_match_brute_force():
    # a shift k fits a period p when 1 <= k <= p and k = p (mod 2); the
    # components of a split share one shift
    def fits(k, p):
        return 1 <= k <= p and (p - k) % 2 == 0

    for p1 in range(-1, 13):
        assert list(admitted_shifts(p1)) == [k for k in range(1, 13) if fits(k, p1)]
        for p2 in range(-1, 13):
            want = [k for k in range(1, 13) if fits(k, p1) and fits(k, p2)]
            assert list(admitted_shifts(p1, p2)) == want


def test_admitted_shifts_of_a_huge_period_are_a_range():
    # nothing loops up to the period: membership and length are O(1)
    shifts = admitted_shifts(10 ** 9, 10 ** 9)
    assert len(shifts) == 5 * 10 ** 8
    assert 10 ** 9 in shifts and 10 ** 9 - 1 not in shifts
    assert not admitted_shifts(10 ** 9, 10 ** 9 + 1)


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
    assert MayaDiagram((1, 4, 6)).to_json() == [1, 4, 6]
    cs = CyclicStructure(k=2, okamoto=(1,), second_type=((2, 2),))
    assert CyclicStructure.from_json(cs.to_json()) == cs
