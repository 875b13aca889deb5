from __future__ import annotations

import json
import operator

import pytest

from hyperpd import lattices
from hyperpd.hypergraphs import Hypergraph, dual_hypergraph
from hyperpd.ideals import parse_ideal
from hyperpd.lattices import (
    _FULL_VALIDATION_LIMIT,
    Labeling,
    LatticeError,
    SetFamilyLattice,
    coordinatize,
    hypergraph_coordinatization,
    labeling_from_json_dict,
    labeling_to_json_dict,
    lattice_from_hypergraph,
    lattice_from_json_dict,
    lcm_lattice,
    lattices_isomorphic,
    mask_of,
    set_of,
    union_edge_elements,
)

FIVE_GEN = "ab,bcg,cdg,de,efg"

FIVE_GEN_FAMILY = [
    [], [1], [2], [3], [4], [5],
    [1, 2], [1, 4], [1, 5], [2, 3], [2, 5], [3, 4], [4, 5],
    [1, 2, 3], [1, 2, 5], [1, 4, 5], [2, 3, 4], [3, 4, 5],
    [1, 2, 3, 4], [2, 3, 4, 5],
    [1, 2, 3, 4, 5],
]

DEMO_FAMILY = [[], [1], [2], [3], [4], [1, 2], [2, 3, 4], [1, 2, 3, 4]]


def _demo_lattice():
    return SetFamilyLattice(4, [mask_of(s) for s in DEMO_FAMILY])


def _demo_labeling(L):
    ring = ("a", "b", "c", "d")

    def mono(text):
        return parse_ideal(text).generators[0]

    def rebased(text):
        exps = [0, 0, 0, 0]
        for ch in text:
            exps[ring.index(ch)] += 1
        from hyperpd.ideals import Monomial

        return Monomial(ring, tuple(exps))

    return Labeling(
        ring,
        {
            mask_of([1]): rebased("a"),
            mask_of([3]): rebased("b"),
            mask_of([4]): rebased("c"),
            mask_of([1, 2]): rebased("a"),
            mask_of([2, 3, 4]): rebased("d"),
        },
    )


def test_mask_set_round_trip():
    assert set_of(mask_of([1, 3])) == (1, 3)
    assert mask_of([]) == 0
    assert set_of(0) == ()


def test_five_gen_lattice_has_21_elements():
    L = lcm_lattice(parse_ideal(FIVE_GEN))
    assert len(L) == 21
    assert [list(set_of(m)) for m in L.masks] == FIVE_GEN_FAMILY


def test_lattice_from_hypergraph_matches_lcm_lattice():
    I = parse_ideal(FIVE_GEN)
    assert lattice_from_hypergraph(dual_hypergraph(I)) == lcm_lattice(I)


def test_meet_join_on_demo():
    L = _demo_lattice()
    assert L.meet(mask_of([1, 2]), mask_of([2, 3, 4])) == mask_of([2])
    assert L.join(mask_of([1]), mask_of([3])) == mask_of([1, 2, 3, 4])
    assert L.join(mask_of([1]), mask_of([2])) == mask_of([1, 2])
    with pytest.raises(LatticeError):
        L.meet(mask_of([1, 3]), 0)


def test_atoms_filter_covers():
    L = _demo_lattice()
    assert L.atoms() == tuple(mask_of([i]) for i in (1, 2, 3, 4))
    assert L.filter_of(mask_of([2])) == (
        mask_of([2]),
        mask_of([1, 2]),
        mask_of([2, 3, 4]),
        mask_of([1, 2, 3, 4]),
    )
    assert set(L.upper_covers(0)) == set(L.atoms())
    assert set(L.upper_covers(mask_of([2]))) == {mask_of([1, 2]), mask_of([2, 3, 4])}


def test_meet_irreducibles_five_gen():
    L = lcm_lattice(parse_ideal(FIVE_GEN))
    got = [list(set_of(m)) for m in L.meet_irreducibles()]
    assert got == [
        [1, 2, 3], [1, 2, 5], [1, 4, 5], [3, 4, 5],
        [1, 2, 3, 4], [2, 3, 4, 5], [1, 2, 3, 4, 5],
    ]


def test_meet_irreducibles_demo():
    L = _demo_lattice()
    got = {set_of(m) for m in L.meet_irreducibles()}
    assert got == {(1,), (3,), (4,), (1, 2), (2, 3, 4), (1, 2, 3, 4)}


def test_remark22_sanity_holds():
    assert _demo_lattice().check_remark22()
    assert lcm_lattice(parse_ideal(FIVE_GEN)).check_remark22()


def test_invalid_families_rejected():
    with pytest.raises(LatticeError):
        SetFamilyLattice(2, [mask_of(s) for s in ([], [1], [1, 2])])  # atom 2 missing
    with pytest.raises(LatticeError):
        SetFamilyLattice(2, [mask_of(s) for s in ([1], [2], [1, 2])])  # no bottom
    with pytest.raises(LatticeError):
        SetFamilyLattice(2, [mask_of(s) for s in ([], [1], [2])])  # no top
    # not intersection closed: {1,2} ∩ {2,3} = {2} missing
    with pytest.raises(LatticeError):
        SetFamilyLattice(3, [mask_of(s) for s in ([], [1], [3], [1, 2], [2, 3], [1, 2, 3])])


def test_generating_set_proof_rejects_non_closed_family():
    # {1,2,3} ∩ {2,3,4} = {2,3} is missing
    family = [mask_of(s) for s in ([], [1], [2], [3], [4], [1, 2, 3], [2, 3, 4], [1, 2, 3, 4])]
    with pytest.raises(LatticeError, match="not intersection-closed"):
        SetFamilyLattice(4, family, generators=[m for m in family if m])
    closed = [mask_of(s) for s in ([], [1], [2], [1, 2])]
    with pytest.raises(LatticeError, match="not a meet"):
        SetFamilyLattice(2, closed, generators=[])
    assert len(SetFamilyLattice(2, closed, generators=[mask_of([1]), mask_of([2])])) == 4


def test_closure_is_proven_above_the_pairwise_limit(monkeypatch):
    I = parse_ideal(",".join(f"x{i}*x{i + 1}" for i in range(14)))
    proofs = []
    check = SetFamilyLattice._check_generated

    def spy(self, full, generators):
        proofs.append(len(self))
        return check(self, full, generators)

    monkeypatch.setattr(SetFamilyLattice, "_check_generated", spy)
    L = lcm_lattice(I)
    assert len(L) > _FULL_VALIDATION_LIMIT
    assert lattice_from_hypergraph(dual_hypergraph(I)) == L
    assert proofs == [len(L), len(L)]
    # dropping an element that meets of the generators reach is caught
    pos = {v: i for i, v in enumerate(dual_hypergraph(I).vertices)}
    full = L.top
    complements = {full & ~mask_of(pos[v] + 1 for v in e) for e in dual_hypergraph(I).edges}
    dropped = next(
        m for m in L.masks if m.bit_count() > 1 and m not in complements and m != full
    )
    with pytest.raises(LatticeError, match="not intersection-closed"):
        SetFamilyLattice(L.num_atoms, set(L.masks) - {dropped}, generators=complements)


def test_lcm_lattice_cap():
    with pytest.raises(LatticeError, match="cap"):
        lcm_lattice(parse_ideal(FIVE_GEN), cap=10)
    # the cap counts the elements above the bottom, as before
    assert len(lcm_lattice(parse_ideal(FIVE_GEN), cap=20)) == 21
    with pytest.raises(LatticeError, match="19-element cap"):
        lcm_lattice(parse_ideal(FIVE_GEN), cap=19)


def test_capped_closure_stops_at_the_first_element_over_the_cap():
    seeds = [1 << i for i in range(16)]
    calls = []

    def counting_or(a, b):
        calls.append(1)
        return a | b

    assert len(lattices._capped_closure(seeds[:12], operator.or_, 4095, "x")) == 4095
    with pytest.raises(LatticeError, match="x exceeds the 20-element cap"):
        lattices._capped_closure(seeds, counting_or, 20, "x")
    # the fifth new element is found while the first seed is joined;
    # a check after each round would come only after 16 * 16 joins
    assert len(calls) <= len(seeds)


def test_lattice_from_hypergraph_needs_separated():
    with pytest.raises(LatticeError):
        lattice_from_hypergraph(Hypergraph([(1, 2)]))


def test_union_edges_five_gen():
    H = dual_hypergraph(parse_ideal(FIVE_GEN))
    assert union_edge_elements(H) == [(2, 3, 5)]


def test_union_edges_eleven_gen():
    from hyperpd.ideals import ideal_from_json_dict

    with open("fixtures/union_demo.json") as f:
        I = ideal_from_json_dict(json.load(f))
    assert I.mu == 11
    H = dual_hypergraph(I)
    got = union_edge_elements(H)
    assert got == [(3, 4, 7), (4, 5, 6)]
    # the other two higher edges are not unions of smaller edges
    highers = set(H.higher_edges())
    assert (1, 7, 10) in highers and (2, 3, 9) in highers
    assert (1, 7, 10) not in got and (2, 3, 9) not in got


def test_coordinatize_demo_lattice():
    L = _demo_lattice()
    I = coordinatize(L, _demo_labeling(L))
    assert I.to_text() == "bcd, abc, a^2*c, a^2*b"
    assert lcm_lattice(I) == L


def test_labeling_rejects_trivial_label():
    from hyperpd.ideals import Monomial

    ring = ("a",)
    with pytest.raises(LatticeError):
        Labeling(ring, {mask_of([1]): Monomial(ring, (0,))})


def test_labeling_must_cover_meet_irreducibles():
    L = _demo_lattice()
    lab = _demo_labeling(L)
    partial = Labeling(lab.ring, dict(list(lab.assignment.items())[:-1]))
    with pytest.raises(LatticeError, match="unlabeled"):
        coordinatize(L, partial)


def test_labeling_rejects_shared_variable_on_incomparable_elements():
    from hyperpd.ideals import Monomial

    L = _demo_lattice()
    ring = ("a", "b", "c", "d")

    def mono(ch):
        exps = [0] * 4
        exps[ring.index(ch)] = 1
        return Monomial(ring, tuple(exps))

    bad = Labeling(
        ring,
        {
            mask_of([1]): mono("a"),
            mask_of([3]): mono("a"),  # {1} and {3} are incomparable
            mask_of([4]): mono("c"),
            mask_of([1, 2]): mono("b"),
            mask_of([2, 3, 4]): mono("d"),
        },
    )
    with pytest.raises(LatticeError, match="comparable"):
        coordinatize(L, bad)


def test_hypergraph_coordinatization_round_trip():
    H = dual_hypergraph(parse_ideal(FIVE_GEN))
    lab, I = hypergraph_coordinatization(H)
    assert lcm_lattice(I) == lattice_from_hypergraph(H)
    assert I.mu == 5


def test_labeling_json_round_trip():
    with open("fixtures/labeled_lattice.json") as f:
        data = json.load(f)
    L, lab = labeling_from_json_dict(data)
    out = labeling_to_json_dict(L, lab)
    L2, lab2 = labeling_from_json_dict(json.loads(json.dumps(out)))
    assert L2 == L
    assert coordinatize(L2, lab2) == coordinatize(L, lab)


def test_lattice_json_round_trip():
    L = lcm_lattice(parse_ideal(FIVE_GEN))
    again = lattice_from_json_dict(json.loads(json.dumps(L.to_json_dict())))
    assert again == L


def test_lattices_isomorphic():
    L = lcm_lattice(parse_ideal(FIVE_GEN))
    # relabel atoms by the reversing permutation
    perm = {1: 5, 2: 4, 3: 3, 4: 2, 5: 1}
    relabeled = SetFamilyLattice(
        5, [mask_of([perm[a] for a in set_of(m)]) for m in L.masks]
    )
    assert lattices_isomorphic(L, relabeled)
    assert not lattices_isomorphic(L, _demo_lattice())


def test_to_dot_lists_cover_relations():
    dot = _demo_lattice().to_dot()
    assert dot.startswith("digraph")
    assert '"0" -> "1"' in dot
    assert '"1,2" -> "1,2,3,4"' in dot
