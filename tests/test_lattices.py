from __future__ import annotations

import itertools
import json
import random

import pytest

from hyperpd import lattices
from hyperpd.hypergraphs import Hypergraph, dual_hypergraph, is_separated, union_edge_elements
from hyperpd.ideals import Monomial, make_ideal, parse_ideal
from hyperpd.lattices import (
    Labeling,
    LatticeError,
    SetFamilyLattice,
    atom_columns,
    coordinatize,
    hypergraph_coordinatization,
    labeling_from_json_dict,
    labeling_to_json_dict,
    lattice_from_hypergraph,
    lattice_from_json_dict,
    lcm_lattice,
    mask_of,
    set_of,
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


def literal_lcm_lattice(ideal) -> SetFamilyLattice:
    """The lcm-lattice by its definition: for every generator subset,
    the set of generators that divide its lcm. It shares no code with
    the library's builder and is exponential in the generator count."""
    gens = ideal.generators
    elements = set()
    for k in range(len(gens) + 1):
        for subset in itertools.combinations(gens, k):
            exps = [max((m.exps[j] for m in subset), default=0) for j in range(len(ideal.ring))]
            elements.add(sum(
                1 << i for i, g in enumerate(gens) if all(a <= b for a, b in zip(g.exps, exps))
            ))
    return SetFamilyLattice(ideal.mu, elements)


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
    literal = literal_lcm_lattice(I)
    assert [list(set_of(m)) for m in literal.masks] == FIVE_GEN_FAMILY
    assert lattice_from_hypergraph(dual_hypergraph(I)) == literal
    assert lcm_lattice(I) == literal


def _random_ideal(rng, max_exp):
    ring = tuple("abcdef")
    gens = []
    for _ in range(rng.randint(1, 7)):
        exps = [0] * len(ring)
        for i in rng.sample(range(len(ring)), rng.randint(1, 3)):
            exps[i] = rng.randint(1, max_exp)
        gens.append(Monomial(ring, tuple(exps)))
    return make_ideal(ring, gens)


def chain_coordinatized(rng, ideal):
    """Coordinatize the lcm-lattice of `ideal` with one variable per
    random chain of meet-irreducibles; chains longer than one element
    give non-square-free generators."""
    L = lcm_lattice(ideal)
    chains: list[list[int]] = []
    for m in L.meet_irreducibles():
        if m == L.top:
            continue
        home = next((c for c in chains if all(m & o in (m, o) for o in c)), None)
        if home is not None and rng.random() < 0.9:
            home.append(m)
        else:
            chains.append([m])
    ring = tuple(f"v{i}" for i in range(len(chains)))
    assignment = {}
    for i, chain in enumerate(chains):
        exps = [0] * len(ring)
        exps[i] = 1
        for m in chain:
            assignment[m] = Monomial(ring, tuple(exps))
    return coordinatize(L, Labeling(ring, assignment))


def test_large_walk_built_lattice_passes_the_generation_proof():
    I = parse_ideal(",".join(f"x{i}*x{i + 1}" for i in range(14)))
    L = lcm_lattice(I)
    assert len(L) > 2048
    assert lattice_from_hypergraph(dual_hypergraph(I)) == L
    assert SetFamilyLattice(L.num_atoms, L.masks) == L
    # the generation proof catches a dropped meet of two larger elements
    irreducible = set(L.meet_irreducibles())
    dropped = next(m for m in L.masks if m.bit_count() > 1 and m not in irreducible)
    with pytest.raises(LatticeError, match="not intersection-closed"):
        SetFamilyLattice(L.num_atoms, set(L.masks) - {dropped})


def test_both_constructions_match_the_definition():
    rng = random.Random(9)
    squarefree = [_random_ideal(rng, 1) for _ in range(150)]
    powers = [_random_ideal(rng, 3) for _ in range(150)]
    assert sum(not I.is_squarefree() for I in powers) > 100
    coordinatized = [chain_coordinatized(rng, I) for I in squarefree]
    coordinatized = [I for I in coordinatized if not I.is_squarefree()]
    assert len(coordinatized) >= 10
    for I in squarefree + powers + coordinatized:
        literal = literal_lcm_lattice(I)
        walked = [lcm_lattice(I)]
        if I.is_squarefree():
            H = dual_hypergraph(I)
            walked += [lattice_from_hypergraph(H), hypergraph_coordinatization(H)[0]]
        for L in walked:
            # the generation proof shares no code with the walk's own proof
            assert SetFamilyLattice(L.num_atoms, L.masks) == L == literal, I.to_text()


def test_atoms_filter_covers():
    L = _demo_lattice()
    atoms = {mask_of([i]) for i in (1, 2, 3, 4)}
    assert L.num_atoms == 4 and atoms <= set(L.masks)
    assert [set_of(m) for m in L.masks if m & mask_of([2]) == mask_of([2])] == [
        (2,), (1, 2), (2, 3, 4), (1, 2, 3, 4),
    ]
    covers = dict(zip(L.masks, L.upper_covers()))
    assert set(covers[0]) == atoms
    assert covers[mask_of([2])] == [mask_of([1, 2]), mask_of([2, 3, 4])]
    assert covers[L.top] == []


def _irreducible_by_definition(L) -> list[int]:
    """The top and the elements that are not the intersection of the
    elements strictly above them, in `masks` order."""
    out = []
    for x in L.masks:
        meet = L.top
        for y in L.masks:
            if y != x and y & x == x:
                meet &= y
        if x == L.top or meet != x:
            out.append(x)
    return out


def test_upper_covers_and_meet_irreducibles_match_their_definitions():
    rng = random.Random(5)
    lattices_ = [lcm_lattice(_random_ideal(rng, 2)) for _ in range(60)]
    lattices_ += [_demo_lattice(), lcm_lattice(parse_ideal(FIVE_GEN))]
    for L in lattices_:
        for x, covers in zip(L.masks, L.upper_covers()):
            above = [y for y in L.masks if y != x and y & x == x]
            assert covers == [
                y for y in above if not any(z != y and z & y == z for z in above)
            ]
        assert list(L.meet_irreducibles()) == _irreducible_by_definition(L)


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


def test_lcm_lattice_cap(monkeypatch):
    I = parse_ideal(FIVE_GEN)
    monkeypatch.setattr(lattices, "DEFAULT_ELEMENT_CAP", 10)
    with pytest.raises(LatticeError, match="cap"):
        lcm_lattice(I)
    # both routes count the elements above the bottom
    monkeypatch.setattr(lattices, "DEFAULT_ELEMENT_CAP", 20)
    assert len(lcm_lattice(I)) == len(lattice_from_hypergraph(dual_hypergraph(I))) == 21
    monkeypatch.setattr(lattices, "DEFAULT_ELEMENT_CAP", 19)
    with pytest.raises(LatticeError, match="lcm-lattice exceeds the 19-element cap"):
        lcm_lattice(I)
    with pytest.raises(LatticeError, match="lattice exceeds the 19-element cap"):
        lattice_from_hypergraph(dual_hypergraph(I))


def test_walk_stops_at_the_first_element_over_the_cap(monkeypatch):
    calls = []

    class Mask(int):
        """An int that counts each AND it takes part in and stays a
        Mask through AND and complement, so every meet is counted."""

        def __and__(self, other):
            calls.append(1)
            return Mask(int(self) & int(other))

        __rand__ = __and__

        def __invert__(self):
            return Mask(~int(self))

    visited = []

    def visit(p):
        # each visited element, with the ANDs taken before its visit
        visited.append((p, len(calls)))
        return 0

    # the edges on one of n atoms; the meets of their complements are
    # every proper nonempty subset, so a full walk visits 2**n - 1
    # elements
    monkeypatch.setattr(lattices, "DEFAULT_ELEMENT_CAP", 4095)
    lattices.walk_lattice(12, [Mask(1 << i) for i in range(12)], visit, "x")
    assert len(visited) == len({p for p, _ in visited}) == 4095
    visited.clear()
    monkeypatch.setattr(lattices, "DEFAULT_ELEMENT_CAP", 20)
    with pytest.raises(LatticeError, match="x exceeds the 20-element cap"):
        lattices.walk_lattice(16, [Mask(1 << i) for i in range(16)], visit, "x")
    # the top's 16 meets build the 16 complements, 17 elements; the
    # first complement popped builds its meets with the others, and the
    # fourth of those is the 21st. A check after each whole visit would
    # come only after 16 meets of that element.
    (top, before_top), (first, before_first) = visited
    assert (top, first) == (0xFFFF, 0x7FFF)
    assert before_first - before_top == 16
    assert len(calls) - before_first == 4


def test_walk_takes_each_distinct_nonzero_complement():
    """Repeated edges and an edge on every atom, whose complement is
    empty, change nothing the walk visits: the intersection-closure of
    the complements and the top, by falling atom count."""
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(3, 9)
        full = (1 << n) - 1
        clean = sorted({rng.randrange(1, full) for _ in range(rng.randint(1, 8))})
        messy = clean + rng.choices(clean, k=4) + [full]
        rng.shuffle(messy)
        closure = {full}
        grown = closure
        while grown:
            grown = {m & full & ~e for m in grown for e in clean} - closure
            closure |= grown
        want = sorted(closure - {0}, key=lambda m: (-m.bit_count(), m))
        for edges in (clean, messy):
            visited = []
            lattices.walk_lattice(n, edges, lambda p: visited.append(p) or 0, "x")
            assert visited == want, (n, edges)


def test_walk_marks_each_boolean_interval_without_visiting_it(monkeypatch):
    """A visitor that answers `BOOLEAN` on an element whose atoms each
    have an edge meeting it in that atom alone gets back every subset
    of it, and is handed none of them; what it is handed and what comes
    back are the closure, and the element cap counts both."""
    rng = random.Random(31)
    boolean_answers = 0
    for _ in range(150):
        n = rng.randint(2, 9)
        full = (1 << n) - 1
        edges = [rng.randrange(1, full) for _ in range(rng.randint(1, 9))]
        edges += [1 << i for i in rng.sample(range(n), rng.randint(0, n))]
        closure = {full}
        grown = closure
        while grown:
            grown = {m & ~e for m in grown for e in edges} - closure
            closure |= grown
        closure.discard(0)
        visited = []

        def visit(p):
            visited.append(p)
            private = all(any(p & e == 1 << i for e in edges)
                          for i in range(n) if p >> i & 1)
            return lattices.BOOLEAN if private else 0

        marked = lattices.walk_lattice(n, edges, visit, "x")
        answered = {p for p in visited if p in marked}
        boolean_answers += len(answered)
        assert len(visited) == len(set(visited)), (n, edges)
        assert marked == {s for q in answered for s in closure if s | q == q}, (n, edges)
        assert set(visited) | marked == closure, (n, edges)
        assert set(visited) & marked == answered, (n, edges)
        assert not any(p != q and p | q == q for p in visited for q in answered), (n, edges)
        monkeypatch.setattr(lattices, "DEFAULT_ELEMENT_CAP", len(closure) - 1)
        with pytest.raises(LatticeError, match=f"x exceeds the {len(closure) - 1}-element cap"):
            lattices.walk_lattice(n, edges, visit, "x")
        monkeypatch.setattr(lattices, "DEFAULT_ELEMENT_CAP", len(closure))
        assert lattices.walk_lattice(n, edges, visit, "x") == marked
        monkeypatch.undo()
    assert boolean_answers > 150


def test_lattice_json_over_the_cap_is_refused_before_the_closure_proof(monkeypatch):
    # the 12-atom power set: 4,095 elements above the bottom
    data = {"atoms": 12, "elements": [list(set_of(m)) for m in range(1 << 12)]}
    proofs = []
    generate = SetFamilyLattice._generate

    def recorded(L):
        proofs.append(generate(L))
        return proofs[-1]

    monkeypatch.setattr(SetFamilyLattice, "_generate", recorded)
    monkeypatch.setattr(lattices, "DEFAULT_ELEMENT_CAP", 4094)
    with pytest.raises(LatticeError) as err:
        lattice_from_json_dict(data)
    assert str(err.value) == (
        "lattice of 4095 elements above the bottom exceeds the 4094-element cap"
    )
    assert proofs == []
    monkeypatch.setattr(lattices, "DEFAULT_ELEMENT_CAP", 4095)
    assert len(lattice_from_json_dict(data)) == 4096
    # the power set's meet-irreducibles are the coatoms and the top
    assert proofs == [tuple(1 << i for i in range(11, -1, -1)) + (0,)]


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


def _random_separated_hypergraph(rng) -> Hypergraph:
    """A separated hypergraph on vertices 1..n with a higher edge and
    edges of one to four vertices."""
    while True:
        n = rng.randint(3, 7)
        edges = [rng.sample(range(1, n + 1), rng.randint(1, min(n, 4)))
                 for _ in range(rng.randint(n, 2 * n))]
        H = Hypergraph(edges)
        if H.mu == n and H.higher_edges() and is_separated(H):
            return H


def test_union_test_gives_the_meet_irreducibles():
    """An edge's complement is meet-irreducible exactly when the edge
    is not the union of the edges inside it, on separated hypergraphs
    and on ideals with powers; a lattice read back from its JSON keeps
    the meet-irreducibles' complements as its edges and has the walk's
    covers."""
    rng = random.Random(22)
    hypergraphs = [_random_separated_hypergraph(rng) for _ in range(80)]
    ideals = [_random_ideal(rng, 3) for _ in range(80)]
    assert sum(bool(union_edge_elements(H)) for H in hypergraphs) >= 20
    assert sum(not I.is_squarefree() for I in ideals) >= 40
    cases = [(lattice_from_hypergraph(H), H) for H in hypergraphs]
    cases += [(lcm_lattice(I), None) for I in ideals]
    for L, H in cases:
        irreducible = _irreducible_by_definition(L)
        assert list(L.meet_irreducibles()) == irreducible
        if H is not None:
            elements = {L.top & ~mask_of(e) for e in H.edges}
            unions = {L.top & ~mask_of(e) for e in union_edge_elements(H)}
            assert unions == elements - set(irreducible), H
        given = lattice_from_json_dict(L.to_json_dict())
        assert given.edges == tuple(L.top & ~m for m in irreducible)
        assert given.upper_covers() == L.upper_covers()
    # a lone vertex in no edge would leave the bottom ungenerated
    with pytest.raises(LatticeError, match="empty hypergraph"):
        lattice_from_hypergraph(Hypergraph([], vertices=[1]))


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
    L, _, I = hypergraph_coordinatization(H)
    literal = literal_lcm_lattice(I)
    assert literal == literal_lcm_lattice(parse_ideal(FIVE_GEN))
    assert lcm_lattice(I) == L == lattice_from_hypergraph(H) == literal
    assert I.mu == 5


def test_label_keys_are_bounded_before_any_mask(monkeypatch):
    masked = []
    real = lattices.mask_of
    monkeypatch.setattr(lattices, "mask_of", lambda atoms: masked.append(list(atoms)) or real(atoms))
    data = {"atoms": 2, "elements": [[], [1], [2], [1, 2]],
            "labels": {"[1]": "a", "[2, 100000000]": "b"}}
    with pytest.raises(LatticeError, match=r"label on non-element \(2, 100000000\)"):
        labeling_from_json_dict(data)
    assert masked and max(max(atoms, default=0) for atoms in masked) <= 2


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


def lattices_isomorphic(L1: SetFamilyLattice, L2: SetFamilyLattice) -> bool:
    """Search for an atom bijection matching the families; feasible for
    small atom counts only."""
    if L1.num_atoms != L2.num_atoms or len(L1) != len(L2):
        return False
    n = L1.num_atoms
    target = set(L2.masks)

    def extend(perm):
        if len(perm) == n:
            for m in L1.masks:
                img = 0
                for i in range(n):
                    if m & (1 << i):
                        img |= 1 << perm[i]
                if img not in target:
                    return False
            return True
        used = set(perm)
        return any(extend(perm + [j]) for j in range(n) if j not in used)

    return extend([])


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


def _pairwise_closed(family) -> bool:
    members = set(family)
    return all(a & b in members for a in members for b in members)


def test_generation_proof_agrees_with_the_pairwise_check():
    rng = random.Random(12)
    verdicts = set()
    for _ in range(300):
        n = rng.randint(1, 6)
        full = (1 << n) - 1
        family = {0, full} | {1 << i for i in range(n)}
        family |= {rng.randint(0, full) for _ in range(rng.randint(0, 12))}
        closed = _pairwise_closed(family)
        verdicts.add(closed)
        if closed:
            assert len(SetFamilyLattice(n, family)) == len(family)
        else:
            with pytest.raises(LatticeError, match="not intersection-closed") as err:
                SetFamilyLattice(n, family)
            # the named pair is a real witness
            b, y = (mask_of(json.loads("[" + part.strip("() ,") + "]"))
                    for part in str(err.value).split(": ")[1].split(" and "))
            assert b in family and y in family and b & y not in family
    assert verdicts == {True, False}


def test_unclosed_lattice_json_is_rejected_above_2048_elements():
    # every subset of 12 atoms but {1, 2}; the coatoms are generated
    # first, and the first pair met with a missing meet is the coatom
    # without 12 and {1, 2, 12}
    elements = [list(c) for k in range(13) for c in itertools.combinations(range(1, 13), k)
                if c != (1, 2)]
    assert len(elements) == 4095
    with pytest.raises(LatticeError) as err:
        lattice_from_json_dict({"atoms": 12, "elements": elements})
    assert str(err.value) == (
        "not intersection-closed: (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11) and (1, 2, 12)"
    )
    x, y = list(range(1, 12)), [1, 2, 12]
    assert x in elements and y in elements and mask_of(x) & mask_of(y) == mask_of([1, 2])
    L = lattice_from_json_dict({"atoms": 12, "elements": elements + [[1, 2]]})
    assert len(L) == 4096


def test_lattice_on_70_atoms_round_trips():
    n = 70
    elements = [[], list(range(1, n + 1))] + [[i] for i in range(1, n + 1)]
    elements += [list(range(1, k + 1)) for k in range(2, n)]  # a chain
    elements += [[1, k] for k in range(3, n + 1)]  # a fan that meets it in [1] or [1, k]
    L = SetFamilyLattice(n, elements)
    assert L.num_atoms == n
    assert len(L) == 2 + n + 2 * (n - 2)
    data = json.loads(json.dumps(L.to_json_dict()))
    back = lattice_from_json_dict(data)
    assert back == L
    assert back.masks == L.masks
    assert [list(set_of(m)) for m in back.masks] == data["elements"]
    with pytest.raises(LatticeError, match="not intersection-closed"):
        SetFamilyLattice(n, elements + [[2, 3, 70]])


@pytest.mark.parametrize("data,message", [
    ({"atoms": -1, "elements": [[]]}, "must not be negative"),
    ({"atoms": 10**12, "elements": [[], [1]]}, "only 2 elements"),
    ({"atoms": 2, "elements": [[], [1], [2], [1, 2], [10**12]]}, "exceeds the atom count"),
])
def test_lattice_json_sizes_are_checked_before_masks_are_built(data, message):
    with pytest.raises(LatticeError, match=message):
        lattice_from_json_dict(data)


def _random_closed_family(rng, n: int) -> set[int]:
    """An intersection-closed family on n atoms with bottom, top and
    every atom: the closure of a few random masks and the top."""
    full = (1 << n) - 1
    family = {full} | {rng.getrandbits(n) | rng.getrandbits(n) for _ in range(rng.randint(0, 7))}
    frontier = set(family)
    while frontier:
        fresh = {a & b for a in frontier for b in family} - family
        family |= fresh
        frontier = fresh
    # an atom meets any mask in itself or the bottom
    return family | {0} | {1 << i for i in range(n)}


@pytest.mark.parametrize("n", [0, 1, 2, 5, 9, 63, 64, 65, 80])
def test_masks_are_sorted_by_size_then_atoms_and_atom_columns_transpose_them(n):
    rng = random.Random(300 + n)
    for _ in range(20):
        family = _random_closed_family(rng, n)
        elements = list(family)
        rng.shuffle(elements)
        if rng.random() < 0.5:
            elements = [list(set_of(m)) for m in elements]
        L = SetFamilyLattice(n, elements)
        assert L.masks == tuple(sorted(family, key=lambda m: (m.bit_count(), set_of(m))))
        columns = atom_columns(n, L.masks)
        assert len(columns) == n
        for i, column in enumerate(columns):
            assert column == sum(1 << j for j, m in enumerate(L.masks) if (m >> i) & 1)
