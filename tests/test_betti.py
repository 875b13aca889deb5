from __future__ import annotations

import json
import random

import pytest

from hyperpd import betti
from hyperpd.betti import (
    OracleError,
    SimplicialComplex,
    betti_table,
    betti_table_from_lattice,
    lattice_pd,
    order_complex,
    oracle_pd,
    reduced_homology_ranks,
)
from hyperpd.hypergraphs import dual_hypergraph, hypergraph_from_json_dict, ideal_from_hypergraph
from hyperpd.ideals import Monomial, ideal_from_json_dict, make_ideal, parse_ideal
from hyperpd.lattices import (
    Labeling,
    coordinatize,
    labeling_from_json_dict,
    lcm_lattice,
    lattice_from_hypergraph,
    mask_of,
)
from hyperpd.reduction import full_reduce

FROZEN_TOTALS = {
    "x": {0: 1, 1: 1},
    "x,y": {0: 1, 1: 2, 2: 1},
    "xy,yz": {0: 1, 1: 2, 2: 1},
    "ab,bc,cd": {0: 1, 1: 3, 2: 2},
    "ab,bc,cd,de": {0: 1, 1: 4, 2: 4, 3: 1},
    "ab,bcg,cdg,de,efg": {0: 1, 1: 5, 2: 7, 3: 4, 4: 1},
}

RP2_FACES = [
    (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
    (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
]


@pytest.mark.parametrize("text,expected", sorted(FROZEN_TOTALS.items()))
def test_frozen_total_betti_numbers(text, expected):
    table = betti_table(parse_ideal(text), char=2)
    assert table.totals() == expected


def test_pd_reads_top_nonzero_row():
    table = betti_table(parse_ideal("ab,bcg,cdg,de,efg"), char=2)
    assert table.pd == 4
    assert table.total(4) == 1
    assert table.total(9) == 0


def test_beta_one_counts_generators():
    for text in FROZEN_TOTALS:
        assert betti_table(parse_ideal(text)).total(1) == parse_ideal(text).mu


def test_crosscut_and_order_routes_agree():
    for text in ("xy,yz", "ab,bc,cd,de", "ab,bcg,cdg,de,efg"):
        I = parse_ideal(text)
        a = betti_table(I, char=2, method="crosscut")
        b = betti_table(I, char=2, method="order")
        assert a.entries == b.entries


def test_core_dismantling_does_not_change_order_route():
    I = parse_ideal("ab,bcg,cdg,de,efg")
    with_core = betti_table(I, method="order", use_core=True)
    without = betti_table(I, method="order", use_core=False)
    assert with_core.entries == without.entries


def test_unknown_method_rejected():
    with pytest.raises(OracleError, match="method"):
        betti_table(parse_ideal("xy,yz"), method="guess")


def test_char_must_be_prime():
    for bad in (1, 4, 9):
        with pytest.raises(OracleError):
            betti_table(parse_ideal("xy,yz"), char=bad)
    betti_table(parse_ideal("xy,yz"), char=7)


def test_projective_plane_homology_depends_on_char():
    K = SimplicialComplex.from_maximal_faces(RP2_FACES)
    assert K.face_counts() == [6, 15, 10]
    assert reduced_homology_ranks(K, 2) == {1: 1, 2: 1}
    assert reduced_homology_ranks(K, 3) == {}
    assert reduced_homology_ranks(K, 5) == {}


def test_reduced_homology_conventions():
    empty = SimplicialComplex([], [])
    assert empty.is_empty()
    assert reduced_homology_ranks(empty, 2) == {-1: 1}
    point = SimplicialComplex.from_maximal_faces([(0,)])
    assert reduced_homology_ranks(point, 2) == {}
    two_points = SimplicialComplex.from_maximal_faces([(0,), (1,)])
    assert reduced_homology_ranks(two_points, 2) == {0: 1}
    circle = SimplicialComplex.from_maximal_faces([(0, 1), (1, 2), (0, 2)])
    assert reduced_homology_ranks(circle, 3) == {1: 1}


def test_euler_characteristic_matches_homology():
    K = SimplicialComplex.from_maximal_faces(RP2_FACES)
    for char in (2, 3, 5):
        ranks = reduced_homology_ranks(K, char)
        counts = K.face_counts()
        chains = -1 + sum((-1 if d % 2 else 1) * c for d, c in enumerate(counts))
        homology = sum((-1 if d % 2 else 1) * r for d, r in ranks.items())
        assert chains == homology


def test_order_complex_of_open_interval():
    L = lcm_lattice(parse_ideal("ab,bcg,cdg,de,efg"))
    K = order_complex(L, L.top)
    # every element except bottom and top shows up as a vertex
    assert len(K.vertices) == 19


def test_betti_from_lattice_equals_betti_from_ideal():
    I = parse_ideal("ab,bcg,cdg,de,efg")
    H = dual_hypergraph(I)
    a = betti_table_from_lattice(lattice_from_hypergraph(H), char=2)
    b = betti_table(I, char=2)
    assert a.entries == b.entries


def test_oracle_pd_shortcut():
    assert oracle_pd(parse_ideal("ab,bc,cd,de")) == 3


def test_chain_cap_aborts_with_sizing_report():
    I = parse_ideal("ab,bcg,cdg,de,efg")
    with pytest.raises(OracleError, match="aborting"):
        betti_table(I, chain_cap=4, method="order")
    with pytest.raises(OracleError, match="exceeds the cap"):
        betti_table(I, chain_cap=4, method="crosscut")


def test_json_dict_shapes():
    table = betti_table(parse_ideal("xy,yz"), char=2)
    data = table.to_json_dict()
    assert data["pd"] == 2
    assert data["totals"] == {"0": 1, "1": 2, "2": 1}
    assert "entries" not in data
    with_entries = table.to_json_dict(include_entries=True)
    assert with_entries["entries"]["1"] == {"[1]": 1, "[2]": 1}
    json.dumps(with_entries)


def test_char3_matches_char2_on_small_ideals():
    for text in FROZEN_TOTALS:
        a = betti_table(parse_ideal(text), char=2).totals()
        b = betti_table(parse_ideal(text), char=3).totals()
        assert a == b


def _random_ideal(rng, max_exp):
    ring = tuple("abcdef")
    gens = []
    for _ in range(rng.randint(3, 8)):
        exps = [0] * len(ring)
        for i in rng.sample(range(len(ring)), rng.randint(1, 3)):
            exps[i] = rng.randint(1, max_exp)
        gens.append(Monomial(ring, tuple(exps)))
    return make_ideal(ring, gens)


def _chain_coordinatized(rng, ideal):
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


def _fixture_ideals():
    with open("fixtures/five_gen.json") as f:
        five = ideal_from_json_dict(json.load(f))
    with open("fixtures/union_demo.json") as f:
        union = ideal_from_json_dict(json.load(f))
    with open("fixtures/labeled_lattice.json") as f:
        labeled = coordinatize(*labeling_from_json_dict(json.load(f)))
    return five, union, labeled


def test_lattice_pd_matches_full_table():
    rng = random.Random(4)
    ideals = [_random_ideal(rng, 1) for _ in range(40)]
    ideals += [_random_ideal(rng, 3) for _ in range(40)]
    coordinatized = [_chain_coordinatized(rng, _random_ideal(rng, 1)) for _ in range(100)]
    coordinatized = [I for I in coordinatized if not I.is_squarefree()]
    assert len(coordinatized) >= 10
    five, union, labeled = _fixture_ideals()
    principal = [make_ideal(("a", "b"), [Monomial(("a", "b"), (2, 1))]), parse_ideal("abc")]
    cases = [
        (I, c) for I in ideals + coordinatized + principal + [five, labeled] for c in (2, 3)
    ]
    cases.append((union, 2))
    for I, c in cases:
        L = lcm_lattice(I)
        assert lattice_pd(L, c) == betti_table_from_lattice(L, c).pd, (I.to_text(), c)


def test_lattice_pd_visits_few_intervals_on_figure4_core(monkeypatch):
    with open("fixtures/figure4.json") as f:
        reduced, _ = full_reduce(hypergraph_from_json_dict(json.load(f)))
    core = next(c for c in reduced.components() if c.mu > 1)
    L = lcm_lattice(ideal_from_hypergraph(core))
    assert len(L) == 1443
    visited = []
    ranks = betti.reduced_homology_ranks

    def counting(K, char=2):
        visited.append(K)
        return ranks(K, char)

    monkeypatch.setattr(betti, "reduced_homology_ranks", counting)
    assert lattice_pd(L, 2) == 9
    assert 0 < len(visited) < 50


def test_lattice_pd_keeps_sizing_and_char_checks(monkeypatch):
    L = lcm_lattice(parse_ideal("ab,bcg,cdg,de,efg"))
    monkeypatch.setattr(betti, "DEFAULT_CHAIN_CAP", 4)
    with pytest.raises(OracleError, match="exceeds the cap"):
        lattice_pd(L)
    with pytest.raises(OracleError, match="prime"):
        lattice_pd(L, 4)
