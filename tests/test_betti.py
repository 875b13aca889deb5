from __future__ import annotations

import itertools
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


def _dense_rank(matrix: list[list[int]], p: int) -> int:
    """Textbook Gauss-Jordan rank over GF(p), column by column."""
    rows = [[v % p for v in row] for row in matrix]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(v - f * w) % p for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _sparse(matrix: list[list[int]], p: int) -> list[dict[int, int]]:
    return [{c: v % p for c, v in enumerate(row) if v % p} for row in matrix]


@pytest.mark.parametrize("p", [3, 5, 7, 101])
def test_sparse_rank_matches_dense_reference(p):
    rng = random.Random(p)
    deficient = 0
    for _ in range(150):
        n_rows, n_cols = rng.randint(1, 9), rng.randint(1, 9)
        density = rng.random()
        matrix = [
            [rng.randint(-p, p) if rng.random() < density else 0 for _ in range(n_cols)]
            for _ in range(n_rows)
        ]
        if n_rows > 1 and rng.random() < 0.5:
            # a combination of other rows makes the matrix rank-deficient
            a, b = rng.sample(range(n_rows), 2)
            fa, fb = rng.randint(1, p - 1), rng.randint(0, p - 1)
            matrix[a] = [fa * x + fb * y for x, y in zip(matrix[a], matrix[b])]
            matrix[rng.choice([a, b])] = list(matrix[a])
        want = _dense_rank(matrix, p)
        deficient += want < min(n_rows, n_cols)
        assert betti._rank_gfp(_sparse(matrix, p), p) == want, (matrix, p)
    assert deficient > 30


def _dense_boundary(K: SimplicialComplex, d: int) -> list[list[int]]:
    lower = {f: i for i, f in enumerate(K.faces[d - 1])}
    matrix = [[0] * len(lower) for _ in K.faces[d]]
    for r, f in enumerate(K.faces[d]):
        for k in range(len(f)):
            matrix[r][lower[f[:k] + f[k + 1 :]]] += (-1) ** k
    return matrix


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_boundary_rank_matches_dense_reference(p):
    rng = random.Random(100 + p)
    complexes = [SimplicialComplex.from_maximal_faces(RP2_FACES)]
    for _ in range(40):
        n = rng.randint(3, 7)
        maximal = [
            tuple(rng.sample(range(n), rng.randint(1, min(n, 4))))
            for _ in range(rng.randint(1, 8))
        ]
        complexes.append(SimplicialComplex.from_maximal_faces(maximal))
    for K in complexes:
        for d in range(1, len(K.faces)):
            want = _dense_rank(_dense_boundary(K, d), p)
            assert betti._boundary_rank(K, d, p) == want, (K.faces, d, p)


def _staircase(rng, mu):
    """mu generators x^a y^b with a rising and b falling: a minimal
    generating set whose lcm-lattice has about mu^2 / 2 elements."""
    xs = sorted(rng.sample(range(1, 3 * mu), mu))
    ys = sorted(rng.sample(range(1, 3 * mu), mu), reverse=True)
    ring = ("x", "y")
    return make_ideal(ring, [Monomial(ring, (a, b)) for a, b in zip(xs, ys)])


def test_up_set_join_is_the_smallest_superset():
    rng = random.Random(7)
    ideals = [_random_ideal(rng, rng.randint(1, 3)) for _ in range(30)]
    ideals.append(_staircase(rng, 70))
    assert max(I.mu for I in ideals) > 62
    for I in ideals:
        L = lcm_lattice(I)
        ups = L.up_sets()
        assert len(ups) == L.num_atoms
        subsets = [s for k in range(min(L.num_atoms, 3) + 1)
                   for s in itertools.combinations(range(L.num_atoms), k)]
        subsets = rng.sample(subsets, min(len(subsets), 200))
        subsets += [rng.sample(range(L.num_atoms), rng.randint(0, L.num_atoms)) for _ in range(50)]
        for atoms in subsets:
            face = sum(1 << i for i in atoms)
            up = (1 << len(L)) - 1
            for i in atoms:
                up &= ups[i]
            got = L.masks[(up & -up).bit_length() - 1]
            supersets = [m for m in L.masks if m & face == face]
            smallest = min(supersets, key=int.bit_count)
            assert all(m & smallest == smallest for m in supersets)
            assert got == smallest, (I.to_text(), atoms)


def test_crosscut_route_on_more_than_62_atoms():
    L = lcm_lattice(_staircase(random.Random(3), 66))
    assert L.num_atoms == 66
    # the top's interval has 2^66 atom subsets; smaller ones are computed
    small = [pos for pos, p in enumerate(L.masks) if 2 <= p.bit_count() <= 4]
    ups = L.up_sets()
    for pos in small[:40]:
        p = L.masks[pos]
        K = betti._crosscut_complex(ups, p, pos, betti.DEFAULT_CHAIN_CAP)
        faces = {tuple(K.vertices[i] for i in f) for level in K.faces for f in level}
        want = set()
        for k in range(1, p.bit_count() + 1):
            for atoms in itertools.combinations(K.vertices, k):
                face = sum(1 << i for i in atoms)
                if min((m for m in L.masks if m & face == face), key=int.bit_count) != p:
                    want.add(atoms)
        assert faces == want
