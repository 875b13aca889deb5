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


# The order-complex route, kept here as a small-lattice reference: the
# chains of the open interval (bottom, p), optionally after dismantling
# beat points, ranked by dense Gauss-Jordan elimination. It shares no
# complex or rank code with the library and only runs on small lattices.


def _open_interval(L, p: int) -> list[int]:
    return [q for q in L.masks if q != 0 and q != p and q & p == q]


def _chain_complex(points, chain_cap: int = betti.DEFAULT_CHAIN_CAP) -> list[list[tuple]]:
    """All chains of a family of masks ordered by strict containment,
    as index tuples into the points sorted by size, grouped by length."""
    pts = sorted(points, key=lambda m: (m.bit_count(), m))
    n = len(pts)
    above = [[j for j in range(i + 1, n) if pts[i] & pts[j] == pts[i] != pts[j]] for i in range(n)]
    levels: list[list[tuple[int, ...]]] = []
    current = [(i,) for i in range(n)]
    total = n
    while current:
        levels.append(current)
        current = [f + (j,) for f in current for j in above[f[-1]]]
        total += len(current)
        if total > chain_cap:
            raise OracleError(f"interval has more than {chain_cap} chains; aborting")
    return levels


def _core_points(points: list[int]) -> list[int]:
    """Dismantle beat points: drop any element whose strict down-set
    has a maximum or strict up-set has a minimum. Homotopy type of the
    order complex is preserved, so homology ranks are unchanged."""
    pts = set(points)
    changed = True
    while changed and len(pts) > 1:
        changed = False
        for x in sorted(pts):
            down = [y for y in pts if y != x and y & x == y]
            up = [y for y in pts if y != x and y & x == x]
            down_union = 0
            for y in down:
                down_union |= y
            up_inter = -1
            for y in up:
                up_inter &= y
            if (down and down_union != x and down_union in pts) or (
                up and up_inter != x and up_inter in pts
            ):
                pts.remove(x)
                changed = True
    return sorted(pts)


def _dense_reduced_homology(levels: list[list[tuple]], p: int) -> dict[int, int]:
    """Reduced homology ranks of a complex given as sorted index tuples
    grouped by length, closed under subsets."""
    ranks_of_boundary = [1 if levels else 0]  # augmentation onto the empty face
    for d in range(1, len(levels)):
        lower = {f: i for i, f in enumerate(levels[d - 1])}
        matrix = [[0] * len(lower) for _ in levels[d]]
        for r, f in enumerate(levels[d]):
            for k in range(len(f)):
                matrix[r][lower[f[:k] + f[k + 1 :]]] += (-1) ** k
        ranks_of_boundary.append(_dense_rank(matrix, p))
    ranks_of_boundary.append(0)
    ranks = {-1: 1 - ranks_of_boundary[0]}
    for d, level in enumerate(levels):
        ranks[d] = len(level) - ranks_of_boundary[d] - ranks_of_boundary[d + 1]
    return {d: r for d, r in ranks.items() if r}


def _order_route_entries(L, char: int, use_core: bool = True, chain_cap=betti.DEFAULT_CHAIN_CAP):
    """Betti table entries of the lattice by the order-complex route."""
    entries = {(0, 0): 1}
    for p in L.masks:
        if p == 0:
            continue
        points = _open_interval(L, p)
        if use_core:
            points = _core_points(points)
        for d, r in _dense_reduced_homology(_chain_complex(points, chain_cap), char).items():
            entries[(d + 2, p)] = r
    return entries


def test_crosscut_and_order_routes_agree():
    for text in ("xy,yz", "ab,bc,cd,de", "ab,bcg,cdg,de,efg"):
        I = parse_ideal(text)
        for char in (2, 3):
            assert betti_table(I, char).entries == _order_route_entries(lcm_lattice(I), char)


def test_order_complex_of_open_interval():
    L = lcm_lattice(parse_ideal("ab,bcg,cdg,de,efg"))
    levels = _chain_complex(_open_interval(L, L.top))
    # every element except bottom and top shows up as a vertex
    assert len(levels[0]) == 19


def test_core_dismantling_does_not_change_order_route():
    L = lcm_lattice(parse_ideal("ab,bcg,cdg,de,efg"))
    assert len(_core_points(_open_interval(L, L.top))) < 19
    with_core = _order_route_entries(L, 2, use_core=True)
    without = _order_route_entries(L, 2, use_core=False)
    assert with_core == without


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
        _order_route_entries(lcm_lattice(I), 2, chain_cap=4)
    with pytest.raises(OracleError, match="exceeds the cap"):
        betti_table(I, chain_cap=4)


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


def _vertex_list(f: int) -> tuple[int, ...]:
    return tuple(i for i in range(f.bit_length()) if f >> i & 1)


def _dense_boundary(K: SimplicialComplex, d: int) -> list[list[int]]:
    """The boundary matrix from d-faces to listed (d-1)-faces."""
    lower = {_vertex_list(f): i for i, f in enumerate(K.faces[d - 1])}
    matrix = [[0] * len(lower) for _ in K.faces[d]]
    for r, f in enumerate(K.faces[d]):
        vs = _vertex_list(f)
        for k in range(len(vs)):
            col = lower.get(vs[:k] + vs[k + 1 :])
            if col is not None:
                matrix[r][col] += (-1) ** k
    return matrix


def _relative_to_star(K: SimplicialComplex, v: int) -> SimplicialComplex:
    """(K, closed star of vertex v): the faces F of K with F + {v} not in K."""
    faces = {f for level in K.faces for f in level}
    kept = [[f for f in level if f | 1 << v not in faces] for level in K.faces]
    return SimplicialComplex(K.vertices, kept, relative=True)


def _random_complexes(rng, count: int) -> list[SimplicialComplex]:
    complexes = [SimplicialComplex.from_maximal_faces(RP2_FACES)]
    for _ in range(count):
        n = rng.randint(3, 7)
        maximal = [
            tuple(rng.sample(range(n), rng.randint(1, min(n, 4))))
            for _ in range(rng.randint(1, 8))
        ]
        complexes.append(SimplicialComplex.from_maximal_faces(maximal))
    return complexes


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_boundary_rank_matches_dense_reference(p):
    rng = random.Random(100 + p)
    complexes = _random_complexes(rng, 40)
    complexes += [_relative_to_star(K, rng.randrange(len(K.vertices))) for K in complexes]
    assert sum(K.relative and len(K.faces) > 1 for K in complexes) > 10
    for K in complexes:
        assert betti._boundary_rank(K, 0, p) == (0 if K.relative else 1)
        for d in range(1, len(K.faces)):
            want = _dense_rank(_dense_boundary(K, d), p)
            assert betti._boundary_rank(K, d, p) == want, (K.faces, d, p)


def test_homology_relative_to_a_star_is_reduced_homology():
    """A closed star is a cone, so excising it keeps every rank, for
    every vertex of every complex."""
    rng = random.Random(12)
    for K in _random_complexes(rng, 60):
        for char in (2, 3, 5):
            want = reduced_homology_ranks(K, char)
            for v in range(len(K.vertices)):
                assert reduced_homology_ranks(_relative_to_star(K, v), char) == want


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


def _smallest_above(L, face: int) -> int:
    return min((m for m in L.masks if m & face == face), key=int.bit_count)


def test_crosscut_route_on_more_than_62_atoms():
    """On 66 atoms, the faces kept are those of the definition: the apex
    is absent, the join is not p, and the join with the apex is p."""
    L = lcm_lattice(_staircase(random.Random(3), 66))
    assert L.num_atoms == 66
    # the top's interval has 2^66 atom subsets; smaller ones are computed
    small = [[pos for pos, p in enumerate(L.masks) if p.bit_count() == k][:12] for k in (2, 3, 4)]
    ups = L.up_sets()
    for pos in sum(small, []):
        p = L.masks[pos]
        atoms = [i for i in range(L.num_atoms) if p >> i & 1]
        # the default apex has the most elements above it up to p
        default = max(atoms, key=lambda a: sum(1 for m in L.masks[: pos + 1] if m >> a & 1))
        for apex in [None] + atoms:
            K = betti._crosscut_complex(ups, p, pos, betti.DEFAULT_CHAIN_CAP, apex)
            assert K.relative and list(K.vertices) == atoms
            a = default if apex is None else apex
            want = set()
            for k in range(1, len(atoms)):
                for face in itertools.combinations(atoms, k):
                    m = sum(1 << i for i in face)
                    if (
                        a not in face
                        and _smallest_above(L, m) != p
                        and _smallest_above(L, m | 1 << a) == p
                    ):
                        want.add(face)
            got = {tuple(atoms[i] for i in _vertex_list(f)) for level in K.faces for f in level}
            assert got == want, (p, apex)


def _full_crosscut(L, p: int) -> list[list[tuple[int, ...]]]:
    """The whole crosscut complex of p from the definition, as sorted
    atom tuples grouped by size."""
    atoms = [i for i in range(L.num_atoms) if p >> i & 1]
    return [
        [f for f in itertools.combinations(atoms, k)
         if _smallest_above(L, sum(1 << i for i in f)) != p]
        for k in range(1, len(atoms))
    ]


def test_every_apex_gives_the_full_crosscut_ranks():
    rng = random.Random(31)
    ideals = [_random_ideal(rng, 1) for _ in range(18)] + [_random_ideal(rng, 3) for _ in range(14)]
    assert sum(not I.is_squarefree() for I in ideals) >= 5
    # intervals with homology of rank 2 and 3
    ideals += [parse_ideal(t) for t in ("ab,ac,ad,bc,bd,cd", "ab,bc,cd,de,ef,fg,ga")]
    checked = 0
    for I in ideals:
        L = lcm_lattice(I)
        ups = L.up_sets()
        for pos, p in enumerate(L.masks):
            if p.bit_count() < 2:
                continue
            full = _full_crosscut(L, p)
            atoms = [i for i in range(L.num_atoms) if p >> i & 1]
            for char in (2, 3, 5):
                want = _dense_reduced_homology([level for level in full if level], char)
                for apex in [None] + atoms:
                    K = betti._crosscut_complex(ups, p, pos, betti.DEFAULT_CHAIN_CAP, apex)
                    assert reduced_homology_ranks(K, char) == want, (I.to_text(), p, apex, char)
                    checked += 1
    assert checked > 3000
