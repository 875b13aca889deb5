from __future__ import annotations

import collections
import itertools
import json
import math
import random
import tracemalloc

import pytest

from hyperpd import betti, lattices
from hyperpd.betti import (
    OracleError,
    SimplicialComplex,
    betti_table,
    betti_table_from_lattice,
    lattice_pd,
    reduced_homology_ranks,
)
from hyperpd.hypergraphs import dual_hypergraph, hypergraph_from_json_dict, ideal_from_hypergraph
from hyperpd.ideals import Monomial, ideal_from_json_dict, make_ideal, parse_ideal
from hyperpd.lattices import (
    LatticeError,
    _separated_edge_masks,
    atom_columns,
    coordinatize,
    labeling_from_json_dict,
    lcm_lattice,
    lattice_from_hypergraph,
    lattice_from_json_dict,
    mask_of,
    polarized_edges,
)
from hyperpd.reduction import full_reduce
from test_lattices import chain_coordinatized
from test_pd import _workloads

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


def _from_maximal_faces(maximal) -> SimplicialComplex:
    """The complex generated by the given faces: every subset of each,
    the empty face included."""
    vertices = sorted({v for f in maximal for v in f})
    index = {v: i for i, v in enumerate(vertices)}
    masks = [sum(1 << index[v] for v in set(f)) for f in maximal]
    top = max((m.bit_count() for m in masks), default=0)
    levels: list[set[int]] = [{0}] + [set() for _ in range(top)]
    for m in masks:
        s = m
        while s:  # every nonempty subset of m
            levels[s.bit_count()].add(s)
            s = (s - 1) & m
    return SimplicialComplex(vertices, [sorted(level) for level in levels])


@pytest.mark.parametrize("text,expected", sorted(FROZEN_TOTALS.items()))
def test_frozen_total_betti_numbers(text, expected):
    table = betti_table(parse_ideal(text), char=2)
    assert table.totals() == expected


def test_pd_reads_top_nonzero_row():
    table = betti_table(parse_ideal("ab,bcg,cdg,de,efg"), char=2)
    assert table.pd == 4
    assert table.totals()[4] == 1
    assert 9 not in table.totals()


def test_beta_one_counts_generators():
    for text in FROZEN_TOTALS:
        assert betti_table(parse_ideal(text)).totals()[1] == parse_ideal(text).mu


# The order-complex route, kept here as a small-lattice reference: the
# chains of the open interval (bottom, p), optionally after dismantling
# beat points, ranked by dense Gauss-Jordan elimination. It shares no
# complex or rank code with the library and only runs on small lattices.


def _open_interval(L, p: int) -> list[int]:
    return [q for q in L.masks if q != 0 and q != p and q & p == q]


def _chain_complex(points, chain_cap: int = betti.DEFAULT_CHAIN_CAP) -> list[list[tuple]]:
    """All chains of a family of masks ordered by strict containment,
    as index tuples into the points sorted by size, grouped by length
    from the empty chain up."""
    pts = sorted(points, key=lambda m: (m.bit_count(), m))
    n = len(pts)
    above = [[j for j in range(i + 1, n) if pts[i] & pts[j] == pts[i] != pts[j]] for i in range(n)]
    levels: list[list[tuple[int, ...]]] = [[()]]
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
    grouped by length, the empty face first, closed under subsets."""
    ranks_of_boundary = [0]
    for k in range(1, len(levels)):
        lower = {f: i for i, f in enumerate(levels[k - 1])}
        matrix = [[0] * len(lower) for _ in levels[k]]
        for r, f in enumerate(levels[k]):
            for i in range(len(f)):
                matrix[r][lower[f[:i] + f[i + 1 :]]] += (-1) ** i
        ranks_of_boundary.append(_dense_rank(matrix, p))
    ranks_of_boundary.append(0)
    ranks = {
        k - 1: len(level) - ranks_of_boundary[k] - ranks_of_boundary[k + 1]
        for k, level in enumerate(levels)
    }
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
    assert levels[0] == [()]
    assert len(levels[1]) == 19


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
    K = _from_maximal_faces(RP2_FACES)
    assert K.face_counts() == [1, 6, 15, 10]
    assert reduced_homology_ranks(K, 2) == {1: 1, 2: 1}
    assert reduced_homology_ranks(K, 3) == {}
    assert reduced_homology_ranks(K, 5) == {}


def test_reduced_homology_conventions():
    empty = _from_maximal_faces([])
    assert empty.faces == [[0]]
    assert reduced_homology_ranks(empty, 2) == {-1: 1}
    # a pair (K, K) lists no face and has no homology
    assert reduced_homology_ranks(SimplicialComplex([], []), 2) == {}
    point = _from_maximal_faces([(0,)])
    assert reduced_homology_ranks(point, 2) == {}
    two_points = _from_maximal_faces([(0,), (1,)])
    assert reduced_homology_ranks(two_points, 2) == {0: 1}
    circle = _from_maximal_faces([(0, 1), (1, 2), (0, 2)])
    assert reduced_homology_ranks(circle, 3) == {1: 1}


def test_euler_characteristic_matches_homology():
    K = _from_maximal_faces(RP2_FACES)
    for char in (2, 3, 5):
        ranks = reduced_homology_ranks(K, char)
        counts = K.face_counts()
        # a face on k vertices has dimension k - 1
        chains = sum((1 if k % 2 else -1) * c for k, c in enumerate(counts))
        homology = sum((-1 if d % 2 else 1) * r for d, r in ranks.items())
        assert chains == homology


def test_betti_from_lattice_equals_betti_from_ideal():
    I = parse_ideal("ab,bcg,cdg,de,efg")
    H = dual_hypergraph(I)
    a = betti_table_from_lattice(lattice_from_hypergraph(H), char=2)
    b = betti_table(I, char=2)
    assert a.entries == b.entries


def _ideal_pd(I, char=2):
    return lattice_pd(I.mu, polarized_edges(I), char)


def test_oracle_pd_shortcut():
    assert _ideal_pd(parse_ideal("ab,bc,cd,de")) == 3


# the top element of this ideal collides in the split, and so builds
# the one crosscut complex of its table: on 4 atoms, with 16 candidate
# faces
COLLISION = "abc,ad,bd,cd"


def test_chain_cap_aborts_with_sizing_report(monkeypatch):
    I = parse_ideal("ab,bcg,cdg,de,efg")
    with pytest.raises(OracleError, match="aborting"):
        _order_route_entries(lcm_lattice(I), 2, chain_cap=4)
    monkeypatch.setattr(betti, "DEFAULT_CHAIN_CAP", 15)
    with pytest.raises(OracleError, match="exceeds the cap"):
        betti_table(parse_ideal(COLLISION))


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


def _fixture_ideals():
    with open("fixtures/five_gen.json") as f:
        five = ideal_from_json_dict(json.load(f))
    with open("fixtures/union_demo.json") as f:
        union = ideal_from_json_dict(json.load(f))
    with open("fixtures/labeled_lattice.json") as f:
        labeled = coordinatize(*labeling_from_json_dict(json.load(f)))
    return five, union, labeled


def test_lattice_pd_matches_full_table(monkeypatch):
    rng = random.Random(4)
    ideals = [_random_ideal(rng, 1) for _ in range(40)]
    ideals += [_random_ideal(rng, 3) for _ in range(40)]
    coordinatized = [chain_coordinatized(rng, _random_ideal(rng, 1)) for _ in range(100)]
    coordinatized = [I for I in coordinatized if not I.is_squarefree()]
    assert len(coordinatized) >= 10
    five, union, labeled = _fixture_ideals()
    principal = [make_ideal(("a", "b"), [Monomial(("a", "b"), (2, 1))]), parse_ideal("abc")]
    # totals {0: 1, 1: 4, 2: 3}: a walk that skips the level below its
    # best degree answers 1 here
    level_gap = parse_ideal("x1*x2*x6,x1*x3*x6,x2*x4*x6,x1*x2*x5")
    cases = [
        (I, c)
        for I in ideals + coordinatized + principal + [five, labeled, level_gap]
        for c in (2, 3)
    ]
    # 5 of these 300 ideals reach their pd 3 only at a Taylor element on
    # 3 atoms, after an element visited before it set best to 2: in
    # x1*x2,x0*x2,x2*x4,x0*x1*x4*x5 the top's crosscut complex is a
    # triangle and a point, and the triangle's atoms are Taylor
    taylor_rng = random.Random(5)
    taylor_gaps = [_squarefree_ideal(taylor_rng, 6, 5, (2, 4)) for _ in range(300)]
    cases += [(I, c) for I in taylor_gaps for c in (2, 3)]
    cases.append((union, 2))
    raised = _counting_taylor_raises(monkeypatch)
    raises = 0
    for I, c in cases:
        want = betti_table_from_lattice(lcm_lattice(I), c).pd
        raised.clear()
        assert _ideal_pd(I, c) == want, (I.to_text(), c)
        raises += len(raised)
    assert raises >= 10


def _counting_taylor_raises(monkeypatch) -> list:
    """Patch `betti` so that each element on more than one atom that
    `lattice_pd`'s Taylor test finds Taylor is appended to the returned
    list. Such an element raises the answer: it lies one atom above the
    best degree found."""
    raised = []
    is_taylor = betti._is_taylor

    def counting(supports, p):
        taylor = is_taylor(supports, p)
        if taylor and p.bit_count() > 1:
            raised.append(p)
        return taylor

    monkeypatch.setattr(betti, "_is_taylor", counting)
    return raised


def test_taylor_test_agrees_with_the_first_peel():
    """An element is Taylor exactly when its first peel leaves nothing."""
    rng = random.Random(35)
    taylor = 0
    for _ in range(2000):
        supports = [rng.getrandbits(rng.randint(1, 8)) for _ in range(rng.randint(1, 7))]
        p = rng.getrandbits(len(supports)) or 1
        want = not betti._first_peel(supports, p)
        assert betti._is_taylor(supports, p) == want, (supports, p)
        taylor += want
    assert 100 < taylor < 1900


def test_lattice_pd_walks_few_elements_on_figure4_core(monkeypatch):
    """`lattice_pd` settles an element through `_betti_numbers` only
    when it lies two or more atoms above the best degree found; on
    best + 1 atoms the Taylor test alone decides it."""
    with open("fixtures/figure4.json") as f:
        reduced, _ = full_reduce(hypergraph_from_json_dict(json.load(f)))
    core = next(c for c in reduced.components() if c.mu > 1)
    assert len(lcm_lattice(ideal_from_hypergraph(core))) == 1443
    settled = collections.Counter()
    numbers = betti._betti_numbers

    def counting(supports, p, char, memo):
        settled[p.bit_count()] += 1
        return numbers(supports, p, char, memo)

    monkeypatch.setattr(betti, "_betti_numbers", counting)
    # the walk builds at most 100 elements above the bottom
    monkeypatch.setattr(lattices, "DEFAULT_ELEMENT_CAP", 100)
    assert lattice_pd(core.mu, _separated_edge_masks(core), 2) == 9
    assert settled == {10: 2, 11: 1}
    # the 13-vertex path and cycle: settling the level at best + 1 too
    # costs 43 and 27 calls
    path = [f"x{i}*x{i + 1}" for i in range(12)]
    for gens, pd, want in [(path, 8, {10: 12, 11: 2, 12: 1}), (path + ["x0*x12"], 9, {11: 13, 13: 1})]:
        settled.clear()
        assert _ideal_pd(parse_ideal(",".join(gens))) == pd
        assert settled == want


def test_char_is_proven_once_per_call(monkeypatch):
    # proving a large prime tries about 46,000 divisors, so it must not
    # run once per interval
    calls = []
    check = betti._check_char

    def counting(char):
        calls.append(char)
        return check(char)

    monkeypatch.setattr(betti, "_check_char", counting)
    I = parse_ideal("ab,bc,cd,de,ef,fg")
    for char in (2, 3):
        calls.clear()
        assert betti_table(I, char).pd == 4
        assert calls == [char]
        calls.clear()
        assert _ideal_pd(I, char) == 4
        assert calls == [char]


def test_a_characteristic_is_proven_once_per_process():
    betti._check_char.cache_clear()
    betti._check_char(betti.MAX_FIELD_CHAR)  # 2,147,483,647 is prime
    betti._check_char(betti.MAX_FIELD_CHAR)
    info = betti._check_char.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_json_lattice_gives_the_walk_built_betti_table():
    """A lattice read back from its own JSON has the complements of its
    meet-irreducibles as its edges, not the polarized edges; every Betti
    entry agrees."""
    rng = random.Random(12)
    ideals = [_random_ideal(rng, 1) for _ in range(25)]
    coordinatized = [chain_coordinatized(rng, _random_ideal(rng, 1)) for _ in range(40)]
    coordinatized = [I for I in coordinatized if not I.is_squarefree()]
    assert len(coordinatized) >= 5
    for I in ideals + coordinatized:
        L = lcm_lattice(I)
        given = lattice_from_json_dict(L.to_json_dict())
        assert given.edges == tuple(L.top & ~m for m in L.meet_irreducibles())
        for char in (2, 3):
            want = betti_table_from_lattice(L, char).entries
            assert betti_table_from_lattice(given, char).entries == want, (I.to_text(), char)


def test_lattice_pd_keeps_sizing_and_char_checks(monkeypatch):
    I = parse_ideal(COLLISION)
    monkeypatch.setattr(betti, "DEFAULT_CHAIN_CAP", 15)
    with pytest.raises(OracleError, match="exceeds the cap"):
        _ideal_pd(I)
    with pytest.raises(OracleError, match="prime"):
        _ideal_pd(I, 4)


def test_lattice_pd_caps_the_elements_it_builds(monkeypatch):
    I = parse_ideal("ab,bc,cd,de,ef,fg,gh,hi,ij,jk")
    size = len(lcm_lattice(I)) - 1  # above the bottom
    seeds = len(set(polarized_edges(I))) + 1  # and the top
    built = []
    for cap in range(1, 40):
        monkeypatch.setattr(lattices, "DEFAULT_ELEMENT_CAP", cap)
        try:
            assert _ideal_pd(I) == 7
        except LatticeError as exc:
            assert str(exc) == f"lcm-lattice exceeds the {cap}-element cap"
        else:
            built.append(cap)
    # the smallest cap that lets the walk through is what it builds:
    # the seeds, some of their meets, and far less than the lattice
    assert built == list(range(built[0], 40))
    assert seeds < built[0] < size


def test_chain_cap_error_names_the_size_and_the_cap(monkeypatch):
    """The cap is judged on the complex that is built, not on the
    element: with a coprime generator beside it, the collision's top
    has 5 atoms, but the peel drops the private one, and the complex
    is on the other 4."""
    message = "crosscut complex on 4 atoms has 16 candidate faces, which exceeds the cap of 15"
    for text, want in ((COLLISION, 3), (COLLISION + ",e", 4)):
        I = parse_ideal(text)
        monkeypatch.setattr(betti, "DEFAULT_CHAIN_CAP", 15)
        for route in (lambda: _ideal_pd(I), lambda: betti_table(I)):
            with pytest.raises(OracleError) as err:
                route()
            assert str(err.value) == message
        monkeypatch.setattr(betti, "DEFAULT_CHAIN_CAP", 16)
        assert _ideal_pd(I) == betti_table(I).pd == want


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


def _dense_boundary(K: SimplicialComplex, k: int) -> list[list[int]]:
    """The boundary matrix from the faces on k vertices to the listed
    faces on k - 1."""
    lower = {_vertex_list(f): i for i, f in enumerate(K.faces[k - 1])}
    matrix = [[0] * len(lower) for _ in K.faces[k]]
    for r, f in enumerate(K.faces[k]):
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
    return SimplicialComplex(K.vertices, kept)


def _random_complexes(rng, count: int) -> list[SimplicialComplex]:
    complexes = [_from_maximal_faces(RP2_FACES)]
    for _ in range(count):
        n = rng.randint(3, 7)
        maximal = [
            tuple(rng.sample(range(n), rng.randint(1, min(n, 4))))
            for _ in range(rng.randint(1, 8))
        ]
        complexes.append(_from_maximal_faces(maximal))
    return complexes


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_boundary_rank_matches_dense_reference(p):
    rng = random.Random(100 + p)
    plain = _random_complexes(rng, 40)
    pairs = [_relative_to_star(K, rng.randrange(len(K.vertices))) for K in plain]
    assert sum(len(K.faces) > 2 for K in pairs) > 10
    for K in plain + pairs:
        # onto the empty face: the augmentation, unless the star holds it
        assert betti._boundary_rank(K, 1, p) == (1 if K in plain else 0)
        for k in range(1, len(K.faces)):
            want = _dense_rank(_dense_boundary(K, k), p)
            assert betti._boundary_rank(K, k, p) == want, (K.faces, k, p)


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


def _edge_forms(I, L) -> tuple[list[int], tuple[int, ...]]:
    """The two sources of a lattice's edges: the polarized edges, which
    the walk-built lattice keeps, and the complements of the
    meet-irreducibles of the lattice read back from its own JSON."""
    edges = polarized_edges(I)
    assert L.edges == tuple(edges)
    given = lattice_from_json_dict(L.to_json_dict())
    assert given == L and given.edges == tuple(L.top & ~m for m in L.meet_irreducibles())
    return edges, given.edges


def _joined(supports, face: int) -> int:
    out = 0
    for i in _vertex_list(face):
        out |= supports[i]
    return out


def test_support_join_is_the_smallest_superset():
    """A face's join is the meet of the complements its supports miss,
    and an element p above the face is its join exactly when the OR of
    the face's supports equals p's."""
    rng = random.Random(7)
    ideals = [_random_ideal(rng, rng.randint(1, 3)) for _ in range(30)]
    ideals.append(_staircase(rng, 70))
    assert max(I.mu for I in ideals) == 70
    for I in ideals:
        L = lcm_lattice(I)
        subsets = [s for k in range(min(L.num_atoms, 3) + 1)
                   for s in itertools.combinations(range(L.num_atoms), k)]
        subsets = rng.sample(subsets, min(len(subsets), 200))
        subsets += [rng.sample(range(L.num_atoms), rng.randint(0, L.num_atoms)) for _ in range(50)]
        for edges in _edge_forms(I, L):
            supports = atom_columns(L.num_atoms, edges)
            assert len(supports) == L.num_atoms
            for atoms in subsets:
                face = sum(1 << i for i in atoms)
                joined = _joined(supports, face)
                supersets = [m for m in L.masks if m & face == face]
                smallest = min(supersets, key=int.bit_count)
                assert all(m & smallest == smallest for m in supersets)
                if face:
                    meet = L.top
                    for j, e in enumerate(edges):
                        if not joined >> j & 1:
                            meet &= L.top & ~e
                    assert meet == smallest, (I.to_text(), atoms)
                for m in supersets:
                    assert (_joined(supports, m) == joined) == (m == smallest), (I.to_text(), atoms)


def _smallest_above(L, face: int) -> int:
    return min((m for m in L.masks if m & face == face), key=int.bit_count)


def _support_forms(I, L):
    """The supports from each of `_edge_forms`."""
    return tuple(atom_columns(L.num_atoms, edges) for edges in _edge_forms(I, L))


def test_crosscut_route_on_more_than_62_atoms():
    """On 66 atoms, the faces kept are those of the definition: the apex
    is absent, the join is not p, and the join with the apex is p."""
    I = _staircase(random.Random(3), 66)
    L = lcm_lattice(I)
    assert L.num_atoms == 66
    # the top's interval has 2^66 atom subsets; smaller ones are computed
    small = [[p for p in L.masks if p.bit_count() == k][:12] for k in (2, 3, 4)]
    for p, supports in itertools.product(sum(small, []), _support_forms(I, L)):
        atoms = [i for i in range(L.num_atoms) if p >> i & 1]
        for apex, a in enumerate(atoms):
            K = betti._crosscut_complex([supports[i] for i in atoms], apex)
            assert list(K.vertices) == list(range(len(atoms)))
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
            assert got == want, (p, a)


def _full_crosscut(L, p: int) -> list[list[tuple[int, ...]]]:
    """The whole crosscut complex of p from the definition, as sorted
    atom tuples grouped by size, the empty face first."""
    atoms = [i for i in range(L.num_atoms) if p >> i & 1]
    return [
        [f for f in itertools.combinations(atoms, k)
         if _smallest_above(L, sum(1 << i for i in f)) != p]
        for k in range(len(atoms))
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
        forms = _support_forms(I, L)
        for p in L.masks:
            if p.bit_count() < 2:
                continue
            full = _full_crosscut(L, p)
            atoms = [i for i in range(L.num_atoms) if p >> i & 1]
            for char in (2, 3, 5):
                want = _dense_reduced_homology([level for level in full if level], char)
                for supports, apex in itertools.product(forms, range(len(atoms))):
                    K = betti._crosscut_complex([supports[i] for i in atoms], apex)
                    assert reduced_homology_ranks(K, char) == want, (I.to_text(), p, apex, char)
                    checked += 1
    # 5,532 checks, every atom of each element as the apex
    assert checked > 5000


def _unpeeled(supports, p: int, char: int) -> dict[int, int]:
    """An element's Betti numbers from its whole crosscut complex
    relative to its lowest atom, with no atom peeled off."""
    live = [supports[i] for i in range(p.bit_length()) if p >> i & 1]
    ranks = reduced_homology_ranks(betti._crosscut_complex(live, 0), char)
    return {d + 2: r for d, r in ranks.items()}


def _counting_complexes(monkeypatch) -> list:
    """Every complex `_betti_numbers` ranks, from now on."""
    ranked = []
    ranks = betti.reduced_homology_ranks

    def counting(K, char=2):
        ranked.append(K)
        return ranks(K, char)

    monkeypatch.setattr(betti, "reduced_homology_ranks", counting)
    return ranked


def _counting_splits(monkeypatch) -> list:
    """The target of every instance whose split fires, from now on: an
    instance that hands `_settle` a deletion has split."""
    fired = []
    split = []  # per instance being settled, whether it has split
    settle = betti._settle

    def counting(live, target, char):
        if split and not split[-1]:
            split[-1] = True
            fired.append(target)
        split.append(False)
        try:
            return settle(live, target, char)
        finally:
            split.pop()

    monkeypatch.setattr(betti, "_settle", counting)
    return fired


def _squarefree_ideal(rng, num_vars: int, mu: int, degrees: tuple[int, int]):
    ring = tuple(f"x{i}" for i in range(num_vars))
    supports = set()
    while len(supports) < mu:
        supports.add(frozenset(rng.sample(range(num_vars), rng.randint(*degrees))))
    gens = [Monomial(ring, tuple(int(i in s) for i in range(num_vars))) for s in supports]
    return make_ideal(ring, gens)


def test_peel_matches_the_unpeeled_crosscut_route(monkeypatch):
    """On every interval of the benchmark's Betti inputs, the fixtures
    and random ideals, the peel and the split on the apex give the
    ranks of the whole crosscut complex, at chars 2, 3 and 5."""
    workloads = _workloads(monkeypatch)
    ideals = [parse_ideal(q.argv[-1]) for q in workloads.betti_gf3(1)]
    ideals += _fixture_ideals()
    rng = random.Random(16)
    ideals += [_squarefree_ideal(rng, 9, rng.randint(4, 8), (2, 3)) for _ in range(200)]
    ideals += [_squarefree_ideal(rng, 7, rng.randint(5, 8), (3, 5)) for _ in range(100)]
    ideals += [_random_ideal(rng, 3) for _ in range(30)]
    ranked = _counting_complexes(monkeypatch)
    fired = _counting_splits(monkeypatch)
    checked = built = 0
    for I in ideals:
        L = lcm_lattice(I)
        supports = atom_columns(L.num_atoms, L.edges)
        for p in L.masks:
            # the relative route needs the apex to be a vertex, which a
            # lone atom is not; `test_beta_one_counts_generators` covers
            # atoms
            if p.bit_count() < 2:
                continue
            for char in (2, 3, 5):
                before = len(ranked)
                got = betti._betti_numbers(supports, p, char, {})
                assert got == _unpeeled(supports, p, char), (I.to_text(), p, char)
                checked += 1
                built += len(ranked) > before
    assert checked > 20000
    # the split fires on hundreds of intervals, and a collision sends a
    # few dozen to complexes, each at the instance where it happens (921
    # splits; 75 intervals rank 84 complexes; the peel alone left 747)
    assert len(fired) > 800
    assert 50 < built <= len(ranked) < 100


def test_each_exit_of_the_peel(monkeypatch):
    ranked = _counting_complexes(monkeypatch)

    def peel(supports: list[set[int]]) -> tuple[dict[int, int], int]:
        """The Betti numbers of the element on all the given atoms, each
        support a set of edge indices, at char 3, checked against the
        unpeeled route; and how many complexes were ranked."""
        masks = [sum(1 << i for i in s) for s in supports]
        p = (1 << len(masks)) - 1
        before = len(ranked)
        got = betti._betti_numbers(masks, p, 3, {})
        assert got == _unpeeled(masks, p, 3)
        return got, len(ranked) - before

    # every atom has a private bit: a Taylor interval, the boundary of
    # a simplex
    assert peel([{0, 1}, {1, 2, 3}, {3, 4}]) == ({3: 1}, 0)
    # 8 is private; on R = {4} both other atoms cover R, so one is
    # dropped and the other is private: the complex whose only face is
    # empty
    assert peel([{3, 4}, {4, 7}, {3, 7, 8}]) == ({2: 1}, 0)
    # the private atoms cover everything: R = 0, a cone
    assert peel([{0, 1}, {1, 2}, {2, 3}]) == ({}, 0)
    # 0 is private; on R = {2, 3, 4} the first atom's support is empty:
    # a cone over it, though no other atom has a private bit there
    assert peel([{1}, {0, 1}, {2, 3}, {3, 4}, {2, 4}]) == ({}, 0)
    # 9 is private; on R = {0, 1, 2} no atom has a private bit, so the
    # split settles the complex of three points one degree up
    assert peel([{9}, {0, 1}, {1, 2}, {0, 2}]) == ({3: 2}, 0)
    # no atom has a private bit, and {0, 1, 2} holds {0, 1}: it is
    # dropped, and the split settles the complex of three points
    assert peel([{0, 1}, {0, 1, 2}, {1, 2}, {0, 2}]) == ({2: 2}, 0)
    # the deletion of the apex {0, 3} and its link both have
    # beta_2 = 1: the sides share a degree, so the complex is ranked on
    # all 4 atoms
    assert peel([{0, 1, 2}, {0, 3}, {1, 3}, {2, 3}]) == ({2: 1, 3: 1}, 1)
    assert len(ranked[-1].vertices) == 4
    # it is relative to the star of the atom the split chose, {0, 3} at
    # position 1, so no face holds that atom: the faces outside the
    # star are {0, 1, 2} alone, and {1, 3} with {2, 3}
    assert [_vertex_list(f) for level in ranked[-1].faces for f in level] == [(0,), (2, 3)]


@pytest.mark.parametrize("graph, n", [("path", 12), ("cycle", 11), ("path", 13), ("cycle", 13)])
def test_complexes_ranked_on_paths_and_cycles(monkeypatch, graph, n):
    """The whole Betti table and `lattice_pd` rank no complex on the
    edge ideal of a path or a cycle: the peel and the split settle
    every interval, the top of a cycle included."""
    edges = [(i, i + 1) for i in range(1, n)] + ([(n, 1)] if graph == "cycle" else [])
    I = parse_ideal(",".join(f"x{a}*x{b}" for a, b in edges))
    ranked = _counting_complexes(monkeypatch)
    betti_table(I)
    lattice_pd(I.mu, polarized_edges(I))
    assert ranked == []


def _support_families(rng, count: int) -> list[list[int]]:
    """Random families of 6 to 14 nonzero supports over about as many
    edges, each edge in about half or more of them."""
    families = []
    for _ in range(count):
        n = rng.randint(6, 14)
        edges = rng.randint(n // 2, n + 2)
        density = rng.choice((0.5, 0.6, 0.7))
        family: list[int] = []
        while len(family) < n:
            s = sum(1 << e for e in range(edges) if rng.random() < density)
            if s:
                family.append(s)
        families.append(family)
    return families


def _crosscut_by_definition(supports: list[int], char: int) -> dict[int, int]:
    """The Betti numbers of the whole crosscut complex of the supports:
    every set of atoms, the empty one included, whose supports OR to
    less than all of them do."""
    target = 0
    for s in supports:
        target |= s
    levels: list[list[int]] = [[] for _ in range(len(supports) + 1)]
    stack = [(0, 0, 0)]
    while stack:
        face, joined, start = stack.pop()
        levels[face.bit_count()].append(face)
        for k in range(start, len(supports)):
            if joined | supports[k] != target:
                stack.append((face | 1 << k, joined | supports[k], k + 1))
    K = SimplicialComplex(range(len(supports)), [sorted(level) for level in levels])
    return {d + 2: r for d, r in reduced_homology_ranks(K, char).items()}


def _complete_graph_ideal(n: int):
    return parse_ideal(",".join(f"x{a}*x{b}" for a, b in itertools.combinations(range(1, n + 1), 2)))


def test_split_matches_the_whole_crosscut_complex(monkeypatch):
    """The peel and the split on the apex give the ranks of the whole
    crosscut complex, built from its definition, at chars 2, 3 and 5:
    on random support families, on every element of the edge ideals
    of K5 and K6, and on `abc,ad,bd,cd`, whose top element collides.
    K7's totals are frozen."""
    instances = [(f, (1 << len(f)) - 1) for f in _support_families(random.Random(27), 200)]
    for I in (_complete_graph_ideal(5), _complete_graph_ideal(6), parse_ideal("abc,ad,bd,cd")):
        L = lcm_lattice(I)
        supports = atom_columns(L.num_atoms, L.edges)
        instances += [(supports, p) for p in L.masks if p]
    ranked = _counting_complexes(monkeypatch)
    fired = _counting_splits(monkeypatch)
    for supports, p in instances:
        atoms = [supports[i] for i in range(p.bit_length()) if p >> i & 1]
        for char in (2, 3, 5):
            want = _crosscut_by_definition(atoms, char)
            assert betti._betti_numbers(supports, p, char, {}) == want, (atoms, char)
    # on the random families the sides often share a degree (1,659
    # splits and 192 complexes)
    assert len(fired) > 1500
    assert len(ranked) > 150
    # the edge ideal of K7 has a top element on 21 atoms, and no
    # interval needs a complex
    ranked.clear()
    for char in (2, 3):
        assert betti_table(_complete_graph_ideal(7), char).totals() == {
            0: 1, 1: 21, 2: 70, 3: 105, 4: 84, 5: 35, 6: 6
        }
    assert ranked == []


def test_a_collision_builds_a_complex_on_its_own_atoms(monkeypatch):
    """A collision below the top builds a complex on the atoms left
    where it happens, not on all of the element's: K7 in the order the
    dump draws at seed 3 ranks at most 10,000 faces per characteristic
    (6,615 when this was written, where a whole-element complex took
    64,153), and K8, whose 28-atom top once hit the chain cap, answers
    in the dump's orders at seeds 3 and 29."""
    workloads = _workloads(monkeypatch)

    def relabeled(n: int, rng):
        return parse_ideal(workloads.graph_ideal_text(n, itertools.combinations(range(n), 2), rng))

    rng = random.Random(3)
    k7 = [relabeled(n, rng) for n in (5, 6, 7)][-1]  # the dump draws K5 and K6 first
    ranked = _counting_complexes(monkeypatch)
    for char in (2, 3):
        ranked.clear()
        assert betti_table(k7, char).totals() == {0: 1} | {i: i * math.comb(7, i + 1) for i in range(1, 7)}
        assert ranked
        assert sum(sum(K.face_counts()) for K in ranked) <= 10_000
    totals = {0: 1} | {i: i * math.comb(8, i + 1) for i in range(1, 8)}
    for seed in (3, 29):
        k8 = relabeled(8, random.Random(seed))
        for char in (2, 3):
            assert betti_table(k8, char).totals() == totals, (seed, char)
            assert lattice_pd(k8.mu, polarized_edges(k8), char) == 7, (seed, char)


def _settled_from_scratch(I, char: int) -> dict[tuple[int, int], int]:
    """I's Betti entries with no memo: every element of its lcm-lattice
    goes through `_settle` on all of its atoms."""
    L = lcm_lattice(I)
    supports = atom_columns(L.num_atoms, L.edges)
    entries = {(0, 0): 1}
    for p in L.masks:
        if p:
            live = [supports[i] for i in range(p.bit_length()) if p >> i & 1]
            target = 0
            for s in live:
                target |= s
            for i, r in betti._settle(live, target, char).items():
                entries[(i, p)] = r
    return entries


def test_the_memo_keeps_every_entry():
    """`betti_table` settles each leftover of the peel's first step once
    per call and reads it back for every element that leaves it; the
    entries are those of settling every element from scratch, at chars
    2, 3 and 5, on random ideals, the edge ideals of K5 and K6, and
    `abc,ad,bd,cd`."""
    rng = random.Random(28)
    ideals = [_squarefree_ideal(rng, 8, rng.randint(4, 9), (2, 4)) for _ in range(60)]
    ideals += [_random_ideal(rng, 3) for _ in range(20)]
    ideals += [_complete_graph_ideal(5), _complete_graph_ideal(6), parse_ideal("abc,ad,bd,cd")]
    for I in ideals:
        for char in (2, 3, 5):
            want = _settled_from_scratch(I, char)
            assert betti_table(I, char).entries == want, (I.to_text(), char)


def test_the_memo_settles_few_leftovers_on_the_benchmark_inputs(monkeypatch):
    """On the benchmark's Betti inputs, a few dozen leftover instances
    stand for hundreds of elements: 1,442, 615 and 485 above the bottom
    (8, 62 and 80 instances when this was written). Each leftover's
    target is the OR of its supports, so the supports alone key it."""
    workloads = _workloads(monkeypatch)
    settled = []
    settle = betti._settle

    depth = 0  # the calls of `_settle` open around this one

    def counting(live, target, char):
        nonlocal depth
        if not depth:
            joined = 0
            for s in live:
                joined |= s
            assert joined == target
            settled.append(target)
        depth += 1
        try:
            return settle(live, target, char)
        finally:
            depth -= 1

    monkeypatch.setattr(betti, "_settle", counting)
    counts = {}
    for q in workloads.betti_gf3(1):
        settled.clear()
        betti_table(parse_ideal(q.argv[-1]), 3)
        counts[q.name] = len(settled)
    assert counts["figure4-core"] <= 8
    assert counts["P12"] <= 62
    assert counts["C11"] <= 80


def _coprime_ideal(rng, n: int):
    """n pairwise coprime generators, each a power of one variable times
    up to two other variables of its own: a Taylor element on n atoms."""
    ring = tuple(f"x{i}" for i in range(3 * n))
    gens = []
    for g in range(n):
        exps = [0] * len(ring)
        for v in rng.sample(range(3 * g, 3 * g + 3), rng.randint(1, 3)):
            exps[v] = rng.randint(1, 3)
        gens.append(Monomial(ring, tuple(exps)))
    return make_ideal(ring, gens)


def test_boolean_intervals_match_settling_each_element(monkeypatch):
    """Every entry of `betti_table`, where each Taylor element's Boolean
    interval is marked in one step, matches settling each element of
    the lcm-lattice one by one, at chars 2 and 3: on the benchmark's
    Betti inputs at seeds 1 to 3, on 240 random ideals and on pairwise
    coprime ideals of 1 to 16 generators, whose totals are binomials."""
    workloads = _workloads(monkeypatch)
    ideals = [parse_ideal(q.argv[-1]) for seed in (1, 2, 3) for q in workloads.betti_gf3(seed)]
    rng = random.Random(31)
    ideals += [_random_ideal(rng, rng.randint(1, 3)) for _ in range(120)]
    ideals += [_squarefree_ideal(rng, 10, rng.randint(3, 9), (1, 4)) for _ in range(120)]
    coprime = [_coprime_ideal(rng, n) for n in range(1, 17)]
    for I in ideals + coprime:
        for char in (2, 3):
            assert betti_table(I, char).entries == _settled_from_scratch(I, char), (I.to_text(), char)
    for n, I in enumerate(coprime, 1):
        assert betti_table(I, 3).totals() == {i: math.comb(n, i) for i in range(n + 1)}


def test_betti_walk_builds_under_half_of_figure4_core():
    """On figure 4's core, with 1,442 elements above the bottom, the
    walk under the Taylor rule builds at most 700: a Taylor element
    builds none of its meets, and marks the subsets waiting below it,
    which are never visited. The walk takes one bit count per meet it
    has not seen, so the masks whose bit count is taken, and the top,
    are what it builds."""
    with open("fixtures/figure4.json") as f:
        reduced, _ = full_reduce(hypergraph_from_json_dict(json.load(f)))
    core = next(c for c in reduced.components() if c.mu > 1)
    edges = _separated_edge_masks(core)
    supports = atom_columns(core.mu, edges)
    counted = set()

    class Mask(int):
        """An int that stays a Mask through AND and complement and
        records each nonzero mask whose bit count is taken."""

        def __and__(self, other):
            return Mask(int(self) & int(other))

        __rand__ = __and__

        def __invert__(self):
            return Mask(~int(self))

        def bit_count(self):
            if self:
                counted.add(int(self))
            return int(self).bit_count()

    visited = []

    def visit(p):
        visited.append(p)
        return 0 if betti._first_peel(supports, p) else lattices.BOOLEAN

    marked = lattices.walk_lattice(core.mu, [Mask(e) for e in edges], visit, "x")
    built = counted | {(1 << core.mu) - 1}
    assert len(set(visited) | marked) == 1442
    assert set(visited) <= built
    assert len(visited) < len(built) <= 700


def test_pairwise_coprime_generators_stop_at_the_element_cap_before_marking():
    """19 pairwise coprime generators have 2^19 - 1 lcms: the top is a
    Taylor element, and its subsets are counted against the cap before
    any is marked, so the walk stops with almost nothing allocated;
    marking 2^18 of them would take tens of MiB."""
    I = parse_ideal(",".join(f"x{i}" for i in range(19)))
    cap = lattices.DEFAULT_ELEMENT_CAP
    tracemalloc.start()
    try:
        with pytest.raises(LatticeError, match=f"^lcm-lattice exceeds the {cap}-element cap$"):
            betti_table(I)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_no_benchmark_betti_input_builds_a_complex_at_any_chain_cap(monkeypatch):
    """The chain cap is judged only where a complex is built. None of
    the benchmark's Betti inputs at seeds 1 to 3 builds one, nor does
    `a,b,c,d,e,f`, whose every element lies in the Boolean interval of
    its 6-atom top, so with the cap at 1 their tables are unchanged."""
    workloads = _workloads(monkeypatch)
    ideals = [parse_ideal(q.argv[-1]) for seed in (1, 2, 3) for q in workloads.betti_gf3(seed)]
    ideals.append(parse_ideal("a,b,c,d,e,f"))
    want = {(I.to_text(), char): betti_table(I, char).entries for I in ideals for char in (2, 3)}
    ranked = _counting_complexes(monkeypatch)
    monkeypatch.setattr(betti, "DEFAULT_CHAIN_CAP", 1)
    for I in ideals:
        for char in (2, 3):
            assert betti_table(I, char).entries == want[I.to_text(), char], (I.to_text(), char)
    assert ranked == []
    assert betti_table(ideals[-1]).totals() == {0: 1, 1: 6, 2: 15, 3: 20, 4: 15, 5: 6, 6: 1}
