from __future__ import annotations

import json
import random

import pytest

from hyperpd.hypergraphs import (
    Hypergraph,
    HypergraphError,
    classify_shape,
    dual_hypergraph,
    hypergraph_from_json_dict,
    ideal_from_hypergraph,
    is_joint,
    is_separated,
    union_edge_elements,
    unseparated_pair,
)
from hyperpd.ideals import Monomial, make_ideal, parse_ideal

FIVE_GEN = "ab,bcg,cdg,de,efg"
FIVE_GEN_EDGES = ((1,), (1, 2), (2, 3), (2, 3, 5), (3, 4), (4, 5), (5,))


def test_dual_of_five_generator_ideal():
    H = dual_hypergraph(parse_ideal(FIVE_GEN))
    assert H.mu == 5
    assert H.edges == FIVE_GEN_EDGES
    assert H.label_of((2, 3, 5)) == ("g",)
    assert H.label_of((1, 2)) == ("b",)


def test_dual_merges_duplicate_variable_edges():
    # b and d cut out the same generator set, one edge with both labels
    H = dual_hypergraph(parse_ideal("abd,bcd"))
    assert H.edges == ((1,), (1, 2), (2,))
    assert H.label_of((1, 2)) == ("b", "d")


def test_dual_matches_the_generators_each_variable_divides():
    # variables drawn as copies of others, so edges merge and carry
    # several names; generators minimalized first, as parsing does
    rng = random.Random(11)
    merged = 0
    for _ in range(300):
        ring = tuple(f"x{i}" for i in range(rng.randint(1, 8)))
        columns = []
        for _ in ring:
            if columns and rng.random() < 0.3:
                columns.append(rng.choice(columns))
            else:
                columns.append([rng.random() < 0.4 for _ in range(6)])
        gens = [Monomial(ring, tuple(int(c[g]) for c in columns)) for g in range(6)]
        ideal = make_ideal(ring, [m for m in gens if not m.is_one()] or gens[:1])
        if ideal.is_zero() or ideal.is_unit():
            continue
        members = {
            name: tuple(j for j, m in enumerate(ideal.generators, start=1) if m.exps[i])
            for i, name in enumerate(ring)
        }
        edges = tuple(dict.fromkeys(t for t in members.values() if t))
        labels = {e: tuple(sorted(n for n, t in members.items() if t == e)) for e in edges}
        H = dual_hypergraph(ideal)
        assert H.vertices == tuple(range(1, ideal.mu + 1))
        assert (H.edges, H.labels) == (edges, labels)
        merged += any(len(ns) > 1 for ns in labels.values())
    assert merged >= 50


def test_vertices_always_sorted():
    H = Hypergraph([(3, 1), (2, 3)])
    assert H.vertices == (1, 2, 3)
    assert H.edges == ((1, 3), (2, 3))


def test_open_and_closed():
    H = Hypergraph([(1, 2), (2,)])
    assert H.is_closed(2)
    assert not H.is_closed(1)


def test_degree_counts_all_edges_pair_degree_only_pairs():
    H = dual_hypergraph(parse_ideal(FIVE_GEN))
    assert H.pair_degree(2) == 2  # (1,2), (2,3); not (2,3,5)
    assert H.pair_neighbors(3) == (2, 4)
    assert H.higher_edges() == ((2, 3, 5),)


def _pair_scan(H, v):
    """(pair degree, pair neighbors) of v by a scan of every edge."""
    pairs = [e for e in H.edges if len(e) == 2 and v in e]
    return len(pairs), tuple(sorted(u for e in pairs for u in e if u != v))


def test_pair_adjacency_matches_an_edge_scan():
    # on random hypergraphs and on what their surgeries and components
    # build, for every vertex and for ids that are not vertices
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(2, 9)
        sizes = [min(n, rng.choice((1, 2, 2, 2, 3))) for _ in range(rng.randint(1, 2 * n))]
        edges = [rng.sample(range(1, n + 1), k) for k in sizes]
        H = Hypergraph(edges, vertices=range(1, n + 1))
        built = [
            H,
            H.remove_edges(rng.sample(H.edges, rng.randint(0, len(H.edges)))),
            H.remove_vertices(rng.sample(H.vertices, rng.randint(0, n - 1))),
            *H.components(),
        ]
        for G in built:
            for v in (*G.vertices, 0, n + 1):
                assert (G.pair_degree(v), G.pair_neighbors(v)) == _pair_scan(G, v)


def test_union_edges_commute_with_relabelling():
    # vertex ids of any sign and size, in any order: the test reads
    # vertex positions, never the ids themselves
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(3, 8)
        vertices = range(1, n + 1)
        edges = [rng.sample(vertices, rng.randint(1, 2)) for _ in range(rng.randint(1, 2 * n))]
        edges += [rng.sample(vertices, rng.randint(3, n)) for _ in range(rng.randint(1, 3))]
        # unions of two drawn edges, so that some higher edges are unions
        edges += [{*rng.choice(edges), *rng.choice(edges)} for _ in range(rng.randint(0, 3))]
        H = Hypergraph(edges, vertices=vertices)
        ids = dict(zip(H.vertices, rng.sample(range(-10**9, 10**9 + 1), n)))
        G = Hypergraph([[ids[v] for v in e] for e in H.edges], vertices=ids.values())
        renamed = [tuple(sorted(ids[v] for v in e)) for e in union_edge_elements(H)]
        assert union_edge_elements(G) == renamed


def test_remove_edge_is_pure():
    H = Hypergraph([(1, 2), (2, 3)])
    H2 = H.remove_edges([(1, 2)])
    assert (1, 2) in H.edges
    assert (1, 2) not in H2.edges
    assert H2.vertices == (1, 2, 3)
    with pytest.raises(HypergraphError, match=r"^\[1, 3\] is not an edge$"):
        H.remove_edges([(1, 3)])


def test_remove_vertex_shrinks_edges():
    H = Hypergraph([(1, 2), (2, 3), (1,)])
    H2 = H.remove_vertices([2])
    assert H2.edges == ((1,), (3,))
    assert H2.vertices == (1, 3)
    # original untouched
    assert (1, 2) in H.edges


def test_remove_vertex_merges_shrink_remnants():
    H = Hypergraph([(1, 2), (1, 3), (2, 3)])
    H2 = H.remove_vertices([3])
    assert H2.edges == ((1, 2), (1,), (2,))
    H3 = H2.remove_vertices([2])
    assert H3.edges == ((1,),)


def test_remove_vertex_shrinks_higher_edges():
    H = Hypergraph([(1, 2, 3), (3, 4)])
    H2 = H.remove_vertices([1])
    assert H2.edges == ((2, 3), (3, 4))


def test_remove_vertex_closes_pair_neighbors():
    H = Hypergraph([(1, 2), (2, 3)])
    H2 = H.remove_vertices([2])
    assert H2.is_closed(1)
    assert H2.is_closed(3)


def test_remove_vertex_merges_labels():
    H = dual_hypergraph(parse_ideal("ab,bc,ac"))
    assert H.edges == ((1, 3), (1, 2), (2, 3))
    H2 = H.remove_vertices([3])
    assert H2.edges == ((1,), (1, 2), (2,))
    assert H2.label_of((1,)) == ("a",)
    assert H2.label_of((2,)) == ("c",)


def test_remove_edges_refuses_the_first_absent_edge():
    H = Hypergraph([(1, 2), (2, 3)])
    with pytest.raises(HypergraphError, match=r"^\[1, 3\] is not an edge$"):
        H.remove_edges([(2, 1), [3, 1], (1, 2, 3)])
    with pytest.raises(HypergraphError, match="^empty edge$"):
        H.remove_edges([()])
    assert H.remove_edges([[2, 1]]).edges == ((2, 3),)


def test_remove_vertices_refuses_the_first_absent_vertex():
    H = Hypergraph([(1, 2), (2, 3)])
    with pytest.raises(HypergraphError, match="^7 is not a vertex$"):
        H.remove_vertices([2, 7, 0])
    assert H.remove_vertices([]) == H


def _same(A, B):
    return (A.vertices, A.edges, A.labels) == (B.vertices, B.edges, B.labels)


def test_set_surgeries_match_one_at_a_time():
    """Removing a set of vertices or edges in one surgery gives the same
    vertices, edge order and labels as removing them one by one, in any
    order."""
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(2, 7)
        edges = [rng.sample(range(1, n + 1), rng.randint(1, min(4, n))) for _ in range(n + 3)]
        names = iter("abcdefghijklmnopqrstuvwxyz")
        H = Hypergraph(edges, vertices=range(1, n + 1),
                       labels=[(e, {next(names)}) for e in edges[: n]])
        gone = rng.sample(H.vertices, rng.randint(0, n))
        step = H
        for v in gone:
            step = step.remove_vertices([v])
        assert _same(H.remove_vertices(set(gone)), step)
        cut = rng.sample(H.edges, rng.randint(0, len(H.edges)))
        step = H
        for e in cut:
            step = step.remove_edges([e])
        assert _same(H.remove_edges(set(cut)), step)


def test_equality_ignores_labels():
    A = Hypergraph([(1, 2)], labels=[((1, 2), {"x"})])
    B = Hypergraph([(1, 2)])
    assert A == B
    assert hash(A) == hash(B)
    assert A != Hypergraph([(1, 2)], vertices=[1, 2, 3])


def test_components_split_and_cover_isolated():
    H = Hypergraph([(1, 2), (4, 5)], vertices=[1, 2, 3, 4, 5])
    comps = H.components()
    assert [c.vertices for c in comps] == [(1, 2), (3,), (4, 5)]


def test_components_keep_vertex_and_edge_order():
    edges = [(7, 8), (5, 6), (2, 7), (1, 3), (6,), (3, 4)]
    labels = {(7, 8): ("b",), (6,): ("c",), (1, 3): ("a",)}
    H = Hypergraph(edges, vertices=range(1, 10), labels=labels.items())
    comps = H.components()
    assert [c.vertices for c in comps] == [(1, 3, 4), (2, 7, 8), (5, 6), (9,)]
    assert [c.edges for c in comps] == [((1, 3), (3, 4)), ((7, 8), (2, 7)), ((5, 6), (6,)), ()]
    assert [c.labels for c in comps] == [{(1, 3): ("a",)}, {(7, 8): ("b",)}, {(6,): ("c",)}, {}]


def test_connected_hypergraph_is_its_own_component():
    H = Hypergraph([(1, 2), (2, 3, 4), (4,)], labels=[((1, 2), ("a",))])
    assert len(H.components()) == 1
    assert H.components()[0] is H


def test_separated():
    assert is_separated(dual_hypergraph(parse_ideal(FIVE_GEN)))
    # leaf 2 is inside every edge that touches it minus nothing: m_2 | m_1
    assert not is_separated(Hypergraph([(1, 2)]))
    assert not is_separated(Hypergraph([(1, 2), (2, 3)]))
    assert is_separated(Hypergraph([(1, 2), (2, 3), (1,), (3,)]))


def _separated_by_pairs(H):
    """The definition: every ordered vertex pair is split by an edge
    holding the first but not the second."""
    return all(
        any(a in e and b not in e for e in H.edges)
        for a in H.vertices for b in H.vertices if a != b
    )


def test_one_pass_separation_matches_the_pair_definition():
    rng = random.Random(5)
    cases = [Hypergraph([]), Hypergraph([], vertices=[1]), Hypergraph([], vertices=[1, 2]),
             Hypergraph([(1,)], vertices=[1, 2])]
    for _ in range(400):
        n = rng.randint(1, 6)
        edges = [rng.sample(range(1, n + 1), rng.randint(1, min(n, 3)))
                 for _ in range(rng.randint(0, 7))]
        cases.append(Hypergraph(edges, vertices=range(1, n + 1)))
    verdicts = set()
    for H in cases:
        want = _separated_by_pairs(H)
        verdicts.add(want)
        assert is_separated(H) == want, H
        pair = unseparated_pair(H)
        if pair is not None:
            a, b = pair
            assert a != b and all(b in e for e in H.edges if a in e)
    assert verdicts == {True, False}
    assert is_separated(Hypergraph([], vertices=[1]))


def test_ideal_hypergraph_round_trip():
    H = dual_hypergraph(parse_ideal(FIVE_GEN))
    I = ideal_from_hypergraph(H)
    assert dual_hypergraph(I) == H


def test_ideal_from_hypergraph_builds_a_ring_of_70_variables():
    # a 70-cycle: one variable per edge, more than a 64-bit word holds
    H = Hypergraph([(v, v % 70 + 1) for v in range(1, 71)])
    I = ideal_from_hypergraph(H)
    assert (len(I.ring), I.mu) == (70, 70)
    assert dual_hypergraph(I) == H


def test_ideal_from_hypergraph_needs_separated():
    with pytest.raises(HypergraphError):
        ideal_from_hypergraph(Hypergraph([(1, 2)]))


def test_classify_string_cycle_two_star_bush():
    assert classify_shape(Hypergraph([(1, 2), (2, 3)])).kind == "string"
    assert classify_shape(Hypergraph([(1, 2), (2, 3), (3, 1)])).kind == "cycle"
    star = classify_shape(Hypergraph([(1, 2), (1, 3), (1, 4), (2,), (3,), (4,)]))
    assert star.kind == "two_star"
    assert list(star.branch_data) == [1]
    # a length-2 branch keeps it a 2-star
    assert classify_shape(Hypergraph([(1, 2), (1, 3), (1, 4), (4, 5), (2,)])).kind == "two_star"
    two_joints = Hypergraph(
        [(1, 2), (1, 3), (1, 4), (4, 5), (5, 6), (5, 7), (2,), (3,), (6,), (7,)]
    )
    assert classify_shape(two_joints).kind == "bush"
    # higher edges over a joint-free skeleton: vacuously a bush
    assert classify_shape(Hypergraph([(1, 2), (2, 3), (1, 2, 3)])).kind == "bush"


def test_classify_rejects_long_branches():
    H = Hypergraph([(1, 2), (1, 3), (1, 4), (4, 5), (5, 6)])
    report = classify_shape(H)
    assert report.kind == "other"
    assert 3 in report.branch_lengths()


def test_branch_data_lists_paths():
    H = Hypergraph([(1, 2), (2, 3), (1, 4), (1, 5), (3,), (4,), (5,)])
    report = classify_shape(H)
    assert report.branch_data[1] == [(2, 3), (4,), (5,)]
    assert sorted(report.branch_lengths()) == [1, 1, 2]


def _two_step_joint(H, i):
    """The reference definition: pair degree >= 3 and a neighbor of pair
    degree 2 whose other neighbor is a leaf."""
    if H.pair_degree(i) < 3:
        return False
    for j in H.pair_neighbors(i):
        if H.pair_degree(j) != 2:
            continue
        k = next(n for n in H.pair_neighbors(j) if n != i)
        if H.pair_degree(k) == 1:
            return True
    return False


def _random_skeleton(rng):
    """Hubs carrying paths of length 1 to 3, connectors between hubs,
    a cycle, singletons and higher edges, each drawn or not."""
    edges, fresh = [], iter(range(1, 100))
    hubs = [next(fresh) for _ in range(rng.randint(1, 3))]
    for hub in hubs:
        for _ in range(rng.randint(0, 4)):
            prev = hub
            for _ in range(rng.randint(1, 3)):
                edges.append((prev, prev := next(fresh)))
    for a, b in zip(hubs, hubs[1:]):
        if rng.random() < 0.6:  # a connector of 1 to 3 pair edges
            prev = a
            for _ in range(rng.randint(0, 2)):
                edges.append((prev, prev := next(fresh)))
            edges.append((prev, b))
    if rng.random() < 0.4:  # a cycle through the first hub
        cycle = [hubs[0]] + [next(fresh) for _ in range(rng.randint(2, 4))]
        edges += list(zip(cycle, cycle[1:] + cycle[:1]))
    vertices = sorted({v for e in edges for v in e} | set(hubs))
    edges += [(v,) for v in vertices if rng.random() < 0.3]
    for _ in range(rng.randint(0, 2)):
        edges.append(tuple(rng.sample(vertices, min(len(vertices), rng.randint(3, 4)))))
    return Hypergraph(edges, vertices=vertices)


def test_joint_predicate_matches_the_two_step_definition():
    rng = random.Random(23)
    verdicts = {True: 0, False: 0}
    for _ in range(400):
        H = _random_skeleton(rng)
        for v in H.vertices:
            assert is_joint(H, v) == _two_step_joint(H, v), (H, v)
            if H.pair_degree(v) >= 3:
                verdicts[is_joint(H, v)] += 1
    assert verdicts[True] > 100 and verdicts[False] > 100


def test_json_round_trip_keeps_labels():
    H = dual_hypergraph(parse_ideal(FIVE_GEN))
    data = json.loads(json.dumps(H.to_json_dict()))
    again = hypergraph_from_json_dict(data)
    assert again == H
    assert again.label_of((2, 3, 5)) == ("g",)


def test_json_ignores_unknown_keys():
    data = {"mu": 2, "edges": [[1, 2]], "_note": "anything"}
    H = hypergraph_from_json_dict(data)
    assert H.vertices == (1, 2)


def test_json_requires_mu_and_edges():
    with pytest.raises(HypergraphError):
        hypergraph_from_json_dict({"edges": [[1]]})
    with pytest.raises(HypergraphError):
        hypergraph_from_json_dict({"mu": 1})


def test_dot_marks_closed_vertices_and_higher_edges():
    H = dual_hypergraph(parse_ideal(FIVE_GEN))
    dot = H.to_dot()
    assert "style=filled" in dot
    assert "shape=box" in dot
    assert dot.endswith("\n")
