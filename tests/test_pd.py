from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import json
import random
import sys

import pytest

from hyperpd import betti
from hyperpd.betti import OracleError, betti_table, lattice_pd
from hyperpd.cli import main
from hyperpd.hypergraphs import (
    Hypergraph,
    classify_shape,
    dual_hypergraph,
    edge_masks,
    hypergraph_from_json_dict,
    ideal_from_hypergraph,
    is_separated,
)
from hyperpd.ideals import ideal_from_json_dict, make_ideal, monomial_from_indices, parse_ideal
from hyperpd.lattices import polarized_edges
from hyperpd.pd import (
    METHOD_ADDITIVITY,
    METHOD_FOREST,
    METHOD_OPEN_CYCLE,
    METHOD_ORACLE,
    METHOD_TWO_STAR,
    PdError,
    _tree_bight,
    pd,
)
from hyperpd.reduction import RULE_JOINT, check_preconditions, full_reduce
from test_reduction import _random_separated

# component of the 43-vertex fixture that survives reduction, and its
# frozen homology-oracle answer
FIG4_BIG_COMPONENT = [1, 2, 3, 4, 5, 6, 10, 11, 12, 13, 26]
FIG4_BIG_TOTALS = {0: 1, 1: 11, 2: 53, 3: 148, 4: 264, 5: 310, 6: 237, 7: 113, 8: 31, 9: 4}

# separated instance rebuilt from one component of the 43-vertex fixture
REPLICA13_EDGES = [
    (26, 7), (26, 8), (26, 9), (26, 27), (27, 33), (34, 33), (27, 37),
    (38, 37), (38, 41), (38, 39), (39, 40), (42, 41),
    (27, 37, 33), (39, 40, 41),
    (7,), (8,), (9,), (27,), (34,), (40,), (42,),
]

# gated cyclic bush: removing joint 1 keeps pd at 7, but removing joint
# 2 after it, across the newly closed pair [2, 3], drops it to 6
CYCLIC_WITNESS_EDGES = [
    (2, 4), (1, 2), (1, 5), (3, 7), (2, 3), (5, 6), (1, 3), (2, 8),
    (1,), (4,), (6,), (7,), (8,),
]


# pd answers one below the oracle on each of these (ROADMAP item 1):
# the CHANGES.md witness, then the benchmark's random ideals 5, 33,
# 49, 71 and 80, with the oracle's pd
JOINT_FAULTS = [
    (Hypergraph([[3, 4, 5, 6], [1, 2], [1, 5], [3, 5, 6], [1, 4], [2, 3], [1, 6], [4], [5], [6]]), 5),
    ("x1*x12, x3*x11, x0*x6, x6*x8, x7*x9*x13, x1*x6, x3*x4*x9, x3*x6, x1*x11*x13, x7*x8", 6),
    ("x6*x9*x13, x9*x10*x12, x3*x6, x4*x8, x2*x8, x4*x5*x6, x7*x8*x10, x11*x12, x4*x7, x0*x3", 7),
    ("x3*x7*x12, x7*x9*x10, x2*x7*x8, x0*x1*x13, x5*x11, x4*x8, x8*x12, x1*x8*x13, x0*x3*x11, x2*x10", 7),
    ("x4*x8, x3*x4*x12, x7*x9*x12, x0*x5*x9, x1*x5*x11, x2*x6, x4*x5*x13, x2*x11, x4*x7*x13, x1*x10", 8),
    ("x0*x2*x6, x2*x13, x11*x12*x13, x4*x9, x0*x3, x9*x12, x4*x7*x12, x4*x5*x8, x1*x2*x10, x1*x8*x11", 8),
]


def _ideal_pd(I, char=2):
    return lattice_pd(I.mu, polarized_edges(I), char)


def _figure4():
    with open("fixtures/figure4.json") as f:
        return hypergraph_from_json_dict(json.load(f))


def _closed_leaf_star(mu):
    return Hypergraph([(1, v) for v in range(2, mu + 1)] + [(v,) for v in range(2, mu + 1)])


def _star_with_higher_edge(mu):
    """K_{1, mu - 1} with centre 1, every leaf but the last closed, and
    the edge [2, 3, mu], which is no union: its sub-edges [2] and [3]
    miss the open leaf mu."""
    return Hypergraph(
        [(1, v) for v in range(2, mu + 1)] + [(v,) for v in range(2, mu)] + [(2, 3, mu)]
    )


def test_two_star_formula():
    # a 2-star on mu vertices that keeps a higher edge is priced mu - 1
    # without the oracle
    for mu in range(4, 9):
        H = _star_with_higher_edge(mu)
        assert classify_shape(H).kind == "two_star"
        assert lattice_pd(mu, edge_masks(H), 2) == mu - 1
        result = pd(H)
        assert (result.pd, result.method) == (mu - 1, METHOD_TWO_STAR)
    # without a higher edge a 2-star is a tree, which the forest DP
    # prices; three vertices make a string
    for mu in range(3, 9):
        result = pd(_closed_leaf_star(mu))
        assert (result.pd, result.method) == (mu - 1, METHOD_FOREST)


def test_closed_isolated_formula():
    # each isolated closed vertex is a tree of one vertex: bight 1
    assert pd(Hypergraph([])).pd == 0
    result = pd(Hypergraph([(v,) for v in range(1, 28)]))
    assert result.pd == 27
    assert [sub.pd for _, sub in result.per_component] == [1] * 27
    assert {sub.method for _, sub in result.per_component} == {METHOD_FOREST}


def test_dispatch_single_closed_vertex():
    result = pd(Hypergraph([(1,)]))
    assert (result.pd, result.method) == (1, METHOD_FOREST)


@pytest.mark.parametrize("H,v", [
    (Hypergraph([(1, 2), (2, 3), (1,), (3,)], vertices=[1, 2, 3, 9]), 9),
    # the generator 1: the unit ideal, which has no hypergraph
    (Hypergraph([], vertices=[1]), 1),
], ids=["string and vertex 9", "lone vertex"])
def test_pd_refuses_a_vertex_in_no_edge(H, v):
    with pytest.raises(PdError, match=f"^vertex {v} lies in no edge$"):
        pd(H)


@pytest.mark.parametrize("edges,a,b", [
    ([(1, 2), (2, 3)], 1, 2),  # an all-open string
    ([(1, 2)], 1, 2),
    ([(1,), (1, 2), (2, 3)], 3, 2),
])
def test_pd_refuses_a_hypergraph_no_ideal_has(edges, a, b):
    H = Hypergraph(edges)
    assert not is_separated(H)
    with pytest.raises(PdError, match=f"every edge through vertex {a} holds vertex {b}$"):
        pd(H)


@pytest.mark.parametrize("H", [
    dual_hypergraph(parse_ideal("ab,bc")),  # priced by formulas alone
    dual_hypergraph(parse_ideal("ab,bc,cd,de,eak")),  # needs the oracle
    Hypergraph([(1, 2)]),  # not separated
], ids=["ab,bc", "closed 5-cycle", "unseparated"])
def test_pd_proves_its_characteristic_on_entry(H):
    with pytest.raises(OracleError, match="^4 is not a prime characteristic$"):
        pd(H, 4)


def test_pd_proves_its_characteristic_once_for_all_its_components():
    betti._check_char.cache_clear()
    # two 5-cycles, each with a closed vertex, so both reach the oracle
    H = dual_hypergraph(parse_ideal("ab,bc,cd,de,eak,fg,gh,hi,ij,jfl"))
    result = pd(H, betti.MAX_FIELD_CHAR)
    assert [sub.method for _, sub in result.per_component] == [METHOD_ORACLE] * 2
    info = betti._check_char.cache_info()
    # pd's own proof divides; each component's oracle call finds it
    assert (info.misses, info.hits) == (1, 2)


def test_dispatch_two_star_with_closed_leaves():
    result = pd(Hypergraph([(1, 2), (1, 3), (1, 4), (2,), (3,), (2, 3, 4)]))
    assert (result.pd, result.method) == (3, METHOD_TWO_STAR)


def test_dispatch_closed_end_string_is_priced_as_a_forest():
    # once the union edge [2, 3, 5] is gone, a string with closed ends
    result = pd(dual_hypergraph(parse_ideal("ab,bcg,cdg,de,efg")))
    assert (result.pd, result.method) == (4, METHOD_FOREST)


def test_dispatch_cycle_with_a_closed_vertex_goes_to_oracle():
    # k closes vertex 5, so the open-cycle formula does not apply
    result = pd(dual_hypergraph(parse_ideal("ab,bc,cd,de,eak")))
    assert (result.pd, result.method) == (3, METHOD_ORACLE)


def test_engine_matches_oracle_on_menagerie():
    cases = [
        dual_hypergraph(parse_ideal("ab,bcg,cdg,de,efg")),
        dual_hypergraph(parse_ideal("bde,bc,cf,dg,eh")),
        Hypergraph(REPLICA13_EDGES),
    ]
    for H in cases:
        engine = pd(H).pd
        oracle = betti_table(ideal_from_hypergraph(H)).pd
        assert engine == oracle


def test_replica13_value():
    assert pd(Hypergraph(REPLICA13_EDGES)).pd == 11


def test_all_closed_string_collapses_to_isolated_vertices():
    H = Hypergraph([(1,), (2,), (3,), (1, 2), (2, 3)])
    result = pd(H)
    assert (result.pd, result.method) == (3, METHOD_ADDITIVITY)
    assert all(sub.method == METHOD_FOREST for _, sub in result.per_component)
    assert betti_table(ideal_from_hypergraph(H)).pd == 3


def test_union_demo_fixture_value():
    with open("fixtures/union_demo.json") as f:
        I = ideal_from_json_dict(json.load(f))
    assert pd(dual_hypergraph(I)).pd == 8


def test_figure4_value_and_breakdown():
    result = pd(_figure4())
    assert result.pd == 36
    assert result.method == METHOD_ADDITIVITY
    assert len(result.per_component) == 28
    # 27 closed vertices and the 11-vertex core, all trees
    assert {sub.method for _, sub in result.per_component} == {METHOD_FOREST}
    big = [(comp, sub) for comp, sub in result.per_component if comp.mu > 1]
    assert [sub.pd for comp, sub in result.per_component if comp.mu == 1] == [1] * 27
    comp, sub = big[0]
    assert sorted(comp.vertices) == FIG4_BIG_COMPONENT
    assert sub.pd == 9


def test_figure4_big_component_betti_totals():
    from hyperpd.reduction import full_reduce

    reduced, _ = full_reduce(_figure4())
    big = [comp for comp in reduced.components() if comp.mu > 1]
    assert len(big) == 1
    totals = betti_table(ideal_from_hypergraph(big[0])).totals()
    assert totals == FIG4_BIG_TOTALS


TWO_STAR_EDGES = [(1, 2), (1, 3), (1, 4), (2,), (3,), (4,)]


def test_result_json_shape():
    result = pd(Hypergraph(TWO_STAR_EDGES + [(10,)]))
    data = result.to_json_dict()
    assert data["pd"] == 4
    assert data["method"] == METHOD_ADDITIVITY
    assert data["components"] == [
        {"vertices": [1, 2, 3, 4], "pd": 3, "method": METHOD_FOREST},
        {"vertices": [10], "pd": 1, "method": METHOD_FOREST},
    ]


def test_each_component_is_classified_once(monkeypatch):
    module = importlib.import_module("hyperpd.pd")
    classified = []

    def counting(H):
        classified.append(sorted(H.vertices))
        return classify_shape(H)

    monkeypatch.setattr(module, "classify_shape", counting)
    higher = _star_with_higher_edge(4).edges
    stars = [tuple(v + shift for v in e) for shift in (0, 4) for e in higher]
    result = pd(Hypergraph(stars + [tuple(v + 8 for v in e) for e in TWO_STAR_EDGES] + [(20,)]))
    assert [sub.method for _, sub in result.per_component] == [
        METHOD_TWO_STAR, METHOD_TWO_STAR, METHOD_FOREST, METHOD_FOREST,
    ]
    # a component without a higher edge is priced before any shape is
    # asked for
    assert classified == [[1, 2, 3, 4], [5, 6, 7, 8]]


def test_additivity_across_components():
    left = pd(Hypergraph(TWO_STAR_EDGES)).pd
    right = pd(Hypergraph([(10,)])).pd
    both = pd(Hypergraph(TWO_STAR_EDGES + [(10,)]))
    assert both.pd == left + right


def test_cyclic_bush_witness_matches_oracle():
    # once the closed-edge pass strips [2, 3], vertex 2 has pair-degree
    # 2, so the joint pass must judge it no joint
    H = Hypergraph(CYCLIC_WITNESS_EDGES)
    assert check_preconditions(H).all_ok
    result = pd(H)
    assert [s.target for s in result.trace.steps if s.rule == RULE_JOINT] == [1]
    assert betti_table(ideal_from_hypergraph(H)).pd == 7
    assert result.pd == 7


def _qualifying_joints(H):
    """Joints carrying a branch of length 2."""
    shape = classify_shape(H)
    return [w for w, paths in shape.branch_data.items() if any(len(p) == 2 for p in paths)]


def _on_cycle(H, v):
    for u in H.pair_neighbors(v):
        rest = H.remove_edges([(u, v)])
        if any({u, v} <= set(c.vertices) for c in rest.components()):
            return True
    return False


def _random_cyclic_bush(rng):
    """A separated, gated, 1-dimensional bush on 6-10 vertices with a
    cycle through a joint that the joint pass may remove."""
    while True:
        n = rng.randint(6, 10)
        pairs = {(rng.randint(1, v - 1), v) for v in range(2, n + 1)}
        for _ in range(rng.randint(1, 2)):
            pairs.add(tuple(sorted(rng.sample(range(1, n + 1), 2))))
        closed = [(v,) for v in range(1, n + 1) if rng.random() < 0.5]
        H = Hypergraph(sorted(pairs) + closed)
        if not is_separated(H) or not check_preconditions(H).all_ok:
            continue
        if any(_on_cycle(H, w) for w in _qualifying_joints(H)):
            return H


def test_engine_matches_oracle_on_random_cyclic_bushes():
    rng = random.Random(1)
    mismatches = []
    for _ in range(100):
        H = _random_cyclic_bush(rng)
        engine = pd(H).pd
        oracle = betti_table(ideal_from_hypergraph(H)).pd
        if engine != oracle:
            mismatches.append((engine, oracle, [list(e) for e in H.edges]))
    assert mismatches == []


def test_package_attribute_pd_is_the_submodule():
    """The package does not re-export the function `pd`, which would
    hide the submodule of the same name."""
    import hyperpd

    module = importlib.import_module("hyperpd.pd")
    assert hyperpd.pd is module
    assert hyperpd.pd.pd is pd
    assert hyperpd.pd.full_reduce.__name__ == "full_reduce"


def _workloads(monkeypatch):
    """The benchmark's input generators, loaded from their file."""
    spec = importlib.util.spec_from_file_location("workloads", "perfbench/workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the file runs
    monkeypatch.setitem(sys.modules, "workloads", module)
    spec.loader.exec_module(module)
    return module


def test_component_walk_matches_the_ideal_oracle(monkeypatch):
    """Each component priced by the oracle, the forest DP or the
    open-cycle formula gets the pd of its ideal realization, on the
    frozen bushes and the benchmark's random ideals."""
    workloads = _workloads(monkeypatch)
    hypergraphs = [Hypergraph(edges) for edges in workloads.load_inputs()["bushes"]]
    gen = random.Random(workloads.RANDOM_IDEALS_SEED)
    hypergraphs += [
        dual_hypergraph(parse_ideal(workloads.random_ideal_text(gen))) for _ in range(100)
    ]
    priced = 0
    for H in hypergraphs:
        for char in (2, 3):
            for comp, sub in pd(H, field_char=char).per_component:
                if sub.method not in (METHOD_ORACLE, METHOD_FOREST, METHOD_OPEN_CYCLE):
                    continue
                ideal = ideal_from_hypergraph(comp)
                assert sub.pd == _ideal_pd(ideal, char) == betti_table(ideal, char).pd
                priced += 1
    assert priced > 200


def test_pd_builds_no_lattice_and_no_ideal(monkeypatch):
    def refused(*args):
        raise AssertionError("called")

    for module in ("betti", "cli", "lattices"):
        monkeypatch.setattr(importlib.import_module(f"hyperpd.{module}"), "lcm_lattice", refused)
    monkeypatch.setattr(
        importlib.import_module("hyperpd.hypergraphs"), "ideal_from_hypergraph", refused
    )
    result = pd(dual_hypergraph(parse_ideal("ab,bc,cd,de,eak")))
    assert (result.pd, result.method) == (3, METHOD_ORACLE)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["pd", "--in", "ab,bc,cd,de,ef,fg", "--verify"]) == 0
    assert json.loads(out.getvalue())["oracle_pd"] == 4


def test_edge_lattice_matches_the_ideal_routes():
    """`pd --verify` prices the lattice of the hypergraph's own edges.
    On random square-free ideals it must give the pd of the ideal's
    polarized edges, and on hypergraphs the pd of the ideal that
    `ideal_from_hypergraph` realizes."""
    rng = random.Random(1717)
    hypergraphs = []
    below_mu = 0  # the Taylor resolution is not minimal
    for _ in range(300):
        ring = tuple(f"x{i}" for i in range(rng.randint(4, 8)))
        gens = [
            monomial_from_indices(ring, rng.sample(range(len(ring)), rng.randint(2, 3)))
            for _ in range(rng.randint(2, 6))
        ]
        I = make_ideal(ring, gens)
        H = dual_hypergraph(I)
        hypergraphs.append(H)
        for char in (2, 3):
            want = _ideal_pd(I, char)
            assert lattice_pd(H.mu, edge_masks(H), char) == want, I.to_text()
        below_mu += want < I.mu
    assert below_mu >= 100
    hypergraphs += [_random_separated(rng) for _ in range(100)]
    for H in hypergraphs:
        ideal = ideal_from_hypergraph(H)
        for char in (2, 3):
            assert lattice_pd(H.mu, edge_masks(H), char) == _ideal_pd(ideal, char), H.edges


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 1: joint removal next to a higher edge",
)
@pytest.mark.parametrize(
    "source, oracle", JOINT_FAULTS,
    ids=["witness", "ideal5", "ideal33", "ideal49", "ideal71", "ideal80"],
)
def test_pd_matches_the_oracle_next_to_a_higher_edge(source, oracle):
    if isinstance(source, Hypergraph):
        H, ideal = source, ideal_from_hypergraph(source)
    else:
        ideal = parse_ideal(source)
        H = dual_hypergraph(ideal)
    assert _ideal_pd(ideal) == oracle
    assert pd(H).pd == oracle


def _random_separated_with_joints(rng):
    """A separated hypergraph on 4-12 vertices: a tree of pairs in which
    each vertex hangs off one of the three before it, random singletons
    and up to two 3-vertex edges; the joint pass often fires."""
    while True:
        n = rng.randint(4, 12)
        edges = [(rng.randint(max(1, v - 3), v - 1), v) for v in range(2, n + 1)]
        edges += [(v,) for v in range(1, n + 1) if rng.random() < 0.4]
        edges += [rng.sample(range(1, n + 1), 3) for _ in range(rng.randint(0, 2))]
        H = Hypergraph(edges)
        if is_separated(H):
            return H


def test_full_reduce_keeps_every_component_separated():
    """The oracle takes each component's edges as they are, so the
    passes must keep separation: a removed union edge leaves a sub-edge
    through each of its vertices, a closed edge's vertices keep their
    singletons, and removing a vertex shrinks every intersection."""
    rng = random.Random(11)
    joint_steps = 0
    for _ in range(1000):
        H = _random_separated_with_joints(rng)
        reduced, trace = full_reduce(H)
        joint_steps += sum(s.rule == RULE_JOINT for s in trace.steps)
        for comp in reduced.components():
            assert is_separated(comp), ([list(e) for e in H.edges], comp)
    assert joint_steps >= 100


def _random_tree(rng, mu):
    """Pair edges of a random tree on the vertices 1..mu."""
    return [(rng.randint(1, v - 1), v) for v in range(2, mu + 1)]


def _with_closed(pairs, mu, closed):
    """The pairs plus a singleton on each vertex whose bit is set."""
    return Hypergraph(pairs + [(v,) for v in range(1, mu + 1) if closed >> (v - 1) & 1])


def test_forest_bight_matches_the_oracle_on_every_closed_set():
    """A separated tree, every leaf closed, has pd = bight; the DP is
    checked against the oracle at chars 2 and 3 on every closed set of
    8 seeded shapes per mu up to 9."""
    rng = random.Random(36)
    checked = 0
    for mu in range(2, 10):
        for _ in range(8):
            pairs = _random_tree(rng, mu)
            for closed in range(1 << mu):
                H = _with_closed(pairs, mu, closed)
                if not is_separated(H):
                    continue
                for char in (2, 3):
                    assert _tree_bight(H) == lattice_pd(mu, edge_masks(H), char), H
                checked += 1
    assert checked > 600


def test_forest_bight_matches_the_oracle_on_random_trees():
    rng = random.Random(14)
    for _ in range(100):
        mu = rng.randint(10, 14)
        pairs = _random_tree(rng, mu)
        tree = Hypergraph(pairs)
        closed = [(v,) for v in tree.vertices if tree.pair_degree(v) == 1 or rng.random() < 0.4]
        H = Hypergraph(pairs + closed)
        for char in (2, 3):
            oracle = lattice_pd(mu, edge_masks(H), char)
            assert _tree_bight(H) == pd(H, char).pd == oracle, H


def _two_stars():
    """Every 2-star of 3 to 5 branches of lengths 1 and 2 with a closed
    set that keeps it separated and joins no two closed vertices, the
    2-stars that `full_reduce` can leave."""
    for k in (3, 4, 5):
        for twos in range(k + 1):
            pairs, v = [], 1
            for length in [1] * (k - twos) + [2] * twos:
                pairs.append((1, v + 1))
                if length == 2:
                    pairs.append((v + 1, v + 2))
                v += length
            for closed in range(1 << v):
                H = _with_closed(pairs, v, closed)
                if is_separated(H) and not any(all(map(H.is_closed, e)) for e in pairs):
                    yield H


def test_forest_bight_agrees_with_the_two_star_formula():
    """Each 2-star with no higher edge has pd mu - 1 = bight, the price
    that `pd` gives a 2-star with one: those built by `_two_stars`, and
    those that reducing the star corpus leaves."""
    star_corpus = importlib.import_module("test_star_corpus").star_corpus
    stars = list(_two_stars())
    for H in star_corpus():
        reduced, _ = full_reduce(H)
        stars += [
            comp for comp in reduced.components()
            if classify_shape(comp).kind == "two_star" and not comp.higher_edges()
        ]
    assert len(stars) >= 20
    for star in stars:
        assert classify_shape(star).kind == "two_star"
        assert _tree_bight(star) == star.mu - 1, star


def test_only_a_component_with_a_higher_edge_is_classified(monkeypatch):
    """`pd` asks a component's shape only while a higher edge remains,
    so the 2-star formula prices only 2-stars with one; without one a
    2-star is a tree, which the forest DP prices. Checked on the star
    corpus, the benchmark's bushes, figure 4, and P_n and C_n up to 30."""
    module = importlib.import_module("hyperpd.pd")

    def guarded(H):
        assert H.higher_edges(), H
        return classify_shape(H)

    monkeypatch.setattr(module, "classify_shape", guarded)
    workloads = _workloads(monkeypatch)
    hypergraphs = importlib.import_module("test_star_corpus").star_corpus()
    hypergraphs += [Hypergraph(edges) for edges in workloads.load_inputs()["bushes"]]
    hypergraphs.append(_figure4())
    for n in range(3, 31):
        for edges in (workloads.path_edges(n), workloads.cycle_edges(n)):
            hypergraphs.append(dual_hypergraph(parse_ideal(",".join(f"x{a}*x{b}" for a, b in edges))))
    two_stars = 0
    for H in hypergraphs:
        for comp, sub in pd(H).per_component:
            if sub.method == METHOD_TWO_STAR:
                assert comp.higher_edges(), comp
                two_stars += 1
    assert two_stars >= 100


def test_open_cycle_formula_matches_the_oracle():
    for mu in range(3, 17):
        H = Hypergraph([(v, v % mu + 1) for v in range(1, mu + 1)])
        result = pd(H)
        assert (result.pd, result.method) == (lattice_pd(mu, edge_masks(H), 2), METHOD_OPEN_CYCLE)


def test_cycles_with_a_closed_vertex_match_the_oracle():
    """Each closed set of a cycle on up to 10 vertices, priced through
    the passes; a cycle that keeps a closed vertex goes to the oracle,
    and on some of them the open-cycle formula would be wrong."""
    unlike_open = 0
    for mu in range(3, 11):
        for closed in range(1, 1 << mu):
            H = _with_closed([(v, v % mu + 1) for v in range(1, mu + 1)], mu, closed)
            result = pd(H)
            assert result.pd == lattice_pd(mu, edge_masks(H), 2), H
            if result.method == METHOD_ORACLE:
                unlike_open += result.pd != (2 * mu + 1) // 3
    assert unlike_open > 10


@pytest.mark.parametrize("n", [*range(3, 31), 59, 60, 61, 119, 120, 121, 239, 240])
def test_pd_on_paths_and_cycles_matches_their_closed_forms(monkeypatch, n):
    workloads = _workloads(monkeypatch)
    for edges, want in (
        (workloads.path_edges(n), workloads.path_pd(n)),
        (workloads.cycle_edges(n), workloads.cycle_pd(n)),
    ):
        text = ",".join(f"x{a}*x{b}" for a, b in edges)
        assert pd(dual_hypergraph(parse_ideal(text))).pd == want


@pytest.mark.parametrize("name,n", [("P", 120), ("C", 120), ("P", 500)])
def test_no_string_cycle_or_tree_reaches_the_oracle(monkeypatch, name, n):
    workloads = _workloads(monkeypatch)
    edges = workloads.path_edges(n) if name == "P" else workloads.cycle_edges(n)
    want = workloads.path_pd(n) if name == "P" else workloads.cycle_pd(n)

    def refused(*args, **kwargs):
        raise AssertionError("the oracle was called")

    monkeypatch.setattr(importlib.import_module("hyperpd.pd"), "lattice_pd", refused)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["pd", "--in", ",".join(f"x{a}*x{b}" for a, b in edges)]) == 0
    assert json.loads(out.getvalue())["pd"] == want
