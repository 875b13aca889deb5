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
    METHOD_CLOSED_ISOLATED,
    METHOD_ORACLE,
    METHOD_TWO_STAR,
    PdError,
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


def test_two_star_formula():
    # a 2-star on mu vertices is priced mu - 1 without the oracle
    for mu in range(4, 9):
        result = pd(_closed_leaf_star(mu))
        assert (result.pd, result.method) == (mu - 1, METHOD_TWO_STAR)
    # three vertices make a string, not a 2-star: the formula stays out
    string = _closed_leaf_star(3)
    assert classify_shape(string).kind == "string"
    assert pd(string).method != METHOD_TWO_STAR


def test_closed_isolated_formula():
    # each isolated closed vertex contributes exactly 1
    assert pd(Hypergraph([])).pd == 0
    result = pd(Hypergraph([(v,) for v in range(1, 28)]))
    assert result.pd == 27
    assert [sub.pd for _, sub in result.per_component] == [1] * 27
    assert {sub.method for _, sub in result.per_component} == {METHOD_CLOSED_ISOLATED}


def test_dispatch_single_closed_vertex():
    result = pd(Hypergraph([(1,)]))
    assert (result.pd, result.method) == (1, METHOD_CLOSED_ISOLATED)


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
    dual_hypergraph(parse_ideal("ab,bc,cd,de,ea")),  # needs the oracle
    Hypergraph([(1, 2)]),  # not separated
], ids=["ab,bc", "5-cycle", "unseparated"])
def test_pd_proves_its_characteristic_on_entry(H):
    with pytest.raises(OracleError, match="^4 is not a prime characteristic$"):
        pd(H, 4)


def test_pd_proves_its_characteristic_once_for_all_its_components():
    betti._check_char.cache_clear()
    H = dual_hypergraph(parse_ideal("ab,bc,cd,de,ea,fg,gh,hi,ij,jf"))
    result = pd(H, betti.MAX_FIELD_CHAR)
    assert [sub.method for _, sub in result.per_component] == [METHOD_ORACLE] * 2
    info = betti._check_char.cache_info()
    # pd's own proof divides; each component's oracle call finds it
    assert (info.misses, info.hits) == (1, 2)


def test_dispatch_two_star_with_closed_leaves():
    result = pd(Hypergraph([(1, 2), (1, 3), (1, 4), (2,), (3,), (4,)]))
    assert (result.pd, result.method) == (3, METHOD_TWO_STAR)


def test_dispatch_closed_end_string_goes_to_oracle():
    # ends are closed, so the open-string formula does not apply
    result = pd(dual_hypergraph(parse_ideal("ab,bcg,cdg,de,efg")))
    assert (result.pd, result.method) == (4, METHOD_ORACLE)


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
    assert all(sub.method == METHOD_CLOSED_ISOLATED for _, sub in result.per_component)
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
    methods = sorted(sub.method for _, sub in result.per_component)
    assert methods.count(METHOD_CLOSED_ISOLATED) == 27
    assert methods.count(METHOD_ORACLE) == 1
    big = [
        (comp, sub) for comp, sub in result.per_component
        if sub.method == METHOD_ORACLE
    ]
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
        {"vertices": [1, 2, 3, 4], "pd": 3, "method": METHOD_TWO_STAR},
        {"vertices": [10], "pd": 1, "method": METHOD_CLOSED_ISOLATED},
    ]


def test_each_component_is_classified_once(monkeypatch):
    module = importlib.import_module("hyperpd.pd")
    classified = []

    def counting(H):
        classified.append(sorted(H.vertices))
        return classify_shape(H)

    monkeypatch.setattr(module, "classify_shape", counting)
    second_star = [tuple(v + 4 for v in e) for e in TWO_STAR_EDGES]
    result = pd(Hypergraph(TWO_STAR_EDGES + second_star + [(10,)]))
    assert [sub.method for _, sub in result.per_component] == [
        METHOD_TWO_STAR, METHOD_TWO_STAR, METHOD_CLOSED_ISOLATED,
    ]
    # the closed singleton is priced before any shape is asked for
    assert classified == [
        sorted(comp.vertices)
        for comp, sub in result.per_component
        if sub.method != METHOD_CLOSED_ISOLATED
    ]


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
    """Each component priced by the oracle gets the pd of its ideal
    realization, on the frozen bushes and the benchmark's random ideals."""
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
                if sub.method != METHOD_ORACLE:
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
    result = pd(dual_hypergraph(parse_ideal("ab,bcg,cdg,de,efg")))
    assert (result.pd, result.method) == (4, METHOD_ORACLE)
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
