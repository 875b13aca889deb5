from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import json
import random
import sys

import pytest

from hyperpd.betti import betti_table, oracle_pd
from hyperpd.cli import main
from hyperpd.hypergraphs import (
    Hypergraph,
    classify_shape,
    dual_hypergraph,
    hypergraph_from_json_dict,
    ideal_from_hypergraph,
    is_separated,
)
from hyperpd.ideals import ideal_from_json_dict, parse_ideal
from hyperpd.pd import (
    METHOD_ADDITIVITY,
    METHOD_CLOSED_ISOLATED,
    METHOD_ORACLE,
    METHOD_TWO_STAR,
    PdError,
    pd,
    pd_closed_isolated,
    pd_monotonicity_check,
    pd_two_star,
)
from hyperpd.reduction import check_preconditions, full_reduce

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


def _figure4():
    with open("fixtures/figure4.json") as f:
        return hypergraph_from_json_dict(json.load(f))


def test_two_star_formula():
    H = Hypergraph([(1, 2), (1, 3), (1, 4), (2,), (3,), (4,)])
    assert pd_two_star(H, classify_shape(H)) == 3
    string = Hypergraph([(1, 2), (2, 3)])
    with pytest.raises(PdError, match="not a 2-star"):
        pd_two_star(string, classify_shape(string))


def test_closed_isolated_formula():
    assert pd_closed_isolated(0) == 0
    assert pd_closed_isolated(27) == 27
    with pytest.raises(PdError):
        pd_closed_isolated(-1)


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
    assert classified == [sorted(comp.vertices) for comp, _ in result.per_component]


def test_additivity_across_components():
    left = pd(Hypergraph(TWO_STAR_EDGES)).pd
    right = pd(Hypergraph([(10,)])).pd
    both = pd(Hypergraph(TWO_STAR_EDGES + [(10,)]))
    assert both.pd == left + right


def test_monotonicity_check():
    H2 = dual_hypergraph(parse_ideal("ab,bcg,cdg,de,efg"))
    H1 = H2.remove_edge((2, 3, 5))
    assert pd_monotonicity_check(H1, H2)


def test_monotonicity_check_rejects_non_containment():
    H2 = dual_hypergraph(parse_ideal("ab,bcg,cdg,de,efg"))
    with pytest.raises(PdError, match="vertices outside"):
        pd_monotonicity_check(Hypergraph([(9,)]), H2)
    with pytest.raises(PdError, match="edges outside"):
        pd_monotonicity_check(Hypergraph([(1, 3)]), H2)


def test_cyclic_bush_witness_matches_oracle():
    # once the closed-edge pass strips [2, 3], vertex 2 has pair-degree
    # 2, so the joint pass must judge it no joint
    H = Hypergraph(CYCLIC_WITNESS_EDGES)
    assert check_preconditions(H).all_ok
    result = pd(H)
    assert [s.vertex for s in result.trace.steps if s.vertex is not None] == [1]
    assert betti_table(ideal_from_hypergraph(H)).pd == 7
    assert result.pd == 7


def _qualifying_joints(H):
    """Joints carrying a branch of length 2."""
    shape = classify_shape(H)
    return [w for w, paths in shape.branch_data.items() if any(len(p) == 2 for p in paths)]


def _on_cycle(H, v):
    for u in H.pair_neighbors(v):
        rest = H.remove_edge((u, v))
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
                assert sub.pd == oracle_pd(ideal, char) == betti_table(ideal, char).pd
                priced += 1
    assert priced > 200


def test_pd_builds_no_lattice_and_no_ideal(monkeypatch):
    def refused(*args):
        raise AssertionError("called")

    for module in ("betti", "cli", "lattices"):
        monkeypatch.setattr(importlib.import_module(f"hyperpd.{module}"), "lcm_lattice", refused)
    for module in ("cli", "hypergraphs", "pd"):
        monkeypatch.setattr(
            importlib.import_module(f"hyperpd.{module}"), "ideal_from_hypergraph", refused
        )
    result = pd(dual_hypergraph(parse_ideal("ab,bcg,cdg,de,efg")))
    assert (result.pd, result.method) == (4, METHOD_ORACLE)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["pd", "--in", "ab,bc,cd,de,ef,fg", "--verify"]) == 0
    assert json.loads(out.getvalue())["oracle_pd"] == 4
