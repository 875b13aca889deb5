from __future__ import annotations

import json
import random

import pytest

from hyperpd import reduction
from hyperpd.betti import betti_table, lattice_pd
from hyperpd.hypergraphs import (
    Hypergraph,
    HypergraphError,
    dual_hypergraph,
    hypergraph_from_json_dict,
    ideal_from_hypergraph,
    is_separated,
)
from hyperpd.ideals import parse_ideal
from hyperpd.lattices import polarized_edges
from hyperpd.reduction import (
    RULE_CLOSED,
    RULE_JOINT,
    RULE_UNION,
    RULES,
    ReductionError,
    ReductionTrace,
    TraceStep,
    _edge_passes,
    check_preconditions,
    full_reduce,
    remove_closed_vertex_edges,
    remove_joints,
    remove_union_edges,
    replay_trace,
)

FIVE_GEN = "ab,bcg,cdg,de,efg"

# state of the 43-vertex fixture straight after the joint pass, frozen
# from an audited run (joints 14, 15, 27, 30, 38 in ascending order)
FIG4_JOINTS = [14, 15, 27, 30, 38]
FIG4_SURVIVING_PAIRS = [
    (1, 10), (2, 10), (3, 11), (4, 11), (5, 10), (5, 12), (6, 10), (6, 11),
    (7, 26), (8, 26), (9, 26), (11, 13), (12, 26), (16, 17), (17, 43),
    (18, 19), (21, 22), (24, 25), (28, 29), (31, 32), (33, 34), (33, 37),
    (35, 36), (39, 40), (41, 42),
]
FIG4_SURVIVING_HIGHERS = [(5, 6, 11, 12), (16, 24, 28, 29), (18, 35, 36), (39, 40, 41)]
FIG4_ORIGINAL_CLOSED = {1, 2, 3, 4, 6, 7, 8, 9, 15, 19, 20, 22, 23, 25, 27, 30, 32, 34, 36, 40, 42, 43}
FIG4_NEWLY_CLOSED = [13, 16, 17, 18, 21, 24, 26, 28, 29, 31, 33, 35, 37, 39, 41]


def _figure4():
    with open("fixtures/figure4.json") as f:
        return hypergraph_from_json_dict(json.load(f))


def test_union_removal_on_five_gen():
    H = dual_hypergraph(parse_ideal(FIVE_GEN))
    out, trace = remove_union_edges(H)
    assert [s.target for s in trace.steps] == [(2, 3, 5)]
    assert all(s.rule == RULE_UNION for s in trace.steps)
    # what is left is the string 1-2-3-4-5 with closed ends
    assert out.edges == ((1,), (1, 2), (2, 3), (3, 4), (4, 5), (5,))


def test_union_removal_never_touches_pairs_or_singletons():
    H = Hypergraph([(1,), (2,), (1, 2)])
    out, trace = remove_union_edges(H)
    assert out == H
    assert trace.steps == []


def test_union_removal_lenient_keeps_non_union_higher_edges():
    # (1,2,3) is not a union of the other edges
    H = Hypergraph([(1, 2), (3, 4), (1, 2, 3)])
    out, trace = remove_union_edges(H)
    assert out == H
    assert trace.steps == []


def test_union_removal_strict_refuses_non_union_higher_edges():
    H = Hypergraph([(1, 2), (3, 4), (1, 2, 3)])
    with pytest.raises(ReductionError, match="not a union"):
        remove_union_edges(H, strict=True)


def test_strict_mode_accepts_pure_union_higher_edges():
    H = dual_hypergraph(parse_ideal(FIVE_GEN))
    out, _ = remove_union_edges(H, strict=True)
    assert out.higher_edges() == ()


def test_closed_edge_removal():
    H = Hypergraph([(1,), (2,), (1, 2)])
    out, trace = remove_closed_vertex_edges(H)
    assert out.edges == ((1,), (2,))
    assert [s.rule for s in trace.steps] == [RULE_CLOSED]

    untouched = Hypergraph([(1,), (1, 2), (2, 3), (3,)])
    out2, trace2 = remove_closed_vertex_edges(untouched)
    assert out2 == untouched
    assert trace2.steps == []

    single = Hypergraph([(1,)])
    assert remove_closed_vertex_edges(single)[0] == single


def test_preconditions_pass_on_five_gen_and_fixture():
    assert check_preconditions(dual_hypergraph(parse_ideal(FIVE_GEN))).all_ok
    pre = check_preconditions(_figure4())
    assert pre.all_ok
    assert pre.to_json_dict() == {
        "bush": True,
        "higher_edges_same_joint": True,
        "no_connected_closed": True,
    }


def test_preconditions_flag_long_branch():
    H = Hypergraph([(1, 2), (1, 3), (1, 4), (4, 5), (5, 6), (2,), (3,), (6,)])
    pre = check_preconditions(H)
    assert "bush" in pre.witnesses
    assert not pre.all_ok
    assert "kind other" in pre.witnesses["bush"]


def test_preconditions_flag_higher_edge_across_joints():
    H = Hypergraph([
        (1, 2), (1, 3), (1, 4), (5, 6), (5, 7), (5, 8), (1, 5),
        (2,), (3,), (4,), (6,), (7,), (8,),
        (2, 4, 6),
    ])
    pre = check_preconditions(H)
    assert "bush" not in pre.witnesses
    assert "higher_edges_same_joint" in pre.witnesses
    assert pre.witnesses["higher_edges_same_joint"] == (
        "edge [2, 4, 6] meets branches of joints [1, 5]"
    )


def test_preconditions_flag_connected_closed_pair():
    pre = check_preconditions(Hypergraph([(1,), (2,), (1, 2)]))
    assert "no_connected_closed" in pre.witnesses
    assert "pair edge [1, 2]" in pre.witnesses["no_connected_closed"]


def test_joint_removal_needs_length_two_branch():
    # every branch has length 1, so nothing qualifies
    H = Hypergraph([(1, 2), (1, 3), (1, 4), (2,), (3,), (4,)])
    out, trace = remove_joints(H)
    assert out == H
    assert trace.steps == []


def test_joint_removal_refuses_bad_preconditions():
    # the second input has a qualifying joint 1, but the pair (4, 5)
    # joins two closed vertices
    for H in (
        Hypergraph([(1,), (2,), (1, 2)]),
        Hypergraph([(1, 2), (2, 3), (1, 4), (1, 5), (4, 5), (3,), (4,), (5,)]),
    ):
        assert not check_preconditions(H).all_ok
        out, trace = remove_joints(H)
        assert out is H
        assert trace.steps == []


def test_joint_removal_on_fixture_matches_frozen_decode():
    out, trace = remove_joints(_figure4())
    assert [s.target for s in trace.steps] == FIG4_JOINTS
    assert all(s.rule == RULE_JOINT for s in trace.steps)
    assert sorted(e for e in out.edges if len(e) == 2) == FIG4_SURVIVING_PAIRS
    assert sorted(e for e in out.edges if len(e) >= 3) == FIG4_SURVIVING_HIGHERS
    closed = {v for v in out.vertices if out.is_closed(v)}
    assert sorted(closed - FIG4_ORIGINAL_CLOSED) == FIG4_NEWLY_CLOSED


def test_joint_removal_closes_former_neighbors():
    # removing the joint turns its branch stubs into closed singletons
    H = Hypergraph([(1, 2), (2, 3), (1, 4), (1, 5), (3,), (4,), (5,)])
    out, trace = remove_joints(H)
    assert [s.target for s in trace.steps] == [1]
    assert out.is_closed(2)
    assert out.is_closed(4)
    assert out.is_closed(5)


def test_trace_jsonl_round_trip():
    _, trace = full_reduce(_figure4())
    text = trace.to_jsonl()
    again = ReductionTrace.from_jsonl(text)
    assert again.steps == trace.steps
    for line in text.strip().splitlines():
        step = json.loads(line)
        rule = RULES[step["rule"]]
        assert step["cite"] == rule.cite
        assert set(step) == {"rule", "cite", rule.target}


def test_trace_replay_reproduces_reduction():
    H = _figure4()
    reduced, trace = full_reduce(H)
    assert len(trace.steps) == 24
    assert replay_trace(H, trace) == reduced


def test_replay_rejects_malformed_steps():
    H = Hypergraph([(1, 2), (2, 3)])
    with pytest.raises(ReductionError, match="unknown trace rule"):
        replay_trace(H, ReductionTrace([TraceStep("made_up", (1, 2))]))
    with pytest.raises(ReductionError, match="lacks an edge"):
        replay_trace(H, ReductionTrace([TraceStep(RULE_UNION, None)]))
    with pytest.raises(ReductionError, match="lacks a vertex"):
        replay_trace(H, ReductionTrace([TraceStep(RULE_JOINT, None)]))
    with pytest.raises(HypergraphError):
        replay_trace(H, ReductionTrace([TraceStep(RULE_UNION, (1, 3))]))


def test_full_reduce_is_idempotent():
    for H in (
        dual_hypergraph(parse_ideal(FIVE_GEN)),
        _figure4(),
        Hypergraph([(1, 2), (2, 3), (1, 4), (1, 5), (3,), (4,), (5,)]),
    ):
        reduced, _ = full_reduce(H)
        again, trace = full_reduce(reduced)
        assert again == reduced
        assert trace.steps == []


def test_full_reduce_reaches_isolated_closed_vertices():
    # 2-star with one length-2 branch collapses completely
    H = Hypergraph([(1, 2), (2, 3), (1, 4), (1, 5), (3,), (4,), (5,)])
    reduced, trace = full_reduce(H)
    assert set(reduced.edges) == {(v,) for v in reduced.vertices}
    assert {s.rule for s in trace.steps} == {RULE_JOINT, RULE_CLOSED}


def test_full_reduce_skips_components_failing_preconditions():
    bad = Hypergraph([(1, 2), (1, 3), (1, 4), (4, 5), (5, 6), (2,), (3,), (6,)])
    reduced, trace = full_reduce(bad)
    # no joint step may fire on a non-bush component
    assert all(s.rule != RULE_JOINT for s in trace.steps)
    assert 1 in reduced.vertices


def _has_pair_degree_3(H):
    return any(H.pair_degree(v) >= 3 for v in H.vertices)


def test_full_reduce_judges_joint_bearing_components_once_and_rebuilds_once_per_round(monkeypatch):
    # six disjoint 2-stars, each losing its joint in the first round; the
    # second round finds only isolated closed vertices and short strings,
    # with no vertex of pair degree 3, so no gate is judged there
    bush = [(1, 2), (2, 3), (1, 4), (1, 5), (3,), (4,), (5,)]
    H = Hypergraph([tuple(v + 10 * k for v in e) for k in range(6) for e in bush])
    entry_checks, forest_rebuilds, judging = [], [], []
    check, qualifies, remove_vertices = (
        reduction.check_preconditions, reduction._joint_still_qualifies, Hypergraph.remove_vertices
    )

    def counted_check(G):
        if not judging:
            entry_checks.append(G.vertices)
        return check(G)

    def counted_qualifies(G, i):
        judging.append(i)
        try:
            return qualifies(G, i)
        finally:
            judging.pop()

    def counted_remove_vertices(G, vertices):
        if len(G.vertices) > 5:  # larger than one bush
            forest_rebuilds.append(G.vertices)
        return remove_vertices(G, vertices)

    monkeypatch.setattr(reduction, "check_preconditions", counted_check)
    monkeypatch.setattr(reduction, "_joint_still_qualifies", counted_qualifies)
    monkeypatch.setattr(Hypergraph, "remove_vertices", counted_remove_vertices)
    reduced, trace = full_reduce(H)
    assert [s.target for s in trace.steps if s.rule == RULE_JOINT] == [1, 11, 21, 31, 41, 51]
    assert entry_checks == [
        c.vertices for c in H.components() + reduced.components() if _has_pair_degree_3(c)
    ]
    assert entry_checks == [c.vertices for c in H.components()]
    assert forest_rebuilds == [H.vertices]


def test_no_gate_is_judged_without_a_vertex_of_pair_degree_3(monkeypatch):
    # a joint needs pair degree 3, so remove_joints answers H with no steps
    # before it judges a gate, even where a gate would fail
    def refused(G):
        raise AssertionError(f"gates judged on {G!r}")

    rng = random.Random(31)
    inputs = [
        Hypergraph([(1, 2), (2, 3), (3, 4), (4, 1)]),  # a cycle: the bush gate fails
        Hypergraph([(1,), (2,), (1, 2), (2, 3)]),  # two closed ends of a pair edge
    ]
    while len(inputs) < 200:
        H = _random_separated(rng)
        if not _has_pair_degree_3(H):
            inputs.append(H)
    monkeypatch.setattr(reduction, "check_preconditions", refused)
    for H in inputs:
        out, trace = remove_joints(H)
        assert out is H and trace.steps == []
        full_reduce(H)  # edge passes never raise a pair degree


def test_no_gate_is_judged_without_a_joint(monkeypatch):
    # vertex 1 has pair degree 3 in each, but no branch of length 2, so
    # the first sweep would remove nothing: no gate is judged
    def refused(G):
        raise AssertionError(f"gates judged on {G!r}")

    inputs = [
        Hypergraph([(1, 2), (1, 3), (1, 4), (2,), (3,), (4,)]),  # three leaves
        Hypergraph([(1, 2), (2, 3), (3, 4), (1, 5), (1, 6)]),  # a branch of length 3
        Hypergraph([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),  # K4: no branch
        Hypergraph([(1, 2), (2, 3), (3, 1), (1, 4), (4, 5), (5, 6), (6, 4)]),  # cycles
    ]
    monkeypatch.setattr(reduction, "check_preconditions", refused)
    for H in inputs:
        out, trace = remove_joints(H)
        assert out is H and trace.steps == []


def _random_separated(rng):
    """A separated hypergraph on 3-8 vertices with singletons, pairs and
    a few 3- or 4-vertex edges."""
    while True:
        n = rng.randint(3, 8)
        vertices = range(1, n + 1)
        edges = [(v,) for v in vertices if rng.random() < 0.5]
        edges += [rng.sample(vertices, 2) for _ in range(rng.randint(1, n + 2))]
        edges += [rng.sample(vertices, rng.randint(3, min(4, n))) for _ in range(rng.randint(0, 3))]
        H = Hypergraph(edges, vertices=vertices)
        if is_separated(H):
            return H


def test_edge_passes_reach_a_fixpoint():
    rng = random.Random(5)
    union_fired = closed_fired = 0
    for _ in range(2000):
        out, trace = _edge_passes(_random_separated(rng))
        rules = {s.rule for s in trace.steps}
        union_fired += RULE_UNION in rules
        closed_fired += RULE_CLOSED in rules
        assert remove_union_edges(out)[1].steps == []
        assert remove_closed_vertex_edges(out)[1].steps == []
    assert union_fired >= 100
    assert closed_fired >= 100


def test_full_reduce_skips_surgery_when_no_joint_goes(monkeypatch):
    # without a joint step no round has vertices to remove, so neither
    # full_reduce nor remove_joints rebuilds a hypergraph by removal
    rng = random.Random(23)
    calls, remove_vertices = [], Hypergraph.remove_vertices

    def counted_remove_vertices(G, vertices):
        calls.append(tuple(vertices))
        return remove_vertices(G, vertices)

    monkeypatch.setattr(Hypergraph, "remove_vertices", counted_remove_vertices)
    jointless = 0
    for _ in range(300):
        calls.clear()
        _, trace = full_reduce(_random_separated(rng))
        if all(s.rule != RULE_JOINT for s in trace.steps):
            jointless += 1
            assert calls == []
    assert jointless >= 50


def _ideal_pd(I):
    return lattice_pd(I.mu, polarized_edges(I))


def _ideal_or_none(H):
    try:
        return ideal_from_hypergraph(H)
    except HypergraphError:
        return None


def _check_each_step(pass_, invariant, seed, draws):
    """Replay every step a pass records, one edge removal at a time, and
    compare `invariant` of the ideals on both sides of each step where
    both realise. Returns (steps checked, mismatches)."""
    rng = random.Random(seed)
    checked, mismatches = 0, []
    for _ in range(draws):
        before = _random_separated(rng)
        _, trace = pass_(before)
        for step in trace.steps:
            after = before.remove_edges([step.target])
            I, J = _ideal_or_none(before), _ideal_or_none(after)
            if I is not None and J is not None:
                checked += 1
                if invariant(I) != invariant(J):
                    mismatches.append((step.target, [list(e) for e in before.edges]))
            before = after
    return checked, mismatches


def test_each_union_step_keeps_total_betti_numbers():
    checked, mismatches = _check_each_step(
        remove_union_edges, lambda I: betti_table(I).totals(), seed=2, draws=400
    )
    assert mismatches == []
    assert checked >= 100


def test_each_closed_step_keeps_pd():
    checked, mismatches = _check_each_step(
        remove_closed_vertex_edges, _ideal_pd, seed=2, draws=400
    )
    assert mismatches == []
    assert checked >= 100

