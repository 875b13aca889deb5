"""Randomized invariants, kept small enough to run on every push."""

from __future__ import annotations

from hypothesis import assume, given, settings, strategies as st

from hyperpd.betti import betti_table, lattice_pd
from hyperpd.hypergraphs import (
    Hypergraph,
    dual_hypergraph,
    edge_masks,
    hypergraph_from_json_dict,
    ideal_from_hypergraph,
    is_separated,
)
from hyperpd.ideals import ideal_from_json_dict, parse_ideal
from hyperpd.lattices import hypergraph_coordinatization, lattice_from_hypergraph, lcm_lattice
from hyperpd.pd import pd
from hyperpd.reduction import full_reduce, remove_union_edges
from test_lattices import literal_lcm_lattice

ALPHABET = "abcdefghij"


def _keep_minimal(supports):
    distinct = sorted(set(supports), key=sorted)
    return [
        s for s in distinct
        if not any(o < s for o in distinct)
    ]


@st.composite
def random_ideal_text(draw, max_vars=6, max_gens=5):
    nvars = draw(st.integers(min_value=2, max_value=max_vars))
    supports = draw(
        st.lists(
            st.frozensets(st.integers(0, nvars - 1), min_size=1, max_size=nvars),
            min_size=1,
            max_size=max_gens,
        )
    )
    minimal = _keep_minimal(supports)
    return ",".join("".join(ALPHABET[i] for i in sorted(s)) for s in minimal)


@given(random_ideal_text())
@settings(max_examples=60, deadline=None)
def test_dual_lattice_matches_lcm_lattice(text):
    I = parse_ideal(text)
    H = dual_hypergraph(I)
    assert is_separated(H)
    assert lattice_from_hypergraph(H) == lcm_lattice(I) == literal_lcm_lattice(I)


@given(random_ideal_text())
@settings(max_examples=60, deadline=None)
def test_serialization_round_trips(text):
    I = parse_ideal(text)
    assert ideal_from_json_dict(I.to_json_dict()) == I
    assert parse_ideal(I.to_text()).to_text() == I.to_text()
    H = dual_hypergraph(I)
    assert hypergraph_from_json_dict(H.to_json_dict()) == H


@given(random_ideal_text())
@settings(max_examples=60, deadline=None)
def test_full_reduce_is_a_fixpoint(text):
    H = dual_hypergraph(parse_ideal(text))
    reduced, _ = full_reduce(H)
    again, trace = full_reduce(reduced)
    assert again == reduced
    assert trace.steps == []


@given(random_ideal_text(max_vars=5, max_gens=4))
@settings(max_examples=40, deadline=None)
def test_engine_agrees_with_homology_oracle(text):
    I = parse_ideal(text)
    assert pd(dual_hypergraph(I)).pd == betti_table(I).pd


@st.composite
def ideal_text_with_a_union(draw):
    """Ideal text whose dual hypergraph has two edges with a union of 3
    or more vertices that is not an edge: random generators over a to
    e, each times f, g or neither, and fg, fh and gi. The edges of f
    and g are incomparable, and their union is no edge, as no other
    variable divides fg. No generator takes both f and g, so fg divides
    none of them, and the generators stay minimal."""
    gens = draw(random_ideal_text(max_vars=5, max_gens=4)).split(",")
    tags = draw(st.lists(st.sampled_from(["", "f", "g"]), min_size=len(gens), max_size=len(gens)))
    return ",".join([g + t for g, t in zip(gens, tags)] + ["fg", "fh", "gi"])


@given(ideal_text_with_a_union())
@settings(max_examples=40, deadline=None)
def test_union_edge_removal_preserves_betti_numbers(text):
    # plant the union of f's and g's edges, then check stripping it
    # leaves homology alone
    H = dual_hypergraph(parse_ideal(text))
    edge_of = {H.label_of(e): set(e) for e in H.edges}
    union = tuple(sorted(edge_of[("f",)] | edge_of[("g",)]))
    enlarged = Hypergraph(list(H.edges) + [union])
    stripped, trace = remove_union_edges(enlarged)
    assert any(step.target == union for step in trace.steps)
    before = betti_table(ideal_from_hypergraph(enlarged)).totals()
    after = betti_table(ideal_from_hypergraph(stripped)).totals()
    assert before == after


@given(random_ideal_text(max_vars=5, max_gens=4), st.data())
@settings(max_examples=40, deadline=None)
def test_sub_hypergraph_never_has_larger_pd(text, data):
    H2 = dual_hypergraph(parse_ideal(text))
    keep = data.draw(
        st.lists(st.booleans(), min_size=len(H2.edges), max_size=len(H2.edges))
    )
    H1 = H2
    for edge, flag in zip(H2.edges, keep):
        if not flag and len(H1.edges) > 1:
            H1 = H1.remove_edges([edge])
    assume(is_separated(H1))
    # separated, so each edge lattice is the lcm-lattice of an ideal
    assert is_separated(H2)
    assert lattice_pd(H1.mu, edge_masks(H1)) <= lattice_pd(H2.mu, edge_masks(H2))


@given(random_ideal_text(max_vars=5, max_gens=4))
@settings(max_examples=40, deadline=None)
def test_coordinatization_reproduces_the_lattice(text):
    H = dual_hypergraph(parse_ideal(text))
    L, _, J = hypergraph_coordinatization(H)
    assert lcm_lattice(J) == L == lattice_from_hypergraph(H) == literal_lcm_lattice(J)
