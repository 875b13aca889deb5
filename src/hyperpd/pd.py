"""Projective dimension of R/I from the reduced dual hypergraph.

Each component after full reduction gets one price, chosen first by
whether a higher edge remains. Components add.

Without a higher edge, a component whose pair edges form a tree (a
lone closed vertex among them) is priced by bight, the size of its
largest minimal edge cover: its ideal's facet complex is a simplicial
forest, so R/I is sequentially Cohen-Macaulay (Faridi) and pd = bight
(Morey-Villarreal). A cycle of mu pair edges with no singleton is the
edge ideal of C_mu, with pd = (2 mu + 1) // 3 (Jacques). With a higher
edge, a 2-star has pd mu - 1. The rest goes to the homology oracle,
which walks the top of the lattice of its edges: any other component
with a higher edge, or one whose pair edges hold a cycle with a
closed vertex, a cycle with trees hanging off it, or two cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .betti import _check_char, lattice_pd
from .hypergraphs import (
    Hypergraph,
    classify_shape,
    edge_masks,
    unseparated_pair,
)
from .reduction import ReductionTrace, full_reduce

METHOD_TWO_STAR = "formula_two_star"
METHOD_FOREST = "formula_forest"
METHOD_OPEN_CYCLE = "formula_open_cycle"
METHOD_ORACLE = "oracle"
METHOD_ADDITIVITY = "additivity"


class PdError(ValueError):
    """A component the engine cannot price."""


@dataclass
class PdResult:
    pd: int
    method: str
    per_component: list[tuple[Hypergraph, "PdResult"]] = field(default_factory=list)
    trace: ReductionTrace | None = None

    def to_json_dict(self) -> dict:
        data: dict = {"pd": self.pd, "method": self.method}
        if self.per_component:
            data["components"] = [
                {
                    "vertices": [int(v) for v in comp.vertices],
                    "pd": sub.pd,
                    "method": sub.method,
                }
                for comp, sub in self.per_component
            ]
        return data


def _tree_bight(comp: Hypergraph) -> int:
    """The largest minimal edge cover of a component whose edges are
    the pairs of a tree and singletons, a lone vertex closed: a set of
    edges covering every vertex, each with a private vertex that no
    other edge of the set covers.

    Rooted at the first vertex and settled leaves first, each vertex v
    keeps the most edges a cover can choose below it, by what its
    parent edge does: f0, not chosen, so v is covered by its singleton
    alone (if v is closed), by exactly one child edge private at v, or
    by two or more child edges, each private at its child; f1, chosen
    and private at v, so no child edge is chosen; f2, chosen and
    private at the parent, so any child edges chosen are private at
    their children. An open leaf has no f0: `NONE`, so negative that
    every sum holding it stays below 0, as no cover exists there.
    """
    root = comp.vertices[0]
    parent = {root: None}
    order = [root]
    for v in order:
        for u in comp.pair_neighbors(v):
            if u not in parent:
                parent[u] = v
                order.append(u)
    NONE = -1 - len(comp.edges)
    f0, f1, f2 = {}, {}, {}
    for v in reversed(order):
        kids = [c for c in comp.pair_neighbors(v) if c != parent[v]]
        rest = sum(f0[c] for c in kids)  # no child edge chosen
        # what choosing a child edge private at its child adds, best first
        gains = sorted((1 + f1[c] - f0[c] for c in kids), reverse=True)
        two_up = (
            rest + gains[0] + gains[1] + sum(g for g in gains[2:] if g > 0)
            if len(kids) >= 2 else NONE
        )
        own = rest + 1 if comp.is_closed(v) else NONE
        private = rest + max((1 + f2[c] - f0[c] for c in kids), default=NONE)
        f0[v] = max(own, private, two_up)
        f1[v] = rest
        f2[v] = rest + sum(g for g in gains if g > 0)
    return f0[root]


def _component_pd(comp: Hypergraph, field_char: int) -> PdResult:
    if comp.higher_edges():
        # full_reduce leaves no pair edge joining two closed vertices, and
        # a 2-star without one on mu vertices has pd mu - 1
        if classify_shape(comp).kind == "two_star":
            return PdResult(comp.mu - 1, METHOD_TWO_STAR)
    else:
        # a connected component's mu - 1 pair edges form a tree, and a
        # lone vertex is closed, as pd() refused a vertex in no edge
        pairs = sum(len(e) == 2 for e in comp.edges)
        if pairs == comp.mu - 1:
            return PdResult(_tree_bight(comp), METHOD_FOREST)
        # mu pair edges of degree 2 and no singleton: the edge ideal of C_mu
        if pairs == len(comp.edges) == comp.mu and {*map(comp.pair_degree, comp.vertices)} == {2}:
            return PdResult((2 * comp.mu + 1) // 3, METHOD_OPEN_CYCLE)
    # a separated hypergraph's lattice is the lcm-lattice of its ideal;
    # pd() refused unseparated input, and the passes keep separation
    try:
        component_pd = lattice_pd(comp.mu, edge_masks(comp), char=field_char)
    except ValueError as exc:
        raise PdError(
            f"component {sorted(comp.vertices)} needs the oracle but {exc}"
        ) from exc
    return PdResult(component_pd, METHOD_ORACLE)


def pd(H: Hypergraph, field_char: int = 2) -> PdResult:
    """Reduce, split into components, price each, and add.

    The characteristic is proven first, whether or not the oracle runs.
    Only a separated hypergraph with every vertex on an edge is the
    dual of an ideal, so others are refused. The passes keep
    separation, which leaves no all-open string of two or more
    vertices to price.
    """
    _check_char(field_char)
    uncovered = set(H.vertices).difference(*H.edges)
    if uncovered:
        raise PdError(f"vertex {min(uncovered)} lies in no edge")
    pair = unseparated_pair(H)
    if pair is not None:
        raise PdError(
            "no ideal has this hypergraph: every edge through vertex "
            f"{pair[0]} holds vertex {pair[1]}"
        )
    reduced, trace = full_reduce(H)
    parts = [(comp, _component_pd(comp, field_char)) for comp in reduced.components()]
    total = sum(sub.pd for _, sub in parts)
    if len(parts) == 1:
        method = parts[0][1].method
    else:
        method = METHOD_ADDITIVITY
    return PdResult(total, method, parts, trace)

