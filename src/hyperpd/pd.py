"""Projective dimension of R/I from the reduced dual hypergraph.

Each component after full reduction is matched against a shape with a
closed-form answer; anything else goes to the homology oracle, which
walks the top of the lattice of its edges. Components add.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .betti import lattice_pd, oracle_pd
from .hypergraphs import (
    Hypergraph,
    ShapeReport,
    classify_shape,
    ideal_from_hypergraph,
    unseparated_pair,
)
from .lattices import _separated_edge_masks
from .reduction import ReductionTrace, full_reduce

METHOD_TWO_STAR = "formula_two_star"
METHOD_CLOSED_ISOLATED = "formula_closed_isolated"
METHOD_ORACLE = "oracle"
METHOD_ADDITIVITY = "additivity"


class PdError(ValueError):
    """A component the engine cannot price."""


def pd_two_star(H: Hypergraph, shape: ShapeReport) -> int:
    """pd of a 2-star on mu vertices: mu - 1. `shape` is H's
    `classify_shape` report."""
    if shape.kind != "two_star":
        raise PdError(f"hypergraph is a {shape.kind}, not a 2-star")
    return H.mu - 1


def pd_closed_isolated(count: int) -> int:
    """Each isolated closed vertex contributes exactly 1."""
    if count < 0:
        raise PdError("negative count")
    return count


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


def _component_pd(comp: Hypergraph, field_char: int) -> PdResult:
    shape = classify_shape(comp)
    if comp.mu == 1 and comp.is_closed(next(iter(comp.vertices))):
        return PdResult(pd_closed_isolated(1), METHOD_CLOSED_ISOLATED)
    # full_reduce leaves no edge whose vertices are all closed, so a
    # 2-star here has no pair edge joining two closed vertices
    if shape.kind == "two_star":
        return PdResult(pd_two_star(comp, shape), METHOD_TWO_STAR)
    # a separated hypergraph's lattice is the lcm-lattice of its ideal
    try:
        component_pd = lattice_pd(comp.mu, _separated_edge_masks(comp), char=field_char)
    except ValueError as exc:
        raise PdError(
            f"component {sorted(comp.vertices)} needs the oracle but {exc}"
        ) from exc
    return PdResult(component_pd, METHOD_ORACLE)


def pd(H: Hypergraph, field_char: int = 2) -> PdResult:
    """Reduce, split into components, price each, and add.

    Only a separated hypergraph is the dual of an ideal, so others are
    refused. The passes keep separation, which leaves no all-open
    string of two or more vertices to price.
    """
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


def pd_monotonicity_check(H1: Hypergraph, H2: Hypergraph) -> bool:
    """Oracle check, over GF(2), that a sub-hypergraph never has larger pd.

    H1 must use a subset of H2's vertices and edges. Returns whether
    pd(H1) <= pd(H2); raises if either side has no ideal realization.
    """
    if not set(H1.vertices) <= set(H2.vertices):
        raise PdError("H1 has vertices outside H2")
    if not set(H1.edges) <= set(H2.edges):
        raise PdError("H1 has edges outside H2")
    pd1 = oracle_pd(ideal_from_hypergraph(H1))
    pd2 = oracle_pd(ideal_from_hypergraph(H2))
    return pd1 <= pd2
