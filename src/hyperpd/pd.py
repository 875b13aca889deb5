"""Projective dimension of R/I from the reduced dual hypergraph.

Each component after full reduction is matched against a shape with a
closed-form answer; anything else goes to the homology oracle, which
walks the top of the lattice of its edges. Components add.
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
METHOD_CLOSED_ISOLATED = "formula_closed_isolated"
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


def _component_pd(comp: Hypergraph, field_char: int) -> PdResult:
    # an isolated closed vertex contributes exactly 1
    if comp.mu == 1 and comp.is_closed(next(iter(comp.vertices))):
        return PdResult(1, METHOD_CLOSED_ISOLATED)
    # full_reduce leaves no edge whose vertices are all closed, so a
    # 2-star here has no pair edge joining two closed vertices; a 2-star
    # on mu vertices has pd mu - 1
    if classify_shape(comp).kind == "two_star":
        return PdResult(comp.mu - 1, METHOD_TWO_STAR)
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
    Only a separated hypergraph is the dual of an ideal, so others are
    refused. The passes keep separation, which leaves no all-open
    string of two or more vertices to price.
    """
    _check_char(field_char)
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

