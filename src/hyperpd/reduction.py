"""The pd-preserving rewrite passes, each recorded in a replayable trace.

Three passes cooperate in full_reduce: joint removal on qualifying
bushes, union-edge removal, and closed-vertex edge removal. Each rule
is one record in RULES: its name, the one-line justification that
every serialized trace step carries so a trace can be audited without
the surrounding code, and what its step's one target is: an edge or a
vertex. Serializing, reading and replaying a trace all read that table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .hypergraphs import Hypergraph, classify_shape, is_joint, union_edge_elements

RULE_UNION = "union_edge_removed"
RULE_CLOSED = "closed_edge_removed"
RULE_JOINT = "joint_removed"


@dataclass(frozen=True)
class Rule:
    name: str
    cite: str
    target: str  # "edge" or "vertex": what a step of this rule removes


RULES = {
    rule.name: rule
    for rule in (
        Rule(RULE_UNION, "edge equals the union of its proper subedges; "
             "total Betti numbers unchanged", "edge"),
        Rule(RULE_CLOSED, "every vertex of the edge is closed; "
             "projective dimension unchanged", "edge"),
        Rule(RULE_JOINT, "joint with a branch of length 2 on a qualifying bush; "
             "projective dimension unchanged", "vertex"),
    )
}


class ReductionError(ValueError):
    """A strict union pass meeting a non-union higher edge, or a trace
    that does not replay."""


@dataclass(frozen=True)
class TraceStep:
    rule: str
    target: tuple[int, ...] | int | None  # per RULES[rule].target; None if a read line lacks it

    def to_json_dict(self) -> dict:
        rule = RULES.get(self.rule)
        data: dict = {"rule": self.rule, "cite": rule.cite if rule else ""}
        if rule is not None and self.target is not None:
            data[rule.target] = list(self.target) if rule.target == "edge" else self.target
        return data


@dataclass
class ReductionTrace:
    steps: list[TraceStep] = field(default_factory=list)

    def extend(self, other: "ReductionTrace"):
        self.steps.extend(other.steps)

    def to_jsonl(self) -> str:
        return "".join(
            json.dumps(s.to_json_dict(), sort_keys=True) + "\n" for s in self.steps
        )

    @classmethod
    def from_jsonl(cls, text: str) -> "ReductionTrace":
        steps = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            data = json.loads(line)
            rule = RULES.get(data["rule"])
            target = data.get(rule.target) if rule else None
            if target is not None and rule.target == "edge":
                target = tuple(target)
            steps.append(TraceStep(data["rule"], target))
        return cls(steps)


def replay_trace(H: Hypergraph, trace: ReductionTrace) -> Hypergraph:
    """Re-apply recorded steps. Raises on an unknown rule or on an edge or
    vertex that is not given or not present; rule conditions are unchecked."""
    out = H
    for step in trace.steps:
        rule = RULES.get(step.rule)
        if rule is None:
            raise ReductionError(f"unknown trace rule {step.rule!r}")
        edge = rule.target == "edge"
        if step.target is None:
            raise ReductionError(f"{step.rule} step lacks {'an edge' if edge else 'a vertex'}")
        out = (out.remove_edges if edge else out.remove_vertices)([step.target])
    return out


# the joint-removal gates, in the order `check` reports them
GATES = ("bush", "higher_edges_same_joint", "no_connected_closed")


@dataclass
class Preconditions:
    """Each failed gate of GATES mapped to its first witness, and each
    component's (vertices, kind) as `classify_shape` judged it."""

    witnesses: dict[str, str]
    components: list[tuple[tuple[int, ...], str]]

    @property
    def all_ok(self) -> bool:
        return not self.witnesses

    def to_json_dict(self) -> dict:
        data: dict = {gate: gate not in self.witnesses for gate in GATES}
        if self.witnesses:
            data["witnesses"] = dict(sorted(self.witnesses.items()))
        return data


def check_preconditions(H: Hypergraph) -> Preconditions:
    """The three gates for the joint-removal pass, with witnesses.

    Aggregated over components when H is disconnected: every component
    must pass.
    """
    witnesses: dict[str, str] = {}
    components = []
    for comp in H.components():
        shape = classify_shape(comp)
        components.append((comp.vertices, shape.kind))
        if shape.kind not in ("string", "two_star", "bush"):
            witnesses.setdefault(
                "bush",
                f"component {list(comp.vertices)} has kind {shape.kind}",
            )
        on_branch = {
            w: {v for path in paths for v in path}
            for w, paths in shape.branch_data.items()
        }
        for e in comp.higher_edges():
            implicated = {
                w for w, verts in on_branch.items() if any(v in verts for v in e)
            }
            if len(implicated) > 1:
                witnesses.setdefault(
                    "higher_edges_same_joint",
                    f"edge {list(e)} meets branches of joints {sorted(implicated)}",
                )
        for e in comp.edges:
            if len(e) == 2 and comp.is_closed(e[0]) and comp.is_closed(e[1]):
                witnesses.setdefault(
                    "no_connected_closed",
                    f"pair edge {list(e)} joins two closed vertices",
                )
    return Preconditions(witnesses, components)


def remove_union_edges(H: Hypergraph, strict: bool = False) -> tuple[Hypergraph, ReductionTrace]:
    """Strip every union edge of cardinality >= 3.

    Pair and singleton edges are never touched even when they are
    unions. Lenient mode leaves non-union higher edges in place;
    strict mode refuses, naming the first.
    """
    flagged = {e for e in union_edge_elements(H) if len(e) >= 3}
    if strict:
        kept = [e for e in H.higher_edges() if e not in flagged]
        if kept:
            raise ReductionError(f"higher edge {list(kept[0])} is not a union of other edges")
    return _remove_edges(H, RULE_UNION, [e for e in H.edges if e in flagged])


def remove_closed_vertex_edges(H: Hypergraph) -> tuple[Hypergraph, ReductionTrace]:
    """Strip every edge of two or more vertices all of which are closed."""
    closed = [e for e in H.edges if len(e) >= 2 and all(H.is_closed(v) for v in e)]
    return _remove_edges(H, RULE_CLOSED, closed)


def _remove_edges(H: Hypergraph, rule: str, edges: list) -> tuple[Hypergraph, ReductionTrace]:
    """Remove `edges` in one surgery, recording one `rule` step each."""
    trace = ReductionTrace([TraceStep(rule, e) for e in edges])
    return (H.remove_edges(edges) if edges else H), trace


def _edge_passes(H: Hypergraph) -> tuple[Hypergraph, ReductionTrace]:
    """One union-edge pass, then one closed-edge pass: a fixpoint of both.

    Neither pass removes a singleton, so which vertices are closed never
    changes, and the closed pass leaves no edge for a second one.
    Every edge the union pass removes is the union of kept edges inside
    it, so each recorded step still removes a union when the steps are
    replayed one at a time. Removing edges never makes an edge a union,
    so no kept edge becomes one later.
    """
    out, trace = remove_union_edges(H)
    out, t_closed = remove_closed_vertex_edges(out)
    trace.extend(t_closed)
    return out, trace


def _joint_still_qualifies(H: Hypergraph, i: int) -> bool:
    """Judge joint i on its own component once the edge passes have
    cleaned it: the gates must hold there and i must still be a joint.

    An earlier removal can close both ends of a pair edge, or turn a
    higher edge into a union, before either edge is stripped; the gates
    are about the hypergraph those pd-preserving passes would leave.
    """
    comp = next(c for c in _edge_passes(H)[0].components() if i in c.vertices)
    return check_preconditions(comp).all_ok and is_joint(comp, i)


def remove_joints(H: Hypergraph) -> tuple[Hypergraph, ReductionTrace]:
    """Remove joints (`is_joint`), ascending, until none qualify. The
    gates are judged on entry, where a failure returns H with no steps,
    and again before each removal on the joint's component as the edge
    passes would leave it. Without a joint H comes back with no steps
    and no gate is judged: the first sweep would remove nothing."""
    trace = ReductionTrace()
    if not any(is_joint(H, v) for v in H.vertices) or not check_preconditions(H).all_ok:
        return H, trace
    out = H
    while True:
        removed = False
        for i in out.vertices:  # the sweep's starting vertices; out is rebound below
            if is_joint(out, i) and _joint_still_qualifies(out, i):
                out = out.remove_vertices([i])
                trace.steps.append(TraceStep(RULE_JOINT, i))
                removed = True
        if not removed:
            return out, trace


def full_reduce(H: Hypergraph) -> tuple[Hypergraph, ReductionTrace]:
    """Run joint removal (where the gates allow) on every component,
    then the edge passes, until a round changes nothing. A round's
    joints leave the whole hypergraph in one surgery."""
    trace = ReductionTrace()
    out = H
    while True:
        before = (len(out.vertices), len(out.edges))
        joints = []
        for comp in out.components():
            _, t = remove_joints(comp)
            joints.extend(step.target for step in t.steps)
            trace.extend(t)
        if joints:
            out = out.remove_vertices(joints)
        out, t = _edge_passes(out)
        trace.extend(t)
        if (len(out.vertices), len(out.edges)) == before:
            return out, trace
