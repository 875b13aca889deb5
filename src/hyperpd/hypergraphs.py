"""Dual hypergraphs of square-free monomial ideals.

Vertices are the generator indices 1..mu; each ring variable induces
the edge of generators it divides, and variables inducing the same
edge are merged with their names accumulated as the edge's label.

Vertex ids are stable across surgeries: removing a vertex leaves a gap
rather than renumbering, so reduction traces stay readable against the
input. Serialization renumbers 1..mu and records the original ids when
they differ.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .ideals import IdealError, MonomialIdeal, is_json_int, monomial_from_indices


class HypergraphError(ValueError):
    """Domain error for hypergraph construction and surgery."""


def _canon_edge(edge) -> tuple[int, ...]:
    t = tuple(sorted(set(int(v) for v in edge)))
    if not t:
        raise HypergraphError("empty edge")
    return t


class Hypergraph:
    """A finite hypergraph with stable integer vertex ids.

    Edges keep first-seen order (which is variable order for
    ideal-derived hypergraphs); equality compares vertex and edge sets
    only, since edge labels are provenance metadata.
    """

    __slots__ = ("vertices", "edges", "labels", "_edge_set")

    def __init__(self, edges, vertices=None, labels=None):
        self.edges = tuple(dict.fromkeys(_canon_edge(e) for e in edges))
        self._edge_set = frozenset(self.edges)
        covered = set()
        for e in self.edges:
            covered.update(e)
        if vertices is None:
            self.vertices = tuple(sorted(covered))
        else:
            self.vertices = tuple(sorted(set(int(v) for v in vertices)))
            if not covered <= set(self.vertices):
                raise HypergraphError("edge uses a vertex outside the vertex set")
        merged: dict[tuple[int, ...], set[str]] = {}
        if labels:
            for edge, names in labels.items():
                t = _canon_edge(edge)
                if t not in self._edge_set:
                    raise HypergraphError(f"label attached to missing edge {list(t)}")
                merged.setdefault(t, set()).update(names)
        self.labels = {e: tuple(sorted(ns)) for e, ns in merged.items() if ns}

    @property
    def mu(self) -> int:
        return len(self.vertices)

    def label_of(self, edge) -> tuple[str, ...]:
        return self.labels.get(_canon_edge(edge), ())

    def is_closed(self, v: int) -> bool:
        return (v,) in self._edge_set

    def pair_degree(self, v: int) -> int:
        """Degree within the 1-skeleton's two-vertex edges."""
        return sum(1 for e in self.edges if len(e) == 2 and v in e)

    def pair_neighbors(self, v: int) -> tuple[int, ...]:
        out = set()
        for e in self.edges:
            if len(e) == 2 and v in e:
                out.add(e[0] if e[1] == v else e[1])
        return tuple(sorted(out))

    def higher_edges(self) -> tuple[tuple[int, ...], ...]:
        return tuple(e for e in self.edges if len(e) >= 3)

    def __eq__(self, other):
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (
            set(self.vertices) == set(other.vertices)
            and self._edge_set == other._edge_set
        )

    def __hash__(self):
        return hash((frozenset(self.vertices), self._edge_set))

    def __repr__(self):
        return f"Hypergraph(vertices={list(self.vertices)}, edges={[list(e) for e in self.edges]})"

    # -- surgeries ---------------------------------------------------

    def remove_edge(self, edge) -> "Hypergraph":
        t = _canon_edge(edge)
        if t not in self._edge_set:
            raise HypergraphError(f"{list(t)} is not an edge")
        return self.remove_edges((t,))

    def remove_edges(self, edges) -> "Hypergraph":
        """Delete the given edges, canonical tuples, in one surgery;
        tuples that are not edges are ignored."""
        gone = set(edges)
        labels = {e: ns for e, ns in self.labels.items() if e not in gone}
        return Hypergraph(
            (e for e in self.edges if e not in gone), vertices=self.vertices, labels=labels
        )

    def remove_vertex(self, v: int) -> "Hypergraph":
        if v not in self.vertices:
            raise HypergraphError(f"{v} is not a vertex")
        return self.remove_vertices((v,))

    def remove_vertices(self, vertices) -> "Hypergraph":
        """Delete the given vertices everywhere in one surgery: the
        hypergraph of the ideal without their generators.

        Edges shrink, empties vanish, duplicates merge with label
        union; a pair edge {u,v} with v removed collapses to the
        singleton {u}, so former neighbors of v come out closed. The
        result equals removing the vertices one at a time, in any
        order.
        """
        gone = set(vertices)
        new_edges = []
        labels: dict[tuple[int, ...], set[str]] = {}
        for e in self.edges:
            t = tuple(u for u in e if u not in gone)
            if not t:
                continue
            if t not in labels:
                new_edges.append(t)
                labels[t] = set()
            labels[t].update(self.labels.get(e, ()))
        return Hypergraph(
            new_edges,
            vertices=(u for u in self.vertices if u not in gone),
            labels={e: ns for e, ns in labels.items() if ns},
        )

    def components(self) -> list["Hypergraph"]:
        """Connected components under shared-edge adjacency, ordered by
        smallest vertex; uncovered vertices count as singletons. A
        connected hypergraph is its own only component: hypergraphs
        are immutable, so no copy is made."""
        parent = {v: v for v in self.vertices}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for e in self.edges:
            for u in e[1:]:
                ra, rb = find(e[0]), find(u)
                if ra != rb:
                    parent[rb] = ra
        groups: dict[int, list[int]] = {}
        for v in self.vertices:
            groups.setdefault(find(v), []).append(v)
        if len(groups) == 1:
            return [self]
        out = []
        for root in sorted(groups, key=lambda r: min(groups[r])):
            verts = set(groups[root])
            edges = [e for e in self.edges if verts.issuperset(e)]
            labels = {e: ns for e, ns in self.labels.items() if verts.issuperset(e)}
            out.append(Hypergraph(edges, vertices=verts, labels=labels))
        return out

    # -- serialization -----------------------------------------------

    def to_json_dict(self) -> dict:
        order = {v: i + 1 for i, v in enumerate(self.vertices)}
        edges = [[order[u] for u in e] for e in self.edges]
        data: dict = {"mu": len(self.vertices), "edges": edges}
        if self.labels:
            data["labels"] = {
                _edge_key([order[u] for u in e]): list(ns)
                for e, ns in sorted(self.labels.items())
            }
        if any(order[v] != v for v in self.vertices):
            data["vertex_labels"] = list(self.vertices)
        return data

    def to_dot(self) -> str:
        lines = ["graph hypergraph {", "  node [shape=circle];"]
        for v in self.vertices:
            style = ' [style=filled, fillcolor=gray]' if self.is_closed(v) else ""
            lines.append(f"  {v}{style};")
        for e in self.edges:
            if len(e) == 2:
                names = ",".join(self.label_of(e))
                attr = f' [label="{names}"]' if names else ""
                lines.append(f"  {e[0]} -- {e[1]}{attr};")
        for idx, e in enumerate(self.higher_edges()):
            names = ",".join(self.label_of(e)) or ",".join(str(v) for v in e)
            lines.append(
                f'  he{idx} [shape=box, style=dashed, label="{names}"];'
            )
            for v in e:
                lines.append(f"  he{idx} -- {v} [style=dotted];")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _edge_key(edge) -> str:
    return json.dumps(sorted(edge), separators=(",", ":"))


def hypergraph_from_json_dict(data: dict) -> Hypergraph:
    try:
        mu = data["mu"]
        edges = data["edges"]
    except (KeyError, TypeError) as exc:
        raise HypergraphError(f"bad hypergraph JSON: {exc}")
    if not is_json_int(mu):
        raise HypergraphError(f"hypergraph JSON mu must be an integer, got {mu!r}")
    if mu < 1:
        raise HypergraphError(f"hypergraph JSON mu must be at least 1, got {mu}")
    if "vertex_labels" in data:
        vertices = data["vertex_labels"]
        if not isinstance(vertices, list) or not all(is_json_int(v) for v in vertices):
            raise HypergraphError("vertex_labels must be a list of integers")
        if len(set(vertices)) != len(vertices):
            raise HypergraphError("vertex_labels must be distinct")
        if len(vertices) != mu:
            raise HypergraphError("vertex_labels length disagrees with mu")
    else:
        vertices = range(1, mu + 1)
    if not isinstance(edges, list):
        raise HypergraphError("hypergraph JSON edges must be a list")
    # a vertex in no edge has no generator; checked before anything of size mu
    covered = {v for e in edges if isinstance(e, list) for v in e if is_json_int(v)}
    uncovered = next((v for v in range(1, mu + 1) if v not in covered), None)
    if uncovered is not None:
        raise HypergraphError(f"vertex {vertices[uncovered - 1]} lies in no edge")
    rename = dict(zip(range(1, mu + 1), vertices))

    def renamed(edge) -> list[int]:
        if not isinstance(edge, list) or not all(is_json_int(v) and v in rename for v in edge):
            raise HypergraphError(f"edge {edge!r} is not a list of vertices 1..{mu}")
        return [rename[v] for v in edge]

    raw_labels = data.get("labels") or {}
    if not isinstance(raw_labels, dict):
        raise HypergraphError("hypergraph JSON labels must map edge keys to names")
    labels = {}
    for key, names in raw_labels.items():
        try:
            raw = json.loads(key)
        except json.JSONDecodeError:
            raise HypergraphError(f"bad edge key {key!r}")
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise HypergraphError(f"labels of edge {key} must be a list of names")
        labels[tuple(renamed(raw))] = tuple(names)
    return Hypergraph(
        [renamed(e) for e in edges],
        vertices=vertices,
        labels=labels,
    )


def dual_hypergraph(ideal: MonomialIdeal) -> Hypergraph:
    """The hypergraph whose vertices are generator indices and whose
    edges record, per variable, the set of generators it divides."""
    if ideal.is_zero():
        raise HypergraphError("the zero ideal has no hypergraph")
    if not ideal.is_squarefree():
        raise HypergraphError("dual hypergraph needs a square-free ideal")
    edges = []
    labels: dict[tuple[int, ...], set[str]] = {}
    for i, name in enumerate(ideal.ring):
        members = tuple(
            j for j, m in enumerate(ideal.generators, start=1) if m.exps[i]
        )
        if not members:
            continue
        if members not in labels:
            edges.append(members)
            labels[members] = set()
        labels[members].add(name)
    return Hypergraph(edges, vertices=range(1, ideal.mu + 1), labels=labels)


def ideal_from_hypergraph(H: Hypergraph) -> MonomialIdeal:
    """The standard ideal of a hypergraph: one fresh variable per edge,
    one generator per vertex (the product of its incident edges'
    variables). The generating set is NOT minimalized; a non-separated
    input can make it non-minimal, which MonomialIdeal rejects."""
    uncovered = [v for v in H.vertices if all(v not in e for e in H.edges)]
    if uncovered:
        raise HypergraphError(f"vertex {uncovered[0]} lies in no edge")
    ring = tuple(f"x{k}" for k in range(1, len(H.edges) + 1))
    gens = []
    for v in H.vertices:
        indices = [k for k, e in enumerate(H.edges) if v in e]
        gens.append(monomial_from_indices(ring, indices))
    try:
        return MonomialIdeal(ring, tuple(gens))
    except IdealError as exc:
        raise HypergraphError(
            f"hypergraph has no ideal with one generator per vertex: {exc}"
        )


def edge_masks(H: Hypergraph) -> list[int]:
    """Each edge as a bitmask over vertex positions in `H.vertices`."""
    pos = {v: i for i, v in enumerate(H.vertices)}
    return [sum(1 << pos[v] for v in e) for e in H.edges]


def unseparated_pair(H: Hypergraph) -> tuple[int, int] | None:
    """A vertex a and another vertex b on every edge through a, or None
    when the edges through each vertex meet in that vertex alone."""
    meets = [(1 << H.mu) - 1] * H.mu
    pos = {v: i for i, v in enumerate(H.vertices)}
    for e, m in zip(H.edges, edge_masks(H)):
        for v in e:
            meets[pos[v]] &= m
    for i, a in enumerate(H.vertices):
        others = meets[i] & ~(1 << i)
        if others:
            return a, H.vertices[(others & -others).bit_length() - 1]
    return None


def is_separated(H: Hypergraph) -> bool:
    """Every ordered vertex pair is split by an edge containing the
    first but not the second."""
    return unseparated_pair(H) is None


@dataclass
class ShapeReport:
    kind: str
    branch_data: dict[int, list[tuple[int, ...]]] = field(default_factory=dict)

    def branch_lengths(self) -> list[int]:
        return [len(p) for paths in self.branch_data.values() for p in paths]


def _branches_from(H: Hypergraph, w: int, deg) -> list[tuple[int, ...]]:
    """Maximal degree-<=2 paths hanging off w that end at a leaf.

    Paths that run into another joint (connectors) or back to w are
    not branches and are skipped.
    """
    out = []
    for u in H.pair_neighbors(w):
        if deg[u] >= 3:
            continue
        path = [u]
        prev, cur = w, u
        while deg[cur] == 2:
            nxt = next(n for n in H.pair_neighbors(cur) if n != prev)
            if deg[nxt] >= 3 or nxt == w:
                path = None
                break
            path.append(nxt)
            prev, cur = cur, nxt
        if path is not None:
            out.append(tuple(path))
    return out


def classify_shape(H: Hypergraph) -> ShapeReport:
    """Shape of a connected hypergraph, by the strictest matching kind.

    string and cycle look at the whole edge family; two_star and bush
    are 1-skeleton conditions (higher edges allowed), with bush
    vacuously true when there is no joint at all.
    """
    if len(H.components()) != 1:
        raise HypergraphError("classify_shape needs a connected hypergraph")
    deg = {v: H.pair_degree(v) for v in H.vertices}
    pairs = [e for e in H.edges if len(e) == 2]
    higher = H.higher_edges()
    joints = tuple(v for v in H.vertices if deg[v] >= 3)
    branch_data = {w: _branches_from(H, w, deg) for w in joints}
    report = ShapeReport("other", branch_data)
    mu = H.mu
    if not higher and not joints:
        if len(pairs) == mu - 1:
            report.kind = "string"
            return report
        if mu >= 3 and len(pairs) == mu and all(deg[v] == 2 for v in H.vertices):
            report.kind = "cycle"
            return report
    lengths = report.branch_lengths()
    if joints and all(n <= 2 for n in lengths):
        covered = len(joints) + sum(lengths)
        if len(joints) == 1 and covered == mu:
            report.kind = "two_star"
        else:
            report.kind = "bush"
        return report
    if not joints:
        # no joints and not a plain path or cycle: higher edges over a
        # degree-<=2 skeleton; vacuously a bush
        report.kind = "bush"
    return report
