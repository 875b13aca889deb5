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
    t = tuple(sorted(set(map(int, edge))))
    if not t:
        raise HypergraphError("empty edge")
    return t


class Hypergraph:
    """A finite hypergraph with stable integer vertex ids.

    Edges keep first-seen order (which is variable order for
    ideal-derived hypergraphs); equality compares vertex and edge sets
    only, since edge labels are provenance metadata. `labels` holds
    (edge, names) pairs, and the names of pairs on one edge merge here.
    """

    __slots__ = ("vertices", "edges", "labels", "_edge_set", "_pair_adjacency")

    def __init__(self, edges, vertices=None, labels=None):
        self.edges = tuple(dict.fromkeys(_canon_edge(e) for e in edges))
        self._edge_set = frozenset(self.edges)
        self._pair_adjacency = None
        covered = set()
        for e in self.edges:
            covered.update(e)
        if vertices is None:
            self.vertices = tuple(sorted(covered))
        else:
            self.vertices = tuple(sorted(set(map(int, vertices))))
            if not covered <= set(self.vertices):
                raise HypergraphError("edge uses a vertex outside the vertex set")
        merged: dict[tuple[int, ...], set[str]] = {}
        for edge, names in labels or ():
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
        return len(self.pair_neighbors(v))

    def pair_neighbors(self, v: int) -> tuple[int, ...]:
        # built on first use; it holds only ints, so no reference cycle
        # keeps the hypergraph alive
        adjacency = self._pair_adjacency
        if adjacency is None:
            lists: dict[int, list[int]] = {}
            for e in self.edges:
                if len(e) == 2:
                    lists.setdefault(e[0], []).append(e[1])
                    lists.setdefault(e[1], []).append(e[0])
            adjacency = self._pair_adjacency = {u: tuple(sorted(ns)) for u, ns in lists.items()}
        return adjacency.get(v, ())

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

    def remove_edges(self, edges) -> "Hypergraph":
        """Delete the given edges in one surgery, refusing the first, in
        the order given, that is not an edge."""
        gone = set()
        for edge in edges:
            t = _canon_edge(edge)
            if t not in self._edge_set:
                raise HypergraphError(f"{list(t)} is not an edge")
            gone.add(t)
        return Hypergraph(
            (e for e in self.edges if e not in gone),
            vertices=self.vertices,
            labels=((e, ns) for e, ns in self.labels.items() if e not in gone),
        )

    def remove_vertices(self, vertices) -> "Hypergraph":
        """Delete the given vertices everywhere in one surgery: the
        hypergraph of the ideal without their generators. Refuses the
        first, in the order given, that is not a vertex.

        Edges shrink, empties vanish, duplicates merge with label
        union; a pair edge {u,v} with v removed collapses to the
        singleton {u}, so former neighbors of v come out closed. The
        result equals removing the vertices one at a time, in any
        order.
        """
        present = set(self.vertices)
        gone = set()
        for v in map(int, vertices):
            if v not in present:
                raise HypergraphError(f"{v} is not a vertex")
            gone.add(v)

        def shrink(e):
            return tuple(u for u in e if u not in gone)

        return Hypergraph(
            filter(None, map(shrink, self.edges)),
            vertices=(u for u in self.vertices if u not in gone),
            labels=((t, ns) for e, ns in self.labels.items() if (t := shrink(e))),
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
        edges: dict[int, list[tuple[int, ...]]] = {root: [] for root in groups}
        for e in self.edges:
            edges[find(e[0])].append(e)
        out = []
        for root, verts in groups.items():
            labels = [(e, self.labels[e]) for e in edges[root] if e in self.labels]
            out.append(Hypergraph(edges[root], vertices=verts, labels=labels))
        return out

    # -- serialization -----------------------------------------------

    def to_json_dict(self) -> dict:
        order = {v: i + 1 for i, v in enumerate(self.vertices)}
        edges = [[order[u] for u in e] for e in self.edges]
        data: dict = {"mu": len(self.vertices), "edges": edges}
        if self.labels:
            data["labels"] = {
                atom_key([order[u] for u in e]): list(ns)
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
                attr = f" [label={_dot_string(names)}]" if names else ""
                lines.append(f"  {e[0]} -- {e[1]}{attr};")
        for idx, e in enumerate(self.higher_edges()):
            names = ",".join(self.label_of(e)) or ",".join(str(v) for v in e)
            lines.append(f"  he{idx} [shape=box, style=dashed, label={_dot_string(names)}];")
            for v in e:
                lines.append(f"  he{idx} -- {v} [style=dotted];")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _dot_string(text: str) -> str:
    """text as a quoted DOT string, with backslashes and quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def atom_key(atoms) -> str:
    """The JSON key of a set of vertices or atoms, as in "[1,3]"."""
    return json.dumps(sorted(atoms), separators=(",", ":"))


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

    raw_labels = data.get("labels", {})
    if not isinstance(raw_labels, dict):
        raise HypergraphError("hypergraph JSON labels must map edge keys to names")

    def label(key, names) -> tuple[list[int], list[str]]:
        try:
            raw = json.loads(key)
        except json.JSONDecodeError:
            raise HypergraphError(f"bad edge key {key!r}")
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise HypergraphError(f"labels of edge {key} must be a list of names")
        return renamed(raw), names

    # keys spelled apart ("[1,2]", "[1, 2]", "[2,1]") may name one edge,
    # and Hypergraph merges their names
    labels = [label(key, names) for key, names in raw_labels.items()]
    return Hypergraph([renamed(e) for e in edges], vertices=vertices, labels=labels)


def dual_hypergraph(ideal: MonomialIdeal) -> Hypergraph:
    """The hypergraph whose vertices are generator indices and whose
    edges record, per variable, the set of generators it divides."""
    if ideal.is_zero():
        raise HypergraphError("the zero ideal has no hypergraph")
    if ideal.is_unit():
        raise HypergraphError("the unit ideal has no hypergraph")
    if not ideal.is_squarefree():
        raise HypergraphError("dual hypergraph needs a square-free ideal")
    divided: list[list[int]] = [[] for _ in ideal.ring]
    for j, m in enumerate(ideal.generators, start=1):
        for i in m.support:
            divided[i].append(j)
    return Hypergraph(
        filter(None, divided),
        vertices=range(1, ideal.mu + 1),
        labels=((members, (name,)) for name, members in zip(ideal.ring, divided) if members),
    )


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


def union_masks(masks) -> set[int]:
    """The masks equal to the union of the masks properly inside them.
    In the lattice that the complements of `masks` generate, these are
    the masks whose complements are not meet-irreducible."""
    out = set()
    for m in masks:
        union = 0
        for g in masks:
            if g & m == g != m:
                union |= g
        if union == m:
            out.add(m)
    return out


def union_edge_elements(H: Hypergraph) -> list[tuple[int, ...]]:
    """Edges equal to the union of the edges properly contained in
    them, in edge order."""
    masks = edge_masks(H)
    flagged = union_masks(masks)
    return [e for e, m in zip(H.edges, masks) if m in flagged]


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


def _branches_from(H: Hypergraph, w: int):
    """Maximal pair-degree-<=2 paths hanging off w that end at a leaf,
    yielded in the order of w's pair neighbors.

    Paths that run into another vertex of pair degree 3 or more
    (connectors) or back to w are not branches and are skipped.
    """
    for u in H.pair_neighbors(w):
        if H.pair_degree(u) >= 3:
            continue
        path = [u]
        prev, cur = w, u
        while H.pair_degree(cur) == 2:
            nxt = next(n for n in H.pair_neighbors(cur) if n != prev)
            if nxt == w or H.pair_degree(nxt) >= 3:
                break
            path.append(nxt)
            prev, cur = cur, nxt
        else:  # the walk ended at a leaf
            yield tuple(path)


def is_joint(H: Hypergraph, v: int) -> bool:
    """v has pair degree 3 or more and a branch of length 2: the vertex
    that the joint-removal pass removes."""
    return H.pair_degree(v) >= 3 and any(len(p) == 2 for p in _branches_from(H, v))


def classify_shape(H: Hypergraph) -> ShapeReport:
    """Shape of a connected H, by the strictest matching kind; callers
    pass a component, since nothing here splits H.

    string and cycle look at the whole edge family; two_star and bush
    are 1-skeleton conditions (higher edges allowed), with bush
    vacuously true when no vertex has pair degree 3 or more.
    """
    deg = {v: H.pair_degree(v) for v in H.vertices}
    pairs = [e for e in H.edges if len(e) == 2]
    higher = H.higher_edges()
    joints = tuple(v for v in H.vertices if deg[v] >= 3)
    branch_data = {w: list(_branches_from(H, w)) for w in joints}
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
