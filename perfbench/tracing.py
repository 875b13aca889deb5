"""Spans and counters around calls into each hyperpd layer.

Nothing under `src/` is edited. `Tracer.install` rebinds the names a
calling module imported (for example `hyperpd.pd.full_reduce`, which
`pd()` looks up at call time) to wrappers that record a span: name,
query id, start, end and the enclosing span. Spans stay in memory until
the run writes them out. A layer's self time is its spans' time minus
the time of their child spans.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

from hyperpd.hypergraphs import Hypergraph
from hyperpd.reduction import RULE_JOINT

# `hyperpd.pd` names the function that the package re-exports, so the
# modules are looked up by their full names.
betti, cli, pd, reduction = (
    importlib.import_module(f"hyperpd.{name}") for name in ("betti", "cli", "pd", "reduction")
)

# span name -> (metric, whether the metric is self time)
SPAN_METRICS = {
    "cli.main": ("cli.self_s", True),
    "ideals.parse": ("ideals.parse_s", False),
    "hypergraphs.load": ("hypergraphs.load_s", False),
    "hypergraphs.components": ("hypergraphs.components_s", False),
    "hypergraphs.classify_shape": ("hypergraphs.classify_shape_s", False),
    "reduction.full_reduce": ("reduction.full_reduce_s", True),
    "reduction.remove_joints": ("reduction.remove_joints_s", False),
    "reduction.union_pass": ("reduction.union_pass_s", False),
    "reduction.closed_pass": ("reduction.closed_pass_s", False),
    "reduction.check_preconditions": ("reduction.check_preconditions_s", False),
    "pd.pd": ("pd.self_s", True),
    "lattices.lcm_lattice": ("lattices.lcm_lattice_s", False),
    "betti.betti_table_from_lattice": ("betti.crosscut_s", True),
    "betti.reduced_homology_ranks": ("betti.rank_s", False),
}

COUNT_METRICS = (
    "ideals.generators",
    "hypergraphs.components_calls",
    "hypergraphs.constructions",
    "reduction.steps",
    "reduction.joints_removed",
    "pd.formula_components",
    "pd.oracle_components",
    "pd.oracle_max_mu",
    "lattices.elements",
    "lattices.max_elements",
    "betti.intervals",
    "betti.faces",
    "betti.max_faces",
)


def _count_parse(c: Counter, args, ideal):
    c["ideals.generators"] += ideal.mu


def _count_components(c: Counter, args, comps):
    c["hypergraphs.components_calls"] += 1


def _count_construction(c: Counter, args, _):
    c["hypergraphs.constructions"] += 1


def _count_full_reduce(c: Counter, args, result):
    steps = result[1].steps
    c["reduction.steps"] += len(steps)
    c["reduction.joints_removed"] += sum(1 for s in steps if s.rule == RULE_JOINT)


def _count_pd(c: Counter, args, result):
    for comp, sub in result.per_component:
        if sub.method == "oracle":
            c["pd.oracle_components"] += 1
            c["pd.oracle_max_mu"] = max(c["pd.oracle_max_mu"], comp.mu)
        else:
            c["pd.formula_components"] += 1


def _count_lattice(c: Counter, args, L):
    c["lattices.elements"] += len(L)
    c["lattices.max_elements"] = max(c["lattices.max_elements"], len(L))


def _count_ranks(c: Counter, args, ranks):
    faces = sum(args[0].face_counts())
    c["betti.intervals"] += 1
    c["betti.faces"] += faces
    c["betti.max_faces"] = max(c["betti.max_faces"], faces)


# (owner, attribute, span name or None for a counter only, counter)
PATCHES = [
    (cli, "parse_ideal", "ideals.parse", _count_parse),
    (cli, "ideal_from_json_dict", "ideals.parse", _count_parse),
    (cli, "dual_hypergraph", "hypergraphs.load", None),
    (cli, "hypergraph_from_json_dict", "hypergraphs.load", None),
    (Hypergraph, "components", "hypergraphs.components", _count_components),
    (Hypergraph, "__init__", None, _count_construction),
    (reduction, "classify_shape", "hypergraphs.classify_shape", None),
    (pd, "classify_shape", "hypergraphs.classify_shape", None),
    (cli, "pd", "pd.pd", _count_pd),
    (pd, "full_reduce", "reduction.full_reduce", _count_full_reduce),
    (reduction, "remove_joints", "reduction.remove_joints", None),
    (reduction, "remove_union_edges", "reduction.union_pass", None),
    (reduction, "remove_closed_vertex_edges", "reduction.closed_pass", None),
    (reduction, "check_preconditions", "reduction.check_preconditions", None),
    (betti, "lcm_lattice", "lattices.lcm_lattice", _count_lattice),
    (betti, "betti_table_from_lattice", "betti.betti_table_from_lattice", None),
    (betti, "reduced_homology_ranks", "betti.reduced_homology_ranks", _count_ranks),
]


class Tracer:
    """Records spans as [id, parent id or -1, name, query, start ns, end ns]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.query = -1
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                span = [len(self.spans), self._stack[-1] if self._stack else -1,
                        name, self.query, perf_counter_ns(), 0]
                self.spans.append(span)
                self._stack.append(span[0])
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[5] = perf_counter_ns()
                    self._stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    @contextmanager
    def install(self):
        """Rebind every patched name while the block runs."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in PATCHES]
        try:
            for owner, attr, name, count in PATCHES:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), count))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_metrics(self, first_span: int, counts: Counter) -> dict[str, float]:
        """Per-layer totals over spans from `first_span` on, in seconds,
        plus the given counters."""
        spans = self.spans[first_span:]
        child_ns = Counter()
        for s in spans:
            if s[1] >= first_span:
                child_ns[s[1]] += s[5] - s[4]
        out = {metric: 0.0 for metric, _ in SPAN_METRICS.values()}
        for s in spans:
            metric, self_time = SPAN_METRICS[s[2]]
            ns = s[5] - s[4] - (child_ns[s[0]] if self_time else 0)
            out[metric] += ns / 1e9
        for name in COUNT_METRICS:
            out[name] = counts[name]
        return out

    def write(self, path: str):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, separators=(",", ":")) + "\n")
