"""Regenerate perfbench/inputs.json, the inputs that come out of hyperpd.

Run from the repository root:

    python3 perfbench/make_inputs.py

Two inputs are made with the reduction engine: figure 4's reduced core
and the bushes, which must lose a joint in `full_reduce`. They are
frozen in inputs.json so that the benchmark gives every commit the same
inputs, whatever its reduction code does. Regenerating them changes the
benchmark.
"""

from __future__ import annotations

import json
import os
import random
import sys

sys.path.insert(0, os.path.abspath("src"))

from hyperpd.hypergraphs import (  # noqa: E402
    Hypergraph,
    hypergraph_from_json_dict,
    ideal_from_hypergraph,
    is_separated,
)
from hyperpd.reduction import RULE_JOINT, check_preconditions, full_reduce  # noqa: E402

FIGURE4 = "fixtures/figure4.json"
INPUTS = os.path.join("perfbench", "inputs.json")
BUSHES_SEED = 0
BUSHES = 60


def figure4_core() -> list[list[int]]:
    """Supports of the generators of figure 4's one reduced component
    with more than one vertex: the fixture is reduced with
    `full_reduce` and the component realised with
    `ideal_from_hypergraph` (one variable per edge, one generator per
    vertex)."""
    with open(FIGURE4) as fh:
        H = hypergraph_from_json_dict(json.load(fh))
    reduced, _ = full_reduce(H)
    core = max(reduced.components(), key=lambda c: c.mu)
    return [list(m.support) for m in ideal_from_hypergraph(core).generators]


def random_bush(rng: random.Random, n: int) -> Hypergraph:
    """A 1-dimensional bush on n vertices that is separated, passes the
    joint-removal gates and loses at least one joint in `full_reduce`.

    Pair edges form a tree in which each vertex hangs off one of the
    three before it. Leaves are closed, so the tree is separated; other
    vertices are closed at random unless a neighbour already is.
    """
    while True:
        pairs = [(rng.randint(max(1, v - 3), v - 1), v) for v in range(2, n + 1)]
        neighbours = {v: set() for v in range(1, n + 1)}
        for a, b in pairs:
            neighbours[a].add(b)
            neighbours[b].add(a)
        closed: set[int] = set()
        for v in range(1, n + 1):
            if len(neighbours[v]) == 1 or (rng.random() < 0.3 and not closed & neighbours[v]):
                closed.add(v)
        if any(a in closed and b in closed for a, b in pairs):
            continue
        H = Hypergraph(pairs + [(v,) for v in sorted(closed)])
        if not is_separated(H) or not check_preconditions(H).all_ok:
            continue
        _, trace = full_reduce(H)
        if any(step.rule == RULE_JOINT for step in trace.steps):
            return H


def main() -> int:
    rng = random.Random(BUSHES_SEED)
    bushes = [[list(e) for e in random_bush(rng, 8 + k % 3).edges] for k in range(BUSHES)]
    with open(INPUTS, "w") as fh:
        json.dump({"figure4_core": figure4_core(), "bushes": bushes}, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
