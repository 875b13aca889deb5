"""A differential corpus of stars that fires every reduction rule and
every pricing method of `pd`, checked against the lattice-homology
oracle at chars 2 and 3.

Each draw is a star: centre 1 and 2 to 5 leaves. Each leaf is a new
vertex on a pair edge to the centre, and with probability 0.3 it gets
a second new vertex on a pair edge from the leaf. Then each vertex, in
creation order, gets a singleton edge with probability 0.3, and 1 or 2
edges on 3 random vertices are added. Only separated, connected draws
are kept.
"""

from __future__ import annotations

import importlib
import random
from collections import Counter

import pytest

from hyperpd.betti import lattice_pd
from hyperpd.hypergraphs import Hypergraph, edge_masks, is_separated
from hyperpd.reduction import RULES

pd_module = importlib.import_module("hyperpd.pd")
METHODS = [value for name, value in vars(pd_module).items() if name.startswith("METHOD_")]

# each rule and each method fires at least this often over the corpus
FLOOR = 100

# kept stars on which pd answers one below the oracle, at both chars:
# joint removal next to a higher edge that is not a union (ROADMAP
# item 1). A sound engine empties this set.
ENGINE_BELOW_ORACLE = {
    11, 51, 56, 72, 130, 167, 177, 271, 274, 282,
    293, 294, 319, 385, 417, 451, 475, 485, 509,
}


def star_corpus(seed: int = 5, draws: int = 3000) -> list[Hypergraph]:
    rng = random.Random(seed)
    kept = []
    for _ in range(draws):
        vertices = [1]
        edges = []
        for _ in range(rng.randint(2, 5)):
            leaf = len(vertices) + 1
            vertices.append(leaf)
            edges.append((1, leaf))
            if rng.random() < 0.3:
                vertices.append(leaf + 1)
                edges.append((leaf, leaf + 1))
        edges += [(v,) for v in vertices if rng.random() < 0.3]
        for _ in range(rng.randint(1, 2)):
            edges.append(tuple(sorted(rng.sample(vertices, 3))))
        H = Hypergraph(edges)
        if is_separated(H) and len(H.components()) == 1:
            kept.append(H)
    return kept


@pytest.fixture(scope="module")
def corpus():
    return star_corpus()


@pytest.fixture(scope="module")
def answers(corpus):
    """Per char, each star's pd result and oracle pd."""
    return {
        char: [(pd_module.pd(H, char), lattice_pd(H.mu, edge_masks(H), char)) for H in corpus]
        for char in (2, 3)
    }


def test_corpus_keeps_560_stars(corpus):
    assert len(corpus) == 560


def test_every_rule_fires(answers):
    fired = Counter(step.rule for result, _ in answers[2] for step in result.trace.steps)
    assert {rule: fired[rule] >= FLOOR for rule in RULES} == dict.fromkeys(RULES, True), fired


def test_every_method_prices(answers):
    priced = Counter(sub.method for result, _ in answers[2] for _, sub in result.per_component)
    priced[pd_module.METHOD_ADDITIVITY] = sum(
        result.method == pd_module.METHOD_ADDITIVITY for result, _ in answers[2]
    )
    assert len(METHODS) == 4
    assert {m: priced[m] >= FLOOR for m in METHODS} == dict.fromkeys(METHODS, True), priced


@pytest.mark.parametrize("char", [2, 3])
def test_pd_matches_the_oracle_but_on_the_known_faults(answers, char):
    gaps = {k: result.pd - oracle for k, (result, oracle) in enumerate(answers[char])}
    assert {k: gap for k, gap in gaps.items() if gap} == dict.fromkeys(ENGINE_BELOW_ORACLE, -1)
