"""Inputs and answer checks for the benchmark workloads.

Each workload is a list of queries: the arguments a user would pass to
`hyperpd`, and a check that judges the printed answer. Checks compute
their reference lazily and memoise it, so the harness can build the
inputs before timing and judge every answer after timing. A reference
never goes through the reduction engine: it is a closed form, the
lattice-homology oracle on the input itself, or the oracle on pieces of
the input.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from functools import cache
from math import comb
from typing import Callable

from hyperpd.betti import betti_table
from hyperpd.hypergraphs import Hypergraph, hypergraph_from_json_dict, ideal_from_hypergraph
from hyperpd.ideals import make_ideal, monomial_from_indices, parse_ideal

FIGURE4 = "fixtures/figure4.json"
INPUTS = os.path.join("perfbench", "inputs.json")

# The 12-part partition behind the oracle-only lower bound pd >= 36 on
# figure 4 (README, "The 43-vertex fixture"). The bound itself is
# recomputed by every run that checks a figure-4 answer.
FIGURE4_PARTS = [
    [1, 2, 3, 4, 5, 6, 10, 11, 12, 26],
    [13, 14, 21, 22],
    [15, 16, 24, 25],
    [17, 18, 19, 29, 30, 31, 32, 35, 36],
    [27, 28, 33, 34, 37],
    [38, 39, 40, 41, 42],
    [7], [8], [9], [20], [23], [43],
]

# Positions, in generation order, of the random_ideals inputs that hit
# the joint-removal fault recorded in CHANGES.md: the engine answers one
# below the oracle on each of them, on every run. They are kept and
# counted as failed, so a fix for the fault has a number to move.
RANDOM_IDEALS_SEED = 0
RANDOM_IDEALS_KNOWN_FAULTS = frozenset({5, 33, 49, 71, 80})


@dataclass
class Query:
    """One CLI call and the check of its stdout.

    `check` returns None when the answer is right and a reason when it
    is wrong. `known_fault`, set only on inputs that hit a recorded
    engine fault, tells whether a wrong answer is the one that fault
    gives.
    """

    name: str
    argv: list[str]
    check: Callable[[str], str | None]
    known_fault: Callable[[str], bool] | None = None


# -- closed forms and invariants --------------------------------------

def path_pd(n: int) -> int:
    """pd(R/I(P_n)) for the path on n vertices (Jacques 2004)."""
    return 2 * n // 3


def cycle_pd(n: int) -> int:
    """pd(R/I(C_n)) for the cycle on n vertices (Jacques 2004)."""
    return (2 * n + 1) // 3


def betti_problem(totals: dict[int, int], mu: int) -> str | None:
    """Identities every Betti table of R/I with mu generators obeys:
    beta_0 = 1, beta_1 = mu, alternating sum 0, beta_i <= C(mu, i)."""
    if totals.get(0) != 1:
        return f"beta_0 is {totals.get(0)}, not 1"
    if totals.get(1) != mu:
        return f"beta_1 is {totals.get(1)}, not mu = {mu}"
    if sum((-1) ** i * b for i, b in totals.items()) != 0:
        return "alternating sum of Betti numbers is not 0"
    for i, b in totals.items():
        if b < 0 or b > comb(mu, i):
            return f"beta_{i} = {b} is outside [0, C({mu}, {i})]"
    return None


def _pd_answer(stdout: str) -> int:
    return json.loads(stdout)["pd"]


def _totals_answer(stdout: str) -> dict[int, int]:
    data = json.loads(stdout)
    return {int(i): b for i, b in data["totals"].items()}


def _check_pd(expected: Callable[[], int]) -> Callable[[str], str | None]:
    def check(stdout: str) -> str | None:
        got = _pd_answer(stdout)
        want = expected()
        return None if got == want else f"pd {got}, expected {want}"

    return check


# -- input makers -----------------------------------------------------

def graph_ideal_text(n: int, edges, rng: random.Random) -> str:
    """Edge ideal of a graph on n vertices as ideal text, with variable
    names and generator order shuffled by `rng`; neither changes the
    Betti numbers."""
    names = [f"x{i}" for i in range(n)]
    rng.shuffle(names)
    gens = [f"{names[a]}*{names[b]}" for a, b in edges]
    rng.shuffle(gens)
    return ",".join(gens)


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return path_edges(n) + [(n - 1, 0)]


def load_figure4() -> Hypergraph:
    with open(FIGURE4) as fh:
        return hypergraph_from_json_dict(json.load(fh))


def load_inputs() -> dict:
    """Inputs frozen by make_inputs.py: figure 4's reduced core as
    generator supports, and the bushes as edge lists."""
    with open(INPUTS) as fh:
        return json.load(fh)


def figure4_core_text(rng: random.Random) -> str:
    """Ideal text of figure 4's reduced core (11 generators, 1443
    lattice elements), with variable names and generator order
    shuffled by `rng`."""
    supports = load_inputs()["figure4_core"]
    names = [f"x{i}" for i in range(1 + max(max(s) for s in supports))]
    rng.shuffle(names)
    gens = ["*".join(names[i] for i in s) for s in supports]
    rng.shuffle(gens)
    return ",".join(gens)


def figure4_lower_bound(H: Hypergraph) -> int:
    """Oracle-only lower bound on pd(figure 4): set every edge that
    leaves a part to 1 and add the oracle pds of the part ideals."""
    flat = sorted(v for part in FIGURE4_PARTS for v in part)
    if flat != sorted(H.vertices):
        raise ValueError("the parts do not partition the fixture's vertices")
    bound = 0
    for part in FIGURE4_PARTS:
        inside = set(part)
        kept = [e for e in H.edges if inside.issuperset(e)]
        ring = tuple(f"x{k}" for k in range(len(kept)))
        gens = [monomial_from_indices(ring, [k for k, e in enumerate(kept) if v in e])
                for v in part]
        if any(m.is_one() for m in gens):
            raise ValueError(f"part {part} leaves a vertex uncovered")
        bound += betti_table(make_ideal(ring, gens)).pd
    return bound


def forest_json(pieces: list[Hypergraph], rng: random.Random) -> dict:
    """Disjoint union as hypergraph JSON, with vertex numbers and edge
    order shuffled by `rng`."""
    mu = sum(piece.mu for piece in pieces)
    numbers = list(range(1, mu + 1))
    rng.shuffle(numbers)
    edges = []
    for piece in pieces:
        pos = {v: numbers.pop() for v in piece.vertices}
        edges.extend(sorted(pos[v] for v in e) for e in piece.edges)
    rng.shuffle(edges)
    return {"mu": mu, "edges": edges}


def random_ideal_text(rng: random.Random) -> str:
    """Minimal square-free ideal of 10 distinct generators of degree 2
    or 3 in 14 variables; redrawn until no generator divides another."""
    while True:
        supports: list[tuple[int, ...]] = []
        while len(supports) < 10:
            s = tuple(sorted(rng.sample(range(14), rng.randint(2, 3))))
            if s not in supports:
                supports.append(s)
        if any(set(a) < set(b) for a in supports for b in supports):
            continue
        return ", ".join("*".join(f"x{i}" for i in s) for s in supports)


# -- workloads --------------------------------------------------------

def oracle_pd(seed: int, path_n: int = 13, cycle_n: int = 13, figure4: bool = True) -> list[Query]:
    """pd at GF(2) on figure 4, a path and a cycle: all go to the oracle."""
    rng = random.Random(seed)
    queries = []
    if figure4:
        H = load_figure4()
        bound = cache(lambda: figure4_lower_bound(H))

        def check_figure4(stdout: str) -> str | None:
            got = _pd_answer(stdout)
            if not bound() <= got <= H.mu:
                return f"pd {got} outside [{bound()}, {H.mu}]"
            return None

        queries.append(Query("figure4", ["pd", "--in", FIGURE4], check_figure4))
    path = graph_ideal_text(path_n, path_edges(path_n), rng)
    cycle = graph_ideal_text(cycle_n, cycle_edges(cycle_n), rng)
    queries.append(Query(f"P{path_n}", ["pd", "--in", path], _check_pd(lambda: path_pd(path_n))))
    queries.append(Query(f"C{cycle_n}", ["pd", "--in", cycle], _check_pd(lambda: cycle_pd(cycle_n))))
    return queries


def betti_gf3(seed: int, path_n: int = 12, cycle_n: int = 11, core: bool = True) -> list[Query]:
    """Betti tables at GF(3) of figure 4's core, a path and a cycle."""
    rng = random.Random(seed)
    queries = []
    if core:
        text = figure4_core_text(rng)
        mu = parse_ideal(text).mu
        queries.append(Query(
            "figure4-core",
            ["betti", "--field-char", "3", "--in", text],
            lambda stdout: betti_problem(_totals_answer(stdout), mu),
        ))
    for name, n, edges, formula in (
        (f"P{path_n}", path_n, path_edges(path_n), path_pd),
        (f"C{cycle_n}", cycle_n, cycle_edges(cycle_n), cycle_pd),
    ):
        text = graph_ideal_text(n, edges, rng)
        gf2 = cache(lambda text=text: betti_table(parse_ideal(text), char=2).totals())

        def check(stdout: str, gf2=gf2, mu=len(edges), want=formula(n)) -> str | None:
            totals = _totals_answer(stdout)
            problem = betti_problem(totals, mu)
            if problem:
                return problem
            top = max(i for i, b in totals.items() if b)
            if top != want:
                return f"pd {top}, expected {want}"
            if totals != gf2():
                return f"GF(3) totals {totals} differ from GF(2) totals {gf2()}"
            return None

        queries.append(Query(name, ["betti", "--field-char", "3", "--in", text], check))
    return queries


def reduce_bushes(seed: int, forests=(20, 40, 60)) -> list[Query]:
    """pd on forests of the frozen bushes, each forest a prefix of one
    list; `seed` shuffles each forest's vertex numbers and edge order.

    A forest's answer must be the sum of the oracle pds of its pieces,
    since pieces sit on disjoint variables.
    """
    pieces = [Hypergraph(edges) for edges in load_inputs()["bushes"][:max(forests)]]
    piece_pds = [
        cache(lambda piece=piece: betti_table(ideal_from_hypergraph(piece)).pd)
        for piece in pieces
    ]
    rng = random.Random(seed)
    queries = []
    for count in forests:
        text = json.dumps(forest_json(pieces[:count], rng))
        expected = lambda count=count: sum(p() for p in piece_pds[:count])
        queries.append(Query(f"forest{count}", ["pd", "--in", text], _check_pd(expected)))
    return queries


def random_ideals(seed: int, count: int = 100) -> list[Query]:
    """pd on `count` random ideals made from a fixed generator seed, so
    the inputs that hit the known fault are the same in every run;
    `seed` only shuffles the order in which they are asked."""
    gen = random.Random(RANDOM_IDEALS_SEED)
    queries = []
    for k in range(count):
        text = random_ideal_text(gen)
        oracle = cache(lambda text=text: betti_table(parse_ideal(text)).pd)
        fault = None
        if k in RANDOM_IDEALS_KNOWN_FAULTS:
            fault = lambda stdout, oracle=oracle: _pd_answer(stdout) == oracle() - 1
        queries.append(Query(f"ideal{k}", ["pd", "--in", text], _check_pd(oracle), fault))
    random.Random(seed).shuffle(queries)
    return queries


WORKLOADS = {
    "oracle_pd": oracle_pd,
    "betti_gf3": betti_gf3,
    "reduce_bushes": reduce_bushes,
    "random_ideals": random_ideals,
}
