"""Measure what split collisions cost the homology oracle.

    python3 scripts/collision_cost.py [repeats]

A collision is an instance of `betti._settle` whose split's two sides
share a degree; it builds and ranks a crosscut complex. For each corpus
below and each of characteristics 2 and 3, this prints the complexes
ranked, their faces, the largest, and the minimum time of `repeats`
runs (5 by default) of the whole corpus:

- K7: the edge ideal of K7 relabeled by `graph_ideal_text` at rng
  seeds 0 to 19;
- fallback: the ten ideals of `scripts/dump_outputs.py::fallback_queries`
  at seeds 3 and 29;
- heavy: 80 square-free ideals, 40 from each of rng seeds 7 and 8,
  each of 14 to 22 distinct products of 3 to 6 of 9 to 12 variables;
- dense: random support families as `tests/test_betti.py` draws them
  (rng seed 27), 200 of 6 to 14 atoms and 40 of 15 to 19, each
  settled as one element on all of its atoms.

The ideals go through `betti_table`, the families through
`_betti_numbers` with a fresh memo. Counts come from one extra run
that wraps `betti.reduced_homology_ranks`; the timed runs do not.
"""

from __future__ import annotations

import itertools
import random
import sys
import time

from dump_outputs import fallback_queries  # puts src/ and perfbench/ on the path
from hyperpd import betti
from hyperpd.ideals import parse_ideal
from workloads import graph_ideal_text


def heavy_ideals(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    texts = []
    for _ in range(count):
        num_vars, size = rng.randint(9, 12), rng.randint(14, 22)
        products = set()
        while len(products) < size:
            products.add(tuple(sorted(rng.sample(range(num_vars), rng.randint(3, 6)))))
        texts.append(",".join("*".join(f"x{v}" for v in p) for p in sorted(products)))
    return texts


def support_families(rng, count: int, low: int, high: int) -> list[list[int]]:
    """`tests/test_betti.py::_support_families` with `low` to `high` atoms."""
    families = []
    for _ in range(count):
        n = rng.randint(low, high)
        edges = rng.randint(n // 2, n + 2)
        density = rng.choice((0.5, 0.6, 0.7))
        family: list[int] = []
        while len(family) < n:
            s = sum(1 << e for e in range(edges) if rng.random() < density)
            if s:
                family.append(s)
        families.append(family)
    return families


def corpora():
    """(name, run) pairs; run(char) settles the whole corpus once."""
    k7 = [graph_ideal_text(7, itertools.combinations(range(7), 2), random.Random(seed))
          for seed in range(20)]
    fallback = [argv[argv.index("--in") + 1] for seed in (3, 29)
                for _, _, argv in fallback_queries(seed) if argv[2] == "2"]
    heavy = heavy_ideals(7, 40) + heavy_ideals(8, 40)
    rng = random.Random(27)
    small = support_families(rng, 200, 6, 14)
    large = support_families(rng, 40, 15, 19)

    def ideals(texts):
        parsed = [parse_ideal(t) for t in texts]
        return lambda char: [betti.betti_table(I, char) for I in parsed]

    def families(fs):
        return lambda char: [betti._betti_numbers(f, (1 << len(f)) - 1, char, {}) for f in fs]

    return [("K7", ideals(k7)), ("fallback", ideals(fallback)), ("heavy", ideals(heavy)),
            ("dense6-14", families(small)), ("dense15-19", families(large))]


def main(argv: list[str]) -> int:
    repeats = int(argv[0]) if argv else 5
    ranks = betti.reduced_homology_ranks
    sizes: list[int] = []

    def counting(K, char=2):
        sizes.append(sum(K.face_counts()))
        return ranks(K, char)

    print("corpus char complexes faces largest min_s")
    for name, run in corpora():
        for char in (2, 3):
            sizes.clear()
            betti.reduced_homology_ranks = counting
            try:
                run(char)
            finally:
                betti.reduced_homology_ranks = ranks
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                run(char)
                times.append(time.perf_counter() - start)
            print(name, char, len(sizes), sum(sizes), max(sizes, default=0), f"{min(times):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
