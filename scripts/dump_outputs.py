"""Hash the program's answers, to show that a change leaves them byte
for byte as they were.

    python3 scripts/dump_outputs.py [seeds...]

Seeds default to 3 and 29. For each seed it asks, in process through
`run.ask`, every query of the four perfbench workloads once, with
`--trace` on `pd` queries. Then it asks `lattice` (JSON and DOT),
`check` and `coordinatize` on the four fixtures and on path and cycle
ideals of 3 to 13 variables, relabeled by the seed; `coordinatize` of
an ideal reads the `hypergraph` command's output for it. Then it asks
`betti` (JSON with `--entries`, and text) at characteristics 2 and 3
on the same inputs, on the 84-edge hypergraph of all two- and
three-vertex subsets of 8 vertices, and on each ideal's `lattice`
output read back as input, and on the edge ideals of K5, K6 and K7,
relabeled by the seed, and `abc,ad,bd,cd`, which cover the split of
the crosscut complex, its nesting and the complex it falls back to
when its two sides share a degree; on the read-back input it also asks
`check` and `lattice --output-format dot`, and it asks `lattice` on
the 12-atom lattice JSON that lacks only {1, 2}, which is not
intersection-closed. Last it asks `pd --verify` on the fixtures,
the ideals and the 84-edge hypergraph, every subcommand once with
`--output-format dot` on figure 4, and `hypergraph` on a JSON input
whose label keys spell one edge three ways, and `hypergraph` and
`reduce` as DOT on a JSON input whose labels hold a quote and a
backslash. It asks `hypergraph` and `reduce` on every `random_ideals`
text, where two variables often induce one edge and merge their
names. Then it asks `pd`, `reduce` and `check` on the figure 4,
five-generator and union-demo fixtures as hypergraph JSON with
`vertex_labels` of any sign and size: v -> v - 3, and an increasing
map into [-10^9, 10^9], drawn from the seed, that takes a negative
id, 0 and 10^9. Finally it asks `pd` on malformed JSON after two
blank lines, sniffed and with `--input-format hypergraph-json`;
`check` (JSON and text) and `hypergraph --output-format text` on a
hypergraph of two 2-stars and an isolated closed vertex; and
`hypergraph` and `lattice` on JSON whose `labels` is each of `[]`,
`null`, `false`, `0` and `""`; and `lattice`, `check` and
`coordinatize` on lattice JSON with a label key on atom 5 of 1, on
atom 100000 of 1, on {1, 2}, which is no element, and with two keys
for one element; and `hypergraph --output-format text`, `pd` and
`check` on the path ideal x1*x2,...,x69*x70, whose ring has 70
variables. It asks `betti` with `--entries` at characteristics 2 and
3 on the path ideal x1*x2,...,x15*x16, and `betti` on two inputs that
stop at a cap: the path ideal x1*x2,...,x29*x30 at the element cap,
and the 24 products of all but one of y0,...,y23, whose 24-atom top is
over the chain cap. It prints one sha256 per query, over
the exit code, stdout, stderr and trace, and then the sha256 of those
lines with the query count. Run it on two checkouts and compare the
last lines.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import hyperpd.cli  # noqa: E402
from run import ask  # noqa: E402
from workloads import WORKLOADS, cycle_edges, graph_ideal_text, path_edges  # noqa: E402

FIXTURES = ["figure4", "five_gen", "labeled_lattice", "union_demo"]


def lattice_inputs(seed: int) -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    """(name, --in value) of the fixtures, and of the path and cycle
    ideals relabeled by the seed."""
    rng = random.Random(seed)
    ideals = []
    for n in range(3, 14):
        ideals.append((f"P{n}", graph_ideal_text(n, path_edges(n), rng)))
        ideals.append((f"C{n}", graph_ideal_text(n, cycle_edges(n), rng)))
    return [(name, f"fixtures/{name}.json") for name in FIXTURES], ideals


def lattice_queries(seed: int):
    """(workload name, query name, argv) for the lattice-side commands."""
    fixtures, ideals = lattice_inputs(seed)
    for name, source in fixtures + ideals:
        yield "lattice", name, ["lattice", "--in", source]
        yield "lattice", f"{name}-dot", ["lattice", "--in", source, "--output-format", "dot"]
        yield "check", name, ["check", "--in", source]
        code, hypergraph, _ = ask(hyperpd.cli.main, ["hypergraph", "--in", source])
        yield "coordinatize", name, ["coordinatize", "--in", hypergraph if code == 0 else source]


def k8_edges() -> tuple[str, str]:
    """(name, --in value) of the hypergraph of all two- and three-subsets
    of 8 vertices: more edges than an ideal's ring may have variables."""
    edges = [list(c) for k in (2, 3) for c in itertools.combinations(range(1, 9), k)]
    return "K8-edges2-3", json.dumps({"mu": 8, "edges": edges})


def read_back_inputs(seed: int) -> list[tuple[str, str]]:
    """(name, --in value) of each ideal's `lattice` output."""
    read_back = []
    for name, source in lattice_inputs(seed)[1]:
        code, lattice, _ = ask(hyperpd.cli.main, ["lattice", "--in", source])
        read_back.append((f"{name}-lattice", lattice if code == 0 else source))
    return read_back


def betti_queries(seed: int):
    """(workload name, query name, argv) for `betti` on the lattice-side
    inputs and on each ideal's lattice JSON."""
    fixtures, ideals = lattice_inputs(seed)
    for name, source in fixtures + ideals + [k8_edges()] + read_back_inputs(seed):
        for char in ("2", "3"):
            argv = ["betti", "--field-char", char, "--in", source]
            yield "betti", f"{name}-char{char}", argv + ["--entries"]
            yield "betti", f"{name}-char{char}-text", argv + ["--output-format", "text"]


def split_queries(seed: int):
    """(workload name, query name, argv) for `betti` on the edge ideals
    of K5, K6 and K7, relabeled by the seed, and on `abc,ad,bd,cd`,
    whose top element collides in the split."""
    rng = random.Random(seed)
    inputs = [(f"K{n}", graph_ideal_text(n, itertools.combinations(range(n), 2), rng))
              for n in (5, 6, 7)]
    for name, source in inputs + [("collision", "abc,ad,bd,cd")]:
        for char in ("2", "3"):
            argv = ["betti", "--field-char", char, "--in", source]
            yield "split", f"{name}-char{char}", argv + ["--entries"]
            yield "split", f"{name}-char{char}-text", argv + ["--output-format", "text"]


# every subset of 12 atoms but {1, 2}, the meet of {1, 2, 3} and {1, 2, 4}
UNCLOSED = json.dumps({
    "atoms": 12,
    "elements": [list(c) for k in range(13) for c in itertools.combinations(range(1, 13), k)
                 if c != (1, 2)],
})


def read_back_queries(seed: int):
    """(workload name, query name, argv) for `check` and `lattice` as
    DOT on each ideal's lattice JSON, and `lattice` on an unclosed one."""
    for name, source in read_back_inputs(seed):
        yield "read-back", f"{name}-check", ["check", "--in", source]
        yield "read-back", f"{name}-dot", ["lattice", "--in", source, "--output-format", "dot"]
    yield "read-back", "unclosed", ["lattice", "--in", UNCLOSED]


def verify_and_dot_queries(seed: int):
    """(workload name, query name, argv) for `pd --verify` on the
    lattice-side inputs and the 84-edge hypergraph, and for each
    subcommand's `--output-format dot` on figure 4."""
    fixtures, ideals = lattice_inputs(seed)
    for name, source in fixtures + ideals + [k8_edges()]:
        yield "verify", name, ["pd", "--in", source, "--verify"]
    for command in hyperpd.cli._SUBCOMMANDS:
        yield "dot", command, [command, "--in", "fixtures/figure4.json", "--output-format", "dot"]


# "[1,2]", "[1, 2]" and "[2,1]" all name the edge {1, 2}
LABEL_KEYS = json.dumps({
    "mu": 3,
    "edges": [[1, 2], [2, 3]],
    "labels": {"[1,2]": ["a"], "[1, 2]": ["b"], "[2,1]": ["c"], "[2,3]": ["d"]},
})


# labels that end a DOT string unless escaped; reduce keeps both edges
DOT_ESCAPE = json.dumps({
    "mu": 4,
    "edges": [[1, 2], [2, 3], [1], [3], [1, 3, 4]],
    "labels": {"[1,2]": ['a"b'], "[1,3,4]": ["c\\d"]},
})


def random_ideal_queries(seed: int):
    """(workload name, query name, argv) for `hypergraph` and `reduce`
    on each `random_ideals` text."""
    for q in WORKLOADS["random_ideals"](seed):
        text = q.argv[q.argv.index("--in") + 1]
        for command in ("hypergraph", "reduce"):
            yield "random-ideals", f"{q.name}-{command}", [command, "--in", text]


def spread_ids(mu: int, rng: random.Random) -> list[int]:
    """An increasing injection of 1..mu into [-10^9, 10^9] that takes a
    negative id, 0 and 10^9."""
    ids = {-rng.randint(1, 10**9), 0, 10**9}
    while len(ids) < mu:
        ids.add(rng.randint(-10**9, 10**9))
    return sorted(ids)


def relabelled_queries(seed: int):
    """(workload name, query name, argv) for `pd`, `reduce` and `check`
    on fixtures whose vertices carry ids of any sign and size."""
    rng = random.Random(seed)
    for name in ("figure4", "five_gen", "union_demo"):
        _, text, _ = ask(hyperpd.cli.main, ["hypergraph", "--in", f"fixtures/{name}.json"])
        data = json.loads(text)
        shifted = [v - 3 for v in range(1, data["mu"] + 1)]
        for how, ids in (("minus3", shifted), ("spread", spread_ids(data["mu"], rng))):
            source = json.dumps({**data, "vertex_labels": ids})
            for command in ("pd", "reduce", "check"):
                yield "relabelled", f"{name}-{how}-{command}", [command, "--in", source]


# a syntax error on line 3, after two blank lines
MALFORMED = '\n\n  {"mu": 2, "edges": [[1,2],]}'

# two 2-stars and an isolated closed vertex
THREE_COMPONENTS = json.dumps({
    "mu": 9,
    "edges": [[1, 2], [1, 3], [1, 4], [2], [3], [4],
              [5, 6], [5, 7], [5, 8], [6], [7], [8], [9]],
})


# label keys that name no element, or one element twice
BAD_LABEL_KEYS = {
    "above-atoms": {"atoms": 1, "elements": [[], [1]], "labels": {"[5]": "a"}},
    "far-above-atoms": {"atoms": 1, "elements": [[], [1]], "labels": {"[1]": "a", "[100000]": "b"}},
    "no-element": {"atoms": 3, "elements": [[], [1], [2], [3], [1, 2, 3]],
                   "labels": {"[1]": "a", "[2]": "b", "[3]": "c", "[1,2]": "d"}},
    "two-keys": {"atoms": 2, "elements": [[], [1], [2], [1, 2]],
                 "labels": {"[1]": "a", "[2]": "b", "[2, 2]": "c"}},
}


def path_text(n: int) -> str:
    """The edge ideal x1*x2,...,x{n-1}*x{n} of the path on n variables."""
    return ",".join(f"x{i}*x{i + 1}" for i in range(1, n))


# a ring of 70 variables
PATH70 = path_text(70)

# each product misses one variable, so any two join to the 24-atom top
ALL_BUT_ONE = ",".join("*".join(f"y{j}" for j in range(24) if j != i) for i in range(24))


def edge_case_queries():
    """(workload name, query name, argv) for the malformed JSON, the
    three-component hypergraph, the falsy `labels` values, the bad
    label keys and the 70-variable path ideal."""
    yield "malformed", "sniffed", ["pd", "--in", MALFORMED]
    yield "malformed", "forced", ["pd", "--in", MALFORMED, "--input-format", "hypergraph-json"]
    yield "three-components", "check", ["check", "--in", THREE_COMPONENTS]
    yield "three-components", "check-text", ["check", "--in", THREE_COMPONENTS,
                                             "--output-format", "text"]
    yield "three-components", "hypergraph-text", ["hypergraph", "--in", THREE_COMPONENTS,
                                                  "--output-format", "text"]
    for labels in ([], None, False, 0, ""):
        for command, data in (("hypergraph", {"mu": 2, "edges": [[1, 2]]}),
                              ("lattice", {"atoms": 1, "elements": [[], [1]]})):
            source = json.dumps({**data, "labels": labels})
            yield "falsy-labels", f"{command}-{json.dumps(labels)}", [command, "--in", source]
    for name, data in BAD_LABEL_KEYS.items():
        for command in ("lattice", "check", "coordinatize"):
            yield "bad-label-keys", f"{name}-{command}", [command, "--in", json.dumps(data)]
    yield "path70", "hypergraph-text", ["hypergraph", "--in", PATH70, "--output-format", "text"]
    yield "path70", "pd", ["pd", "--in", PATH70]
    yield "path70", "check", ["check", "--in", PATH70]


def betti_walk_queries():
    """(workload name, query name, argv) for `betti` on the 16-variable
    path ideal, and on two inputs over the element and the chain cap."""
    for char in ("2", "3"):
        yield "betti-walk", f"P16-char{char}", ["betti", "--field-char", char,
                                                "--in", path_text(16), "--entries"]
    yield "betti-walk", "P30-element-cap", ["betti", "--in", path_text(30)]
    yield "betti-walk", "all-but-one-chain-cap", ["betti", "--in", ALL_BUT_ONE]


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv] or [3, 29]
    os.chdir(ROOT)
    total = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = os.path.join(tmp, "trace.jsonl")
        for seed in seeds:
            queries = [
                (workload, q.name, list(q.argv))
                for workload, make in WORKLOADS.items()
                for q in make(seed)
            ]
            queries += lattice_queries(seed)
            queries += betti_queries(seed)
            queries += split_queries(seed)
            queries += read_back_queries(seed)
            queries += verify_and_dot_queries(seed)
            queries.append(("hypergraph", "label-keys", ["hypergraph", "--in", LABEL_KEYS]))
            queries += [
                ("dot-escape", command, [command, "--in", DOT_ESCAPE, "--output-format", "dot"])
                for command in ("hypergraph", "reduce")
            ]
            queries += random_ideal_queries(seed)
            queries += relabelled_queries(seed)
            queries += edge_case_queries()
            queries += betti_walk_queries()
            for workload, name, argv_q in queries:
                if argv_q[0] == "pd":
                    argv_q += ["--trace", trace_path]
                code, out, err = ask(hyperpd.cli.main, argv_q)
                trace = ""
                if os.path.exists(trace_path):
                    with open(trace_path) as fh:
                        trace = fh.read()
                    os.remove(trace_path)
                digest = hashlib.sha256(
                    "\0".join([str(code), out, err, trace]).encode()
                ).hexdigest()
                line = f"{digest} seed{seed} {workload} {name}"
                print(line)
                total.update(line.encode() + b"\n")
                count += 1
    print(f"total {total.hexdigest()} over {count} queries")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
