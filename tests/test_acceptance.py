"""Acceptance gate: ten checks, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` so the lines show up.
Each check computes its facts first, prints the line, then asserts, so
a failure still leaves a readable record of what was measured.
"""

from __future__ import annotations

import itertools
import json
import random
import subprocess
import sys
import time

from hyperpd.betti import betti_table, lattice_pd
from hyperpd.hypergraphs import (
    Hypergraph,
    dual_hypergraph,
    edge_masks,
    hypergraph_from_json_dict,
    ideal_from_hypergraph,
    is_separated,
    union_edge_elements,
)
from hyperpd.ideals import (
    Monomial,
    ideal_from_json_dict,
    make_ideal,
    monomial_from_indices,
    parse_ideal,
)
from hyperpd.lattices import (
    Labeling,
    coordinatize,
    labeling_from_json_dict,
    lattice_from_hypergraph,
    lcm_lattice,
    set_of,
)
from hyperpd.pd import pd
from hyperpd.reduction import check_preconditions, full_reduce, remove_union_edges, replay_trace
from hyperpd.reduction import ReductionTrace
from test_lattices import literal_lcm_lattice

FIVE_GEN = "ab,bcg,cdg,de,efg"

FIVE_GEN_FAMILY = [
    [], [1], [2], [3], [4], [5],
    [1, 2], [1, 4], [1, 5], [2, 3], [2, 5], [3, 4], [4, 5],
    [1, 2, 3], [1, 2, 5], [1, 4, 5], [2, 3, 4], [3, 4, 5],
    [1, 2, 3, 4], [2, 3, 4, 5],
    [1, 2, 3, 4, 5],
]

ALPHABET = "abcdefghij"


def _report(num, ok, detail, elapsed, budget=None):
    timed_out = budget is not None and elapsed > budget
    status = "PASS" if (ok and not timed_out) else "FAIL"
    window = f"{elapsed:.2f}s" + (f" / {budget:.0f}s" if budget is not None else "")
    print(f"ACCEPTANCE {num} {status}: {detail} [{window}]")
    assert ok, detail
    assert not timed_out, f"criterion {num} exceeded {budget}s ({elapsed:.2f}s)"


def _random_ideal_text(rng, max_vars, max_gens):
    nvars = rng.randint(2, max_vars)
    supports = {
        frozenset(rng.sample(range(nvars), rng.randint(1, nvars)))
        for _ in range(rng.randint(1, max_gens))
    }
    minimal = [s for s in supports if not any(o < s for o in supports)]
    return ",".join("".join(ALPHABET[i] for i in sorted(s)) for s in minimal)


def test_criterion_01_worked_lattice():
    start = time.time()
    proc = subprocess.run(
        [sys.executable, "-m", "hyperpd.cli", "lattice", "--in", FIVE_GEN],
        capture_output=True, text=True,
    )
    data = json.loads(proc.stdout)
    got = {frozenset(e) for e in data["elements"]}
    want = {frozenset(e) for e in FIVE_GEN_FAMILY}
    I = parse_ideal(FIVE_GEN)
    literal = literal_lcm_lattice(I)
    routes = lattice_from_hypergraph(dual_hypergraph(I)) == lcm_lattice(I) == literal
    ok = proc.returncode == 0 and len(data["elements"]) == 21 and got == want and routes
    _report(1, ok,
            f"cli lattice has {len(data['elements'])} elements, "
            f"family match {got == want}, both routes equal the definition {routes}",
            time.time() - start, budget=1)


def test_criterion_02_lattice_agreement_suite():
    start = time.time()
    rng = random.Random(20260802)
    failures = 0
    for _ in range(500):
        I = parse_ideal(_random_ideal_text(rng, max_vars=10, max_gens=7))
        literal = literal_lcm_lattice(I)
        if not lattice_from_hypergraph(dual_hypergraph(I)) == lcm_lattice(I) == literal:
            failures += 1
    _report(2, failures == 0,
            f"500 random minimal ideals, {failures} lattice mismatches with the definition",
            time.time() - start, budget=30)


def test_criterion_03_union_edges_and_invariance():
    start = time.time()
    with open("fixtures/union_demo.json") as f:
        eleven = ideal_from_json_dict(json.load(f))
    cases = [
        (parse_ideal(FIVE_GEN), {(2, 3, 5)}),
        (eleven, {(3, 4, 7), (4, 5, 6)}),
    ]
    flagged_ok = True
    invariant_ok = True
    for I, expected in cases:
        H = dual_hypergraph(I)
        flagged = {e for e in union_edge_elements(H) if len(e) >= 3}
        flagged_ok = flagged_ok and flagged == expected
        stripped, _ = remove_union_edges(H)
        before = betti_table(ideal_from_hypergraph(H)).totals()
        after = betti_table(ideal_from_hypergraph(stripped)).totals()
        invariant_ok = invariant_ok and before == after
    _report(3, flagged_ok and invariant_ok,
            f"union edges flagged exactly {flagged_ok}, "
            f"Betti totals unchanged by removal {invariant_ok}",
            time.time() - start, budget=10)


def test_criterion_04_open_string_formula():
    # a bare all-open string has no separated realization, so the oracle
    # runs on the path ideals, whose dual is the string with closed ends
    start = time.time()
    values = []
    ok = True
    for mu in range(1, 10):
        text = ",".join(ALPHABET[i] + ALPHABET[i + 1] for i in range(mu))
        I = parse_ideal(text)
        oracle = betti_table(I).pd
        engine = pd(dual_hypergraph(I)).pd
        values.append(oracle)
        ok = ok and oracle == mu - mu // 3 == engine
    _report(4, ok,
            f"oracle pd for string lengths 1..9 = {values}, "
            "all equal to mu - floor(mu/3)",
            time.time() - start, budget=20)


def test_criterion_05_two_star_family():
    start = time.time()
    checked = 0
    failures = []
    for legs in range(0, 4):          # branches of length 2
        for stubs in range(0, 8):     # branches of length 1
            mu = 1 + stubs + 2 * legs
            if stubs + legs < 3 or mu > 8:
                continue
            joint = 1
            edges = []
            nxt = 2
            branch_vertices = []
            for _ in range(stubs):
                leaf = nxt
                nxt += 1
                edges += [(joint, leaf), (leaf,)]
                branch_vertices.append(leaf)
            for _ in range(legs):
                inner, leaf = nxt, nxt + 1
                nxt += 2
                edges += [(joint, inner), (inner, leaf), (leaf,)]
                branch_vertices += [inner, leaf]
            # a closed joint next to a length-1 branch would give a
            # connected closed pair, so that marking only exists when
            # every branch has length 2
            markings = [edges] if stubs else [edges, [(joint,)] + edges]
            variants = []
            for marked in markings:
                variants.append(Hypergraph(marked))
                for size in range(3, len(branch_vertices) + 1):
                    for combo in itertools.combinations(sorted(branch_vertices), size):
                        enlarged = Hypergraph(marked + [combo])
                        if combo in union_edge_elements(enlarged):
                            continue
                        variants.append(enlarged)
            for H in variants:
                checked += 1
                if not is_separated(H):
                    failures.append((stubs, legs, "unseparated"))
                    continue
                got = betti_table(ideal_from_hypergraph(H)).pd
                if got != H.mu - 1:
                    failures.append((stubs, legs, got))
    ok = checked == 237 and not failures
    _report(5, ok,
            f"{checked} two-star variants (expected 237), "
            f"{len(failures)} with oracle pd != mu - 1",
            time.time() - start, budget=60)


def test_criterion_06_additivity():
    start = time.time()
    rng = random.Random(20260806)
    shift = str.maketrans("abcde", "fghij")
    failures = 0
    made = 0
    while made < 100:
        left = _random_ideal_text(rng, max_vars=4, max_gens=3)
        right = _random_ideal_text(rng, max_vars=4, max_gens=3)
        I1, I2 = parse_ideal(left), parse_ideal(right)
        if I1.mu + I2.mu > 10:
            continue
        combined = parse_ideal(left + "," + right.translate(shift))
        made += 1
        if betti_table(combined).pd != betti_table(I1).pd + betti_table(I2).pd:
            failures += 1
    _report(6, failures == 0,
            f"100 disjoint unions, {failures} not additive",
            time.time() - start, budget=60)


def test_criterion_07_monotonicity():
    start = time.time()
    rng = random.Random(20260807)
    violations = 0
    made = 0
    while made < 200:
        H1 = dual_hypergraph(parse_ideal(_random_ideal_text(rng, 6, 6)))
        if H1.mu > 6:
            continue
        verts = sorted(H1.vertices)
        candidates = [
            c for size in range(1, len(verts) + 1)
            for c in itertools.combinations(verts, size)
            if c not in H1.edges
        ]
        if not candidates:
            continue
        rng.shuffle(candidates)
        H2 = Hypergraph(list(H1.edges) + candidates[: rng.randint(1, 3)])
        made += 1
        # separated, so each edge lattice is the lcm-lattice of an ideal
        assert is_separated(H1) and is_separated(H2)
        if lattice_pd(H1.mu, edge_masks(H1)) > lattice_pd(H2.mu, edge_masks(H2)):
            violations += 1
    _report(7, violations == 0,
            f"200 nested edge-family pairs, {violations} with pd(sub) > pd(super)",
            time.time() - start, budget=60)


def test_criterion_08_coordinatization():
    start = time.time()
    with open("fixtures/labeled_lattice.json") as f:
        L, lab = labeling_from_json_dict(json.load(f))
    fixture_text = coordinatize(L, lab).to_text()
    fixture_ok = fixture_text == "bcd, abc, a^2*c, a^2*b"

    rng = random.Random(20260808)
    round_trips = 0
    failures = 0
    while round_trips + failures < 200:
        source = parse_ideal(_random_ideal_text(rng, 5, 4))
        lattice = lcm_lattice(source)
        irreducibles = [m for m in lattice.meet_irreducibles() if m != lattice.top]
        order = sorted(irreducibles, key=lambda m: (m.bit_count(), set_of(m)))
        rng.shuffle(order)
        # group meet-irreducibles into random chains; one variable per
        # chain keeps incomparable labels coprime
        chains: list[list[int]] = []
        for m in order:
            placed = False
            if chains and rng.random() < 0.5:
                for chain in rng.sample(chains, len(chains)):
                    if all(m & o in (m, o) for o in chain):
                        chain.append(m)
                        placed = True
                        break
            if not placed:
                chains.append([m])
        ring = tuple(f"v{i}" for i in range(len(chains)))
        assignment = {}
        for i, chain in enumerate(chains):
            exps = [0] * len(ring)
            exps[i] = 1
            for m in chain:
                assignment[m] = Monomial(ring, tuple(exps))
        ideal = coordinatize(lattice, Labeling(ring, assignment))
        if literal_lcm_lattice(source) == lattice == lcm_lattice(ideal) == literal_lcm_lattice(ideal):
            round_trips += 1
        else:
            failures += 1
    _report(8, fixture_ok and failures == 0,
            f"labeled fixture gives {fixture_text!r}, "
            f"{round_trips}/200 random labelings round-trip",
            time.time() - start, budget=60)


# A partition of the 43-vertex fixture for an oracle-only lower bound
# on pd. Setting the variable of every edge that crosses two parts to 1
# never raises pd (y - 1 is regular on R/I; criterion 7 checks the
# same monotonicity), and the parts then sit on disjoint variables, so
# their pds add (criterion 6).
FIG4_CERTIFICATE_PARTS = [
    [1, 2, 3, 4, 5, 6, 10, 11, 12, 26],
    [13, 14, 21, 22],
    [15, 16, 24, 25],
    [17, 18, 19, 29, 30, 31, 32, 35, 36],
    [27, 28, 33, 34, 37],
    [38, 39, 40, 41, 42],
    [7], [8], [9], [20], [23], [43],
]


def _restricted_part_pd(H, part):
    """Oracle pd of the ideal left on one part once every edge leaving
    it is set to 1; returns (pd, kept edges, uncovered vertices)."""
    inside = set(part)
    kept = [e for e in H.edges if inside.issuperset(e)]
    ring = tuple(f"x{k}" for k in range(len(kept)))
    gens = [monomial_from_indices(ring, [k for k, e in enumerate(kept) if v in e])
            for v in part]
    uncovered = [v for v, m in zip(part, gens) if m.is_one()]
    return betti_table(make_ideal(ring, gens)).pd, kept, uncovered


def test_criterion_09_flagship_fixture(tmp_path):
    start = time.time()
    trace_path = tmp_path / "trace.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "hyperpd.cli", "pd",
         "--in", "fixtures/figure4.json", "--trace", str(trace_path)],
        capture_output=True, text=True,
    )
    elapsed = time.time() - start
    data = json.loads(proc.stdout)
    breakdown = sorted(c["pd"] for c in data["components"])

    with open("fixtures/figure4.json") as f:
        H = hypergraph_from_json_dict(json.load(f))

    # lower bound from the homology oracle alone, no reduction rule
    flat = sorted(v for part in FIG4_CERTIFICATE_PARTS for v in part)
    partition_ok = flat == sorted(H.vertices)
    bound = 0
    kept_ok = True
    covered_ok = True
    for part in FIG4_CERTIFICATE_PARTS:
        part_pd, kept, uncovered = _restricted_part_pd(H, part)
        bound += part_pd
        kept_ok = kept_ok and set(kept) <= set(H.edges)
        covered_ok = covered_ok and not uncovered
    certificate_ok = partition_ok and kept_ok and covered_ok and bound == 36

    preconditions_ok = check_preconditions(H).all_ok
    reduced, trace = full_reduce(H)
    replay_ok = replay_trace(H, ReductionTrace.from_jsonl(trace_path.read_text())) == reduced

    singles = [c for c in reduced.components() if c.mu == 1]
    singles_closed = all(c.is_closed(c.vertices[0]) for c in singles)
    cores = [c for c in reduced.components() if c.mu > 1]
    core_mu = [c.mu for c in cores]
    decomposition_ok = len(singles) == 27 and singles_closed and core_mu == [11]
    core_oracle = betti_table(ideal_from_hypergraph(cores[0])).pd if cores else None
    core_reported = [
        c["pd"] for c in data["components"] if len(c["vertices"]) > 1
    ]

    value_ok = data["pd"] == bound == 36
    breakdown_ok = breakdown == [1] * 27 + [core_oracle] and core_reported == [core_oracle]
    ok = (proc.returncode == 0 and value_ok and breakdown_ok and certificate_ok
          and replay_ok and preconditions_ok and decomposition_ok)
    _report(9, ok,
            f"pd {data['pd']}, oracle-only lower bound {bound} (want 36; "
            f"partition {partition_ok}, kept edges in fixture {kept_ok}, "
            f"all vertices covered {covered_ok}), breakdown tail {breakdown[-4:]}, "
            f"preconditions {preconditions_ok}, replay {replay_ok}, reduced to "
            f"{len(singles)} closed singletons + cores {core_mu} (want [11]) "
            f"with reported pd {core_reported} and oracle pd {core_oracle}",
            elapsed, budget=5)


def test_criterion_10_oracle_sanity():
    start = time.time()
    with open("fixtures/five_gen.json") as f:
        five = ideal_from_json_dict(json.load(f))
    with open("fixtures/union_demo.json") as f:
        eleven = ideal_from_json_dict(json.load(f))
    with open("fixtures/labeled_lattice.json") as f:
        labelled = coordinatize(*labeling_from_json_dict(json.load(f)))
    with open("fixtures/figure4.json") as f:
        big = hypergraph_from_json_dict(json.load(f))
    # the raw 43-vertex fixture exceeds the lattice cap, so the oracle
    # runs on its one non-trivial reduced component
    reduced, _ = full_reduce(big)
    core = [c for c in reduced.components() if c.mu > 1][0]
    ideals = {
        "five_gen": five,
        "union_demo": eleven,
        "labeled_lattice": labelled,
        "figure4_core": ideal_from_hypergraph(core),
    }
    report = []
    ok = True
    for name, I in ideals.items():
        two = betti_table(I, char=2).totals()
        three = betti_table(I, char=3).totals()
        euler = sum((-1) ** i * b for i, b in two.items()) == 0
        counts = two.get(1) == I.mu
        chars = two == three
        ok = ok and euler and counts and chars
        report.append(f"{name}: euler {euler}, beta1==mu {counts}, char2==char3 {chars}")
    _report(10, ok, "; ".join(report), time.time() - start)
