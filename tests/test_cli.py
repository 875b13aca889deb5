from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hyperpd import betti, cli, hypergraphs, lattices, reduction
from hyperpd.betti import OracleError, betti_table
from hyperpd.cli import build_parser, main
from hyperpd.hypergraphs import Hypergraph, classify_shape, dual_hypergraph
from hyperpd.ideals import ideal_from_json_dict, parse_ideal
from test_pd import _workloads

FIVE_GEN = "ab,bcg,cdg,de,efg"
# a 5-cycle whose fifth generator has a variable of its own, k: its
# dual is a cycle with one closed vertex, which only the oracle prices
CLOSED_CYCLE5 = "ab,bc,cd,de,eak"


def _run(*argv, stdin=None, env_extra=None, timeout=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "hyperpd.cli", *argv],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def _main(*argv):
    """In-process call: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def test_pd_json_output():
    proc = _run("pd", "--in", CLOSED_CYCLE5)
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["pd"] == 3
    assert data["method"] == "oracle"


def test_pd_text_output():
    proc = _run("pd", "--in", CLOSED_CYCLE5, "--output-format", "text")
    assert proc.stdout == "pd = 3 (oracle)\n"
    proc = _run("pd", "--in", FIVE_GEN, "--output-format", "text")
    assert proc.stdout == "pd = 4 (formula_forest)\n"


def test_pd_verify_flag():
    proc = _run("pd", "--in", FIVE_GEN, "--verify")
    data = json.loads(proc.stdout)
    assert data["verified"] is True
    assert data["oracle_pd"] == 4


def test_pd_verify_on_more_edges_than_the_ring_cap():
    # all 84 two- and three-subsets of 8 vertices: more edges than an
    # ideal's ring may have variables
    edges = [list(c) for k in (2, 3) for c in itertools.combinations(range(1, 9), k)]
    proc = _run("pd", "--in", json.dumps({"mu": 8, "edges": edges}), "--verify")
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert (data["pd"], data["oracle_pd"], data["verified"]) == (7, 7, True)


def test_pd_verify_on_figure4_stops_at_the_element_cap():
    """The lattice of figure 4's unreduced edges has more elements than
    the cap; `scripts/figure4_oracle.py` raises it and gets pd 36."""
    proc = _run("pd", "--in", "fixtures/figure4.json", "--verify")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert json.loads(proc.stderr) == {
        "error": "LatticeError",
        "message": f"lcm-lattice exceeds the {lattices.DEFAULT_ELEMENT_CAP}-element cap",
    }


# the path ideal x1*x2,...,x69*x70, in a ring of 70 variables
PATH70 = ",".join(f"x{i}*x{i + 1}" for i in range(1, 70))
# the 70-cycle's edge ideal, with y on its last generator alone
CLOSED_CYCLE70 = ",".join(f"x{i}*x{i % 70 + 1}" for i in range(1, 70)) + ",x70*x1*y"


def test_a_ring_of_70_variables_is_read_and_pd_stops_at_the_element_cap(monkeypatch, capsys):
    """The path's 69 generators are one string, priced as a forest. A
    70-cycle with a closed vertex goes to the oracle, whose walk stops
    at the element cap; lowered here, so the walk stops in milliseconds
    rather than seconds."""
    proc = _run("hypergraph", "--in", PATH70, "--output-format", "text")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("vertices: 69\n")
    monkeypatch.setattr(lattices, "DEFAULT_ELEMENT_CAP", 1000)
    assert main(["pd", "--in", PATH70]) == 0
    assert json.loads(capsys.readouterr().out)["pd"] == 46
    assert main(["pd", "--in", CLOSED_CYCLE70]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "PdError"
    assert error["message"] == (
        f"component {list(range(1, 71))} needs the oracle but "
        "lcm-lattice exceeds the 1000-element cap"
    )


@pytest.mark.parametrize("name,n", [("P", 24), ("C", 24), ("P", 25)])
def test_pd_answers_paths_and_cycles_on_24_and_25_vertices(monkeypatch, name, n):
    """The tops of C24 and P25 have 24 atoms, 2^24 candidate faces, over
    the chain cap; but the oracle that `--verify` runs settles them
    without a complex, so the cap never judges them."""
    workloads = _workloads(monkeypatch)
    edges = workloads.path_edges(n) if name == "P" else workloads.cycle_edges(n)
    text = ",".join(f"x{a}*x{b}" for a, b in edges)
    want = workloads.path_pd(n) if name == "P" else workloads.cycle_pd(n)
    code, out = _main("pd", "--in", text, "--verify")
    data = json.loads(out)
    assert (code, data["pd"], data["oracle_pd"]) == (0, want, want)


@pytest.mark.parametrize("command", list(cli._SUBCOMMANDS))
def test_only_graph_valued_commands_offer_dot(command):
    code, out = _main(command, "--help")
    assert code == 0
    assert ("dot" in out) == (command in ("hypergraph", "lattice", "reduce"))


def test_pd_on_fixture_path():
    proc = _run("pd", "--in", "fixtures/figure4.json")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["pd"] == 36
    assert len(data["components"]) == 28


def test_pd_trace_file(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    proc = _run("pd", "--in", FIVE_GEN, "--trace", str(trace_path))
    assert proc.returncode == 0
    lines = trace_path.read_text().strip().splitlines()
    assert len(lines) == 1
    step = json.loads(lines[0])
    assert step["rule"] == "union_edge_removed"
    assert step["edge"] == [2, 3, 5]


def _fixture_hypergraph(name: str) -> dict:
    """A fixture as hypergraph JSON on the vertices 1..mu."""
    with open(f"fixtures/{name}.json") as fh:
        data = json.load(fh)
    if "generators" in data:
        data = dual_hypergraph(ideal_from_json_dict(data)).to_json_dict()
    return data


def _spread_ids(mu: int, seed: int) -> list[int]:
    """An increasing injection of 1..mu into [-10^9, 10^9] that takes a
    negative id, 0 and 10^9."""
    rng = random.Random(seed)
    ids = {-rng.randint(1, 10**9), 0, 10**9}
    while len(ids) < mu:
        ids.add(rng.randint(-10**9, 10**9))
    return sorted(ids)


def _traced(tmp_path, *argv):
    """In-process call with --trace: (exit code, parsed stdout, trace steps)."""
    trace = tmp_path / "trace.jsonl"
    code, out = _main(*argv, "--trace", str(trace))
    return code, json.loads(out), [json.loads(line) for line in trace.read_text().splitlines()]


# order-preserving maps only: the joint sweep runs in ascending vertex order
@pytest.mark.parametrize("spread", [False, True], ids=["minus3", "spread"])
@pytest.mark.parametrize("name", ["union_demo", "five_gen", "figure4"])
def test_vertex_labels_of_any_sign_and_size_only_rename(tmp_path, name, spread):
    plain = _fixture_hypergraph(name)
    mu = plain["mu"]
    ids = _spread_ids(mu, 21) if spread else [v - 3 for v in range(1, mu + 1)]
    back = dict(zip(ids, range(1, mu + 1)))
    labelled = json.dumps({**plain, "vertex_labels": ids})
    for command in ("pd", "reduce"):
        code, want, want_trace = _traced(tmp_path, command, "--in", json.dumps(plain))
        code_l, got, trace = _traced(tmp_path, command, "--in", labelled)
        assert code == code_l == 0
        for step in trace:
            if "edge" in step:
                step["edge"] = [back[v] for v in step["edge"]]
            if "vertex" in step:
                step["vertex"] = back[step["vertex"]]
        assert trace == want_trace
        if command == "pd":
            for comp in got.get("components", []):
                comp["vertices"] = [back[v] for v in comp["vertices"]]
        else:
            vertices = [back[v] for v in got.pop("vertex_labels")]
            assert vertices == want.pop("vertex_labels", list(range(1, got["mu"] + 1)))
        assert got == want


def test_stdin_input():
    proc = _run("pd", "--in", "-", stdin="ab,bc")
    assert json.loads(proc.stdout)["pd"] == 2


def test_out_file_matches_stdout(tmp_path):
    out_path = tmp_path / "result.json"
    to_file = _run("pd", "--in", FIVE_GEN, "--out", str(out_path))
    to_stdout = _run("pd", "--in", FIVE_GEN)
    assert to_file.stdout == ""
    assert out_path.read_text() == to_stdout.stdout


def test_output_is_deterministic():
    first = _run("lattice", "--in", FIVE_GEN)
    second = _run("lattice", "--in", FIVE_GEN)
    assert first.stdout == second.stdout


def test_hypergraph_text_and_dot():
    text = _run("hypergraph", "--in", FIVE_GEN, "--output-format", "text")
    assert "vertices: 5" in text.stdout
    assert "separated: True" in text.stdout
    assert "shape: bush" in text.stdout
    dot = _run("hypergraph", "--in", FIVE_GEN, "--output-format", "dot")
    assert dot.returncode == 0
    assert dot.stdout.startswith("graph")


def test_lattice_text_output():
    proc = _run("lattice", "--in", FIVE_GEN, "--output-format", "text")
    assert proc.stdout == "atoms: 5\nelements: 21\n"


def test_lattice_accepts_lattice_json():
    proc = _run("lattice", "--in", "fixtures/labeled_lattice.json",
                "--output-format", "text")
    assert proc.stdout == "atoms: 4\nelements: 8\n"


def test_reduce_text_output():
    proc = _run("reduce", "--in", FIVE_GEN, "--output-format", "text")
    assert proc.stdout == (
        "vertices: 5\n"
        "edges: [1] [1, 2] [2, 3] [3, 4] [4, 5] [5]\n"
        "steps: 1\n"
    )


def test_reduce_strict_failure_exits_one():
    H = json.dumps({"mu": 4, "edges": [[1, 2], [3, 4], [1, 2, 3]]})
    proc = _run("reduce", "--in", H, "--strict")
    assert proc.returncode == 1
    assert proc.stdout == ""
    err = json.loads(proc.stderr)
    assert err["error"] == "ReductionError"
    assert "not a union" in err["message"]


def test_betti_text_output():
    proc = _run("betti", "--in", FIVE_GEN, "--output-format", "text")
    assert proc.stdout == "total Betti numbers: 1 5 7 4 1 (pd 4, char 2)\n"


def test_betti_entries_flag():
    plain = json.loads(_run("betti", "--in", FIVE_GEN).stdout)
    full = json.loads(_run("betti", "--in", FIVE_GEN, "--entries").stdout)
    assert "entries" not in plain
    assert full["entries"]


def test_betti_field_char_flag_and_env():
    flag = _run("betti", "--in", FIVE_GEN, "--field-char", "3",
                "--output-format", "text")
    assert "char 3" in flag.stdout
    # the flag is the only source: the variable that once set the
    # characteristic is ignored
    env = _run("betti", "--in", FIVE_GEN, "--output-format", "text",
               env_extra={"HYPERPD_FIELD_CHAR": "5"})
    assert "char 2" in env.stdout


def test_betti_rejects_nonprime_char():
    proc = _run("betti", "--in", "ab", "--field-char", "4")
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "OracleError"


def test_betti_refuses_labeled_lattice():
    proc = _run("betti", "--in", "fixtures/labeled_lattice.json")
    assert proc.returncode == 2


def test_betti_on_a_hypergraph_with_more_edges_than_the_ring_cap():
    # 84 edges, one variable each, but a lattice of 248 elements
    edges = [list(c) for k in (2, 3) for c in itertools.combinations(range(1, 9), k)]
    text = json.dumps({"mu": 8, "edges": edges})
    proc = _run("betti", "--in", text, "--output-format", "text")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "total Betti numbers: 1 8 28 56 70 56 28 7 (pd 7, char 2)\n"
    assert json.loads(_run("pd", "--in", text).stdout)["pd"] == 7


@pytest.mark.parametrize("source", [
    FIVE_GEN, "fixtures/figure4.json", '{"atoms":1,"elements":[[],[1]]}',
])
def test_betti_dot_is_refused_before_any_lattice(monkeypatch, source):
    def refuse(*args, **kwargs):
        raise AssertionError("a lattice was built")

    for name in ("lattice_from_hypergraph", "betti_table", "betti_table_from_lattice",
                 "betti_table_of_edges"):
        monkeypatch.setattr(cli, name, refuse)
    assert _main("betti", "--in", source, "--output-format", "dot") == (2, "")


# K7's edge ideal, in the order `scripts/dump_outputs.py` draws at seed
# 3: the split of its 21-atom top collides, first at an instance of 12
# atoms, which builds its own complex
K7_SEED3 = (
    "x5*x3,x0*x2,x0*x3,x1*x3,x2*x5,x0*x5,x2*x4,x2*x6,x6*x3,x1*x4,x1*x6,"
    "x2*x1,x2*x3,x5*x4,x6*x4,x5*x6,x4*x3,x0*x1,x0*x6,x1*x5,x0*x4"
)


def _betti_sources(I) -> list[str]:
    """I as ideal text, hypergraph JSON and lattice JSON."""
    return [
        I.to_text(),
        json.dumps(dual_hypergraph(I).to_json_dict()),
        json.dumps(lattices.lcm_lattice(I).to_json_dict()),
    ]


def test_betti_names_either_cap_alike_from_every_input_form(monkeypatch, capsys):
    """`betti` stops at the chain cap when it would build a complex over
    it, and at the element cap when its walk builds one element too
    many: on ideal text, hypergraph JSON and lattice JSON alike."""
    I = parse_ideal(K7_SEED3)
    monkeypatch.setattr(betti, "DEFAULT_CHAIN_CAP", 15)
    message = "crosscut complex on 12 atoms has 4096 candidate faces, which exceeds the cap of 15"
    with pytest.raises(OracleError) as err:
        betti_table(I)
    assert str(err.value) == message
    for source in _betti_sources(I):
        assert main(["betti", "--in", source]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error == {"error": "OracleError", "message": message}
    monkeypatch.setattr(betti, "DEFAULT_CHAIN_CAP", 1 << 21)
    assert betti_table(I).pd == 6

    I = parse_ideal("ab,bc,cd,de,ef,fg,gh,hi")
    size = len(lattices.lcm_lattice(I)) - 1  # above the bottom, the top included
    sources = _betti_sources(I)
    monkeypatch.setattr(lattices, "DEFAULT_ELEMENT_CAP", size - 1)
    with pytest.raises(lattices.LatticeError, match=f"exceeds the {size - 1}-element cap"):
        betti_table(I)
    for source in sources:
        assert main(["betti", "--in", source]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "LatticeError"
        assert error["message"].endswith(f"exceeds the {size - 1}-element cap")
    monkeypatch.setattr(lattices, "DEFAULT_ELEMENT_CAP", size)
    assert betti_table(I).pd == 6


# the 24 products of all but one of y0, ..., y23
ALL_BUT_ONE = ",".join("*".join(f"y{j}" for j in range(24) if j != i) for i in range(24))


def test_betti_answers_an_element_on_24_atoms_that_builds_no_complex():
    """The top of these 24 generators has 24 atoms, 2^24 candidate
    faces, but the peel settles it without a complex."""
    assert _main("betti", "--in", ALL_BUT_ONE, "--output-format", "text") == (
        0, "total Betti numbers: 1 24 23 (pd 2, char 2)\n"
    )


def test_coordinatize_labeled_lattice():
    text = _run("coordinatize", "--in", "fixtures/labeled_lattice.json",
                "--output-format", "text")
    assert text.stdout == "bcd, abc, a^2*c, a^2*b\n"
    data = json.loads(_run("coordinatize", "--in", "fixtures/labeled_lattice.json").stdout)
    assert set(data) == {"ideal", "text", "labeling"}


@pytest.mark.parametrize("argv", [
    ("betti", "--in", "aa,b"),
    ("lattice", "--in", "a*a*b,b*c"),
    ("betti", "--in", "a^1*a,b"),
    ("pd", "--in", "aa"),
], ids=" ".join)
def test_a_repeated_variable_is_not_square_free(argv):
    proc = _run(*argv)
    assert (proc.returncode, proc.stdout) == (1, "")
    word = argv[2].split(",")[0]
    assert json.loads(proc.stderr) == {
        "error": "IdealError",
        "message": f"exponent 2 on 'a' in {word!r}: input ideals must be square-free",
    }


def test_a_repeated_label_variable_is_its_power():
    with open("fixtures/labeled_lattice.json") as fh:
        data = json.load(fh)
    out = {}
    for word in ("b*b", "b^2"):
        data["labels"]["[3]"] = word
        proc = _run("coordinatize", "--in", json.dumps(data), "--output-format", "text")
        out[word] = (proc.returncode, proc.stdout)
    assert out["b*b"] == out["b^2"] == (0, "b^2*c*d, a*b^2*c, a^2*c, a^2*b^2\n")


def test_coordinatize_needs_labels():
    bare = json.dumps({"atoms": 2, "elements": [[], [1], [2], [1, 2]]})
    proc = _run("coordinatize", "--in", bare)
    assert proc.returncode == 2


def test_check_on_ideal():
    proc = _run("check", "--in", FIVE_GEN, "--output-format", "text")
    assert "ready: True" in proc.stdout
    assert "remark22: True" in proc.stdout


def test_check_on_figure4_skips_oversized_lattice():
    data = json.loads(_run("check", "--in", "fixtures/figure4.json").stdout)
    assert data["ready"] is True
    assert data["remark22"] is None
    assert "cap" in data["remark22_note"]


def test_check_on_lattice_input():
    data = json.loads(_run("check", "--in", "fixtures/labeled_lattice.json").stdout)
    assert data == {"elements": 8, "remark22": True}


# one failing component per gate, ids shifted by 0, 10 and 20
ALL_GATES_FAIL = json.dumps(Hypergraph([
    (1, 2), (1, 3), (1, 4), (4, 5), (5, 6), (2,), (3,), (6,),
    (11, 12), (11, 13), (11, 14), (15, 16), (15, 17), (15, 18), (11, 15),
    (12,), (13,), (14,), (16,), (17,), (18,), (12, 14, 16),
    (21,), (22,), (21, 22),
]).to_json_dict())
ALL_GATES_WITNESSES = {
    "bush": "component [1, 2, 3, 4, 5, 6] has kind other",
    "higher_edges_same_joint": "edge [12, 14, 16] meets branches of joints [11, 15]",
    "no_connected_closed": "pair edge [21, 22] joins two closed vertices",
}


def test_check_names_a_witness_for_every_failed_gate():
    code, out = _main("check", "--in", ALL_GATES_FAIL, "--output-format", "text")
    assert code == 0
    assert out.splitlines() == [
        "ready: False",
        "separated: True",
        *(f"{gate}: FAIL ({witness})" for gate, witness in ALL_GATES_WITNESSES.items()),
        "remark22: True",
    ]
    code, out = _main("check", "--in", ALL_GATES_FAIL)
    assert code == 0
    assert json.loads(out)["preconditions"] == {
        "bush": False,
        "higher_edges_same_joint": False,
        "no_connected_closed": False,
        "witnesses": ALL_GATES_WITNESSES,
    }


# two 2-stars and an isolated closed vertex
THREE_COMPONENTS = json.dumps(Hypergraph([
    (1, 2), (1, 3), (1, 4), (2,), (3,), (4,),
    (11, 12), (11, 13), (11, 14), (12,), (13,), (14,),
    (21,),
]).to_json_dict())


def test_check_splits_once_and_classifies_each_component_once(monkeypatch):
    calls = {"components": 0, "classify_shape": 0}
    split = Hypergraph.components

    def counted_split(H):
        calls["components"] += 1
        return split(H)

    def counted_classify(H):
        calls["classify_shape"] += 1
        return classify_shape(H)

    monkeypatch.setattr(Hypergraph, "components", counted_split)
    for module in (cli, reduction, hypergraphs):
        monkeypatch.setattr(module, "classify_shape", counted_classify)
    code, out = _main("check", "--in", THREE_COMPONENTS)
    assert code == 0
    assert calls == {"components": 1, "classify_shape": 3}
    assert json.loads(out)["components"] == [
        {"vertices": [1, 2, 3, 4], "kind": "two_star"},
        {"vertices": [11, 12, 13, 14], "kind": "two_star"},
        {"vertices": [21], "kind": "string"},
    ]


def test_check_and_coordinatize_read_no_upper_covers(monkeypatch):
    """Meet-irreducibles come from the union test on the edges, so
    `check` and `coordinatize` never list covers."""
    def refuse(L):
        raise AssertionError("upper_covers called")

    monkeypatch.setattr(cli.SetFamilyLattice, "upper_covers", refuse)
    assert _main("check", "--in", ALL_GATES_FAIL)[0] == 0
    # the dual hypergraph of the path x1x2, ..., x16x17, labeled by variable
    path = ",".join(f"x{i}*x{i + 1}" for i in range(1, 17))
    code, hypergraph = _main("hypergraph", "--in", path)
    assert code == 0 and json.loads(hypergraph)["labels"]
    assert _main("coordinatize", "--in", hypergraph)[0] == 0
    code, lattice = _main("lattice", "--in", FIVE_GEN)
    assert code == 0 and json.loads(_main("check", "--in", lattice)[1])["remark22"]


def test_format_sniffing():
    as_json = json.dumps({"variables": ["a", "b", "c"], "generators": [[0, 1], [1, 2]]})
    sniffed = _run("pd", "--in", as_json)
    assert json.loads(sniffed.stdout)["pd"] == 2
    forced = _run("pd", "--in", "ab,bc", "--input-format", "ideal-text")
    assert json.loads(forced.stdout)["pd"] == 2


def test_bad_json_exits_one():
    proc = _run("pd", "--in", "{broken")
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "JSONDecodeError"


def test_parse_error_exits_one():
    proc = _run("pd", "--in", "ab,,cd")
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "IdealError"


@pytest.mark.parametrize("text,error", [
    ('{"mu":2,"edges":[[3]]}', "HypergraphError"),
    ('{"mu":1,"edges":[["a"]]}', "HypergraphError"),
    ('{"mu":2,"edges":[[1,2]],"labels":{"[3]":["a"]}}', "HypergraphError"),
    ('{"mu":2,"edges":[[1,2]],"vertex_labels":["a","b"]}', "HypergraphError"),
    ('{"variables":["a"],"generators":[[5]]}', "IdealError"),
    ('{"variables":["a"],"generators":[[-1]]}', "IdealError"),
    ('{"variables":"ab","generators":[[0,1]]}', "IdealError"),
    ('{"variables":{"a":1,"b":2},"generators":[[0],[1]]}', "IdealError"),
    ('{"atoms":1,"elements":[[],[1]],"labels":{"[1":"a"}}', "LatticeError"),
    ('{"atoms":1,"elements":[[],["a"]]}', "LatticeError"),
])
def test_malformed_input_exits_one_with_json(text, error):
    proc = _run("lattice", "--in", text)
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == error


@pytest.mark.parametrize("labels", [[], None, False, 0, ""])
@pytest.mark.parametrize("command,data,message", [
    ("hypergraph", {"mu": 2, "edges": [[1, 2]]},
     "hypergraph JSON labels must map edge keys to names"),
    ("lattice", {"atoms": 1, "elements": [[], [1]]},
     "lattice JSON labels must map element keys to monomials"),
])
def test_present_labels_must_be_an_object(command, data, message, labels):
    # only an absent `labels` means no labels; a falsy non-object is refused
    proc = _run(command, "--in", json.dumps({**data, "labels": labels}))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert json.loads(proc.stderr)["message"] == message


def test_json_errors_name_the_position_in_the_input_as_given(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('\n\n  {"mu": 2, "edges": [[1,2],]}')
    sniffed = _run("pd", "--in", str(path))
    forced = _run("pd", "--in", str(path), "--input-format", "hypergraph-json")
    assert sniffed.returncode == forced.returncode == 1
    assert sniffed.stderr == forced.stderr
    assert json.loads(sniffed.stderr) == {
        "error": "JSONDecodeError",
        "message": "Expecting value: line 3 column 29 (char 30)",
    }


@pytest.mark.parametrize("argv", [
    ("pd", "--in", "ab,bc", "--field-char", "4"),
    ("pd", "--in", "ab,bc,cd,de", "--field-char", "4"),
    ("betti", "--in", "ab", "--field-char", "1"),
], ids=" ".join)
def test_field_char_must_be_prime_even_without_the_oracle(argv):
    # the string ab,bc is priced by a formula, so no oracle call would
    # otherwise notice the characteristic
    proc = _run(*argv)
    assert proc.returncode == 1
    assert json.loads(proc.stderr) == {
        "error": "OracleError",
        "message": f"{argv[-1]} is not a prime characteristic",
    }


def test_field_char_over_the_cap_is_refused_before_trial_division():
    # 2**61 - 1 is prime; proving it by trial division takes 1.5e9 steps
    proc = _run("pd", "--in", "ab,bc", "--field-char", "2305843009213693951", timeout=30)
    assert proc.returncode == 1
    assert json.loads(proc.stderr) == {
        "error": "OracleError",
        "message": "characteristic 2305843009213693951 exceeds the cap of 2147483647",
    }


def test_label_exponent_over_the_cap_is_refused():
    data = {"atoms": 1, "elements": [[], [1]], "labels": {"[]": "a^3000000"}}
    proc = _run("coordinatize", "--in", json.dumps(data))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert json.loads(proc.stderr) == {
        "error": "IdealError",
        "message": "exponent 3000000 in 'a^3000000' at position 0 exceeds the cap of 1000",
    }


THREE_ATOMS = {"atoms": 3, "elements": [[], [1], [2], [3], [1, 2, 3]]}


@pytest.mark.parametrize("command", ["lattice", "check", "coordinatize"])
@pytest.mark.parametrize("data,message", [
    ({"atoms": 1, "elements": [[], [1]], "labels": {"[5]": "a"}},
     "label on non-element (5,)"),
    ({"atoms": 1, "elements": [[], [1]], "labels": {"[1]": "a", "[100000]": "b"}},
     "label on non-element (100000,)"),
    ({**THREE_ATOMS, "labels": {"[1]": "a", "[2]": "b", "[3]": "c", "[1,2]": "d"}},
     "label on non-element (1, 2)"),
    ({"atoms": 2, "elements": [[], [1], [2], [1, 2]],
      "labels": {"[1]": "a", "[2]": "b", "[2, 2]": "c"}},
     "label keys '[2]' and '[2, 2]' both name element (2,)"),
], ids=["above-atoms", "far-above-atoms", "no-element", "two-keys"])
def test_each_label_key_names_its_own_element(command, data, message):
    # refused by the reader, so every command that reads labels refuses it
    proc = _run(command, "--in", json.dumps(data))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert json.loads(proc.stderr) == {"error": "LatticeError", "message": message}


@pytest.mark.parametrize("command", ["hypergraph", "lattice", "reduce", "coordinatize", "check"])
def test_field_char_is_offered_only_where_it_is_read(command):
    proc = _run(command, "--in", "ab,bc", "--field-char", "3")
    assert proc.returncode == 2
    assert "unrecognized arguments: --field-char 3" in proc.stderr


_ATOM = st.one_of(
    st.integers(-1, 4), st.none(), st.booleans(), st.sampled_from(["a", "[1]", "["])
)
_VALUE = st.one_of(
    _ATOM,
    st.lists(st.one_of(_ATOM, st.lists(_ATOM, max_size=3)), max_size=4),
    st.dictionaries(st.sampled_from(["[1]", "[1,2]", "[", "5"]), _ATOM, max_size=2),
)
_DOCUMENT = st.dictionaries(
    st.sampled_from(
        ["mu", "edges", "vertex_labels", "labels", "variables", "generators", "atoms", "elements"]
    ),
    _VALUE,
    min_size=1,
    max_size=4,
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    _DOCUMENT,
    st.sampled_from(["pd", "hypergraph", "reduce", "lattice", "betti", "check", "coordinatize"]),
    st.sampled_from([None, "ideal-json", "hypergraph-json", "lattice-json"]),
)
def test_fuzzed_json_never_ends_in_a_traceback(document, command, fmt):
    argv = [command, "--in", json.dumps(document)]
    if fmt:
        argv += ["--input-format", fmt]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    if code == 1:
        assert "error" in json.loads(err.getvalue())


@pytest.mark.parametrize("argv", [
    ("pd", "--in", "ab", "--output-format", "dot"),
    ("betti", "--in", "ab", "--output-format", "dot"),
    ("check", "--in", "ab", "--output-format", "dot"),
])
def test_dot_refused_where_meaningless(argv):
    proc = _run(*argv)
    assert proc.returncode == 2


def test_pd_dot_is_refused_before_the_engine_runs(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    code, out = _main("pd", "--in", FIVE_GEN, "--output-format", "dot",
                      "--trace", str(trace_path))
    assert (code, out) == (2, "")
    assert not trace_path.exists()


def test_missing_subcommand_exits_two():
    proc = _run()
    assert proc.returncode == 2


def test_cli_import_does_not_load_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, hyperpd.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("text,vertex", [
    ('{"mu":2,"edges":[[1]]}', 2),
    ('{"mu":8000,"edges":[[1]]}', 2),
    ('{"mu":1000000000000,"edges":[[1]]}', 2),
    ('{"mu":3,"edges":[[1,3]],"vertex_labels":[7,8,9]}', 8),
])
def test_vertex_in_no_edge_exits_one(text, vertex):
    for argv in (("pd", "--in", text), ("pd", "--in", text, "--verify")):
        proc = _run(*argv)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert json.loads(proc.stderr) == {
            "error": "HypergraphError",
            "message": f"vertex {vertex} lies in no edge",
        }


@pytest.mark.parametrize("spelling", ["[1, 2]", "[2,1]", " [ 2 , 1 ] "])
def test_label_keys_naming_one_edge_merge_their_names(spelling):
    data = {"mu": 3, "edges": [[1, 2], [2, 3]],
            "labels": {"[1,2]": ["a"], spelling: ["b"], "[2,3]": ["c"]}}
    code, out = _main("hypergraph", "--in", json.dumps(data))
    assert code == 0
    assert json.loads(out)["labels"] == {"[1,2]": ["a", "b"], "[2,3]": ["c"]}


@pytest.mark.parametrize("command", ["hypergraph", "reduce"])
def test_dot_escapes_quotes_and_backslashes_in_labels(command):
    # a label with a quote or a backslash must not end the DOT string;
    # reduce keeps both edges: 2 is not closed and {1, 3, 4} is no union
    data = {"mu": 4, "edges": [[1, 2], [2, 3], [1], [3], [1, 3, 4]],
            "labels": {"[1,2]": ['a"b'], "[1,3,4]": ["c\\d"]}}
    proc = _run(command, "--in", json.dumps(data), "--output-format", "dot")
    assert proc.returncode == 0
    assert '  1 -- 2 [label="a\\"b"];' in proc.stdout.splitlines()
    assert '  he0 [shape=box, style=dashed, label="c\\\\d"];' in proc.stdout.splitlines()


def test_duplicate_vertex_labels_exit_one():
    # a repeated label would leave label 8 in no edge, to be priced as pd 1
    proc = _run("pd", "--in", '{"mu":2,"edges":[[1,2]],"vertex_labels":[7,7,8]}')
    assert proc.returncode == 1
    assert json.loads(proc.stderr) == {
        "error": "HypergraphError",
        "message": "vertex_labels must be distinct",
    }


def test_unclosed_lattice_json_above_2048_elements_exits_one(tmp_path):
    elements = [list(c) for k in range(13) for c in itertools.combinations(range(1, 13), k)
                if c != (1, 2)]
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps({"atoms": 12, "elements": elements}))
    proc = _run("lattice", "--in", str(path), "--output-format", "text")
    assert proc.returncode == 1
    assert json.loads(proc.stderr) == {
        "error": "LatticeError",
        "message": "not intersection-closed: (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11) and (1, 2, 12)",
    }
    # the named pair is a real witness: both are elements, their meet is not
    assert list(range(1, 12)) in elements and [1, 2, 12] in elements
    assert [1, 2] not in elements


def test_pd_refuses_a_hypergraph_that_no_ideal_has():
    for argv in (("pd",), ("pd", "--verify")):
        proc = _run(*argv, "--in", '{"mu":2,"edges":[[1,2]]}')
        assert (proc.returncode, proc.stdout) == (1, "")
        assert json.loads(proc.stderr) == {
            "error": "PdError",
            "message": "no ideal has this hypergraph: every edge through vertex 1 holds vertex 2",
        }


@pytest.mark.parametrize("flag", ["--out", "--trace"])
def test_unwritable_output_exits_one(tmp_path, flag):
    path = tmp_path / "missing" / "out"
    proc = _run("pd", "--in", "ab,bc", flag, str(path))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert json.loads(proc.stderr) == {
        "error": "FileNotFoundError",
        "message": f"[Errno 2] No such file or directory: '{path}'",
    }


def test_undecodable_input_file_exits_one(tmp_path):
    path = tmp_path / "binary"
    path.write_bytes(b"\x7fELF\xff\xfe")
    proc = _run("pd", "--in", str(path))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert json.loads(proc.stderr)["error"] == "UnicodeDecodeError"


@pytest.mark.parametrize("command,text,error", [
    ("pd", '{"mu":2.7,"edges":[[1],[1,2]]}', "HypergraphError"),
    ("pd", '{"mu":"2","edges":[[1],[1,2]]}', "HypergraphError"),
    ("pd", '{"mu":2,"edges":[[1],[true,2]]}', "HypergraphError"),
    ("lattice", '{"atoms":true,"elements":[[],[1]]}', "LatticeError"),
    ("lattice", '{"atoms":1.0,"elements":[[],[1]]}', "LatticeError"),
    ("lattice", '{"variables":["a","b"],"generators":[[true]]}', "IdealError"),
])
def test_json_sizes_and_indices_must_be_integers(command, text, error):
    proc = _run(command, "--in", text)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert json.loads(proc.stderr)["error"] == error


@pytest.mark.parametrize("command", ["pd", "hypergraph", "reduce", "check"])
@pytest.mark.parametrize("mu", [-1, 0])
def test_hypergraph_json_needs_a_vertex(command, mu):
    proc = _run(command, "--in", json.dumps({"mu": mu, "edges": []}))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert json.loads(proc.stderr) == {
        "error": "HypergraphError",
        "message": f"hypergraph JSON mu must be at least 1, got {mu}",
    }


COMMANDS = ["pd", "hypergraph", "lattice", "reduce", "betti", "coordinatize", "check"]
BARE_LATTICE = '{"atoms":1,"elements":[[],[1]]}'
LABELED_LATTICE = '{"atoms":1,"elements":[[],[1]],"labels":{"[1]":"a"}}'
# one call per command that ends in a UsageError
USAGE_ERRORS = [
    ("pd", "--in", "ab", "--output-format", "dot"),
    ("hypergraph", "--in", BARE_LATTICE),
    ("lattice", "--in", '{"neither": 1}'),
    ("reduce", "--in", BARE_LATTICE),
    ("betti", "--in", LABELED_LATTICE),
    ("coordinatize", "--in", BARE_LATTICE),
    ("check", "--in", "ab", "--output-format", "dot"),
]


def _outcome(argv):
    """In-process call: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    ("-h",),
    *[(command, "-h") for command in COMMANDS],
    ("nope", "--in", "ab"),
    (),
    ("pd",),
    ("lattice", "--output-format", "text"),
    ("pd", "--in", "ab", "--bogus"),
    ("hypergraph", "--in", "ab", "--field-char", "3"),
    ("pd", "--in", "ab", "stray"),
    ("betti", "--in", "ab", "--output-format", "xml"),
    *USAGE_ERRORS,
], ids=repr)
def test_one_subcommand_parser_answers_like_the_full_parser(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    narrow = _outcome(argv)
    assert narrow[0] in (0, 2)
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert _outcome(argv) == narrow


@pytest.mark.parametrize("argv", [*USAGE_ERRORS, ("pd", "--in", "ab", "stray")], ids=repr)
def test_each_call_builds_one_parser(monkeypatch, argv):
    built = []
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command) or full(command))
    assert _outcome(argv)[0] == 2
    assert built == [argv[0]]


def _subcommands(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(action.choices)


def test_a_subcommand_parser_holds_that_subcommand_alone():
    usage = build_parser().format_usage()
    assert "{" + ",".join(COMMANDS) + "}" in usage
    assert _subcommands(build_parser()) == COMMANDS
    for command in COMMANDS:
        assert build_parser(command).format_usage() == usage
        assert _subcommands(build_parser(command)) == [command]


@pytest.mark.parametrize("command", ["pd", "hypergraph", "reduce", "check"])
@pytest.mark.parametrize("text", ["1", "a,1", '{"variables": ["a"], "generators": [[]]}'])
def test_unit_ideal_has_no_hypergraph(command, text):
    proc = _run(command, "--in", text)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert json.loads(proc.stderr) == {
        "error": "HypergraphError",
        "message": "the unit ideal has no hypergraph",
    }
