from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hyperpd.cli import main

FIVE_GEN = "ab,bcg,cdg,de,efg"


def _run(*argv, stdin=None, env_extra=None):
    env = dict(os.environ)
    env.pop("HYPERPD_FIELD_CHAR", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "hyperpd.cli", *argv],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
    )


def test_pd_json_output():
    proc = _run("pd", "--in", FIVE_GEN)
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["pd"] == 4
    assert data["method"] == "oracle"


def test_pd_text_output():
    proc = _run("pd", "--in", FIVE_GEN, "--output-format", "text")
    assert proc.stdout == "pd = 4 (oracle)\n"


def test_pd_verify_flag():
    proc = _run("pd", "--in", FIVE_GEN, "--verify")
    data = json.loads(proc.stdout)
    assert data["verified"] is True
    assert data["oracle_pd"] == 4


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
    env = _run("betti", "--in", FIVE_GEN, "--output-format", "text",
               env_extra={"HYPERPD_FIELD_CHAR": "5"})
    assert "char 5" in env.stdout
    # the explicit flag wins over the environment
    both = _run("betti", "--in", FIVE_GEN, "--field-char", "3",
                "--output-format", "text",
                env_extra={"HYPERPD_FIELD_CHAR": "5"})
    assert "char 3" in both.stdout


def test_betti_rejects_nonprime_char():
    proc = _run("betti", "--in", "ab", "--field-char", "4")
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "OracleError"


def test_betti_refuses_labeled_lattice():
    proc = _run("betti", "--in", "fixtures/labeled_lattice.json")
    assert proc.returncode == 2


def test_coordinatize_labeled_lattice():
    text = _run("coordinatize", "--in", "fixtures/labeled_lattice.json",
                "--output-format", "text")
    assert text.stdout == "bcd, abc, a^2*c, a^2*b\n"
    data = json.loads(_run("coordinatize", "--in", "fixtures/labeled_lattice.json").stdout)
    assert set(data) == {"ideal", "text", "labeling"}


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
    ('{"atoms":1,"elements":[[],[1]],"labels":{"[1":"a"}}', "LatticeError"),
    ('{"atoms":1,"elements":[[],["a"]]}', "LatticeError"),
])
def test_malformed_input_exits_one_with_json(text, error):
    proc = _run("lattice", "--in", text)
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == error


def test_bad_field_char_env_exits_one():
    proc = _run("pd", "--in", "ab,bc", env_extra={"HYPERPD_FIELD_CHAR": "x"})
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "OracleError"


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
    st.sampled_from(["pd", "lattice", "betti", "check", "coordinatize"]),
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


def test_missing_subcommand_exits_two():
    proc = _run()
    assert proc.returncode == 2
