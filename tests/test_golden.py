"""Golden outputs of the command line on every shipped fixture.

Each call runs `hyperpd.cli.main` in-process from the repository root
and records its exit code, stdout, stderr and, where the call writes
one, its `--trace` file. `tests/golden_cli.json` holds the recorded
outputs; any change to what the CLI prints fails here.

To rewrite the golden file after a deliberate output change, run from
the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from hyperpd.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden_cli.json"
FIXTURES = ("figure4", "five_gen", "labeled_lattice", "union_demo")
COMMANDS = ("pd", "reduce", "check", "hypergraph", "lattice", "betti", "coordinatize")
FORMATS = ("json", "dot", "text")
EXTRA = (
    ("pd", "--verify"),
    ("pd", "--field-char", "3"),
    ("reduce", "--strict"),
    ("betti", "--entries"),
    ("betti", "--field-char", "3"),
)
TRACED = ("pd", "reduce")


def calls() -> list[tuple[str, ...]]:
    out = []
    for name in FIXTURES:
        source = ("--in", f"fixtures/{name}.json")
        for command in COMMANDS:
            for fmt in FORMATS:
                out.append((command, *source, "--output-format", fmt))
        for command, *flags in EXTRA:
            out.append((command, *source, *flags))
    return out


def run_call(argv: tuple[str, ...]) -> dict:
    """Exit code, stdout, stderr and trace text of one in-process call."""
    with tempfile.TemporaryDirectory() as tmp:
        trace = os.path.join(tmp, "trace.jsonl")
        full = list(argv) + (["--trace", trace] if argv[0] in TRACED else [])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(full)
            except SystemExit as exc:
                code = exc.code
        record = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
        if os.path.exists(trace):
            with open(trace) as fh:
                record["trace"] = fh.read()
    return record


def record_all() -> dict[str, dict]:
    return {" ".join(argv): run_call(argv) for argv in calls()}


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def test_golden_file_lists_every_call():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(" ".join(argv) for argv in calls())


@pytest.mark.parametrize("argv", calls(), ids=" ".join)
def test_cli_output_matches_golden(argv):
    golden = json.loads(GOLDEN.read_text())
    assert run_call(argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    os.chdir(ROOT)
    GOLDEN.write_text(json.dumps(record_all(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")
