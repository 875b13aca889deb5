"""Smoke tests for the benchmark harness, on tiny inputs.

Run from the repository root:

    python3 -m pytest perfbench/tests -q

They show that every answer check accepts the engine's true answers and
rejects perturbed ones, that a query that raises counts as failed, and
that a run reports exactly the metrics BENCHMARK.json names.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import hyperpd.cli  # noqa: E402
import run  # noqa: E402
from hyperpd.betti import betti_table  # noqa: E402
from hyperpd.hypergraphs import Hypergraph, is_separated  # noqa: E402
from hyperpd.ideals import parse_ideal  # noqa: E402
from hyperpd.lattices import lcm_lattice  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _answers(queries):
    return [(i, *run.ask(hyperpd.cli.main, q.argv)) for i, q in enumerate(queries)]


def _with_pd(stdout: str, delta: int) -> str:
    data = json.loads(stdout)
    data["pd"] += delta
    return json.dumps(data)


def _with_total(stdout: str, degree: str, delta: int) -> str:
    data = json.loads(stdout)
    data["totals"][degree] += delta
    return json.dumps(data)


def _tiny(name):
    return {
        "oracle_pd": lambda seed: workloads.oracle_pd(seed, path_n=6, cycle_n=6, figure4=False),
        "betti_gf3": lambda seed: workloads.betti_gf3(seed, path_n=6, cycle_n=5, core=False),
        "reduce_bushes": lambda seed: workloads.reduce_bushes(seed, forests=(2, 3)),
        "random_ideals": lambda seed: workloads.random_ideals(seed, count=6),
    }[name]


@pytest.mark.parametrize("name", ["oracle_pd", "reduce_bushes", "random_ideals"])
def test_pd_checks_reject_pd_plus_one(name):
    queries = _tiny(name)(1)
    for (i, code, stdout, _), q in zip(_answers(queries), queries):
        assert code == 0
        if q.known_fault is None:
            assert q.check(stdout) is None, q.name
            assert q.check(_with_pd(stdout, 1)) is not None, q.name
        else:
            assert q.check(stdout) is not None and q.known_fault(stdout), q.name


def test_betti_checks_reject_a_changed_total():
    queries = _tiny("betti_gf3")(1)
    for (i, code, stdout, _), q in zip(_answers(queries), queries):
        assert code == 0
        assert q.check(stdout) is None, q.name
        for degree in json.loads(stdout)["totals"]:
            assert q.check(_with_total(stdout, degree, 1)) is not None, (q.name, degree)


def test_betti_identities():
    path = workloads.path_edges(5)
    text = workloads.graph_ideal_text(5, path, random.Random(0))
    totals = betti_table(parse_ideal(text)).totals()
    assert workloads.betti_problem(totals, len(path)) is None
    assert workloads.betti_problem({0: 1, 1: 3, 2: 3, 3: 1}, 3) is None
    assert workloads.betti_problem({0: 2, 1: 3, 2: 4, 3: 1}, 3) is not None
    assert workloads.betti_problem({0: 1, 1: 4, 2: 3}, 3) is not None
    assert workloads.betti_problem({0: 1, 1: 3, 2: 3}, 3) is not None
    assert workloads.betti_problem({0: 1, 1: 3, 2: 4, 3: 2}, 3) is not None


def test_closed_forms_match_the_oracle():
    rng = random.Random(0)
    for n in range(4, 9):
        for edges, formula in ((workloads.path_edges(n), workloads.path_pd),
                               (workloads.cycle_edges(n), workloads.cycle_pd)):
            text = workloads.graph_ideal_text(n, edges, rng)
            assert betti_table(parse_ideal(text)).pd == formula(n)


def test_frozen_inputs():
    core = parse_ideal(workloads.figure4_core_text(random.Random(0)))
    assert core.mu == 11
    assert len(lcm_lattice(core)) == 1443
    bushes = workloads.load_inputs()["bushes"]
    assert [Hypergraph(edges).mu for edges in bushes] == [8 + k % 3 for k in range(60)]
    for edges in bushes:
        H = Hypergraph(edges)
        assert is_separated(H) and not H.higher_edges()


def test_figure4_check_bounds():
    figure4 = workloads.oracle_pd(1, path_n=4, cycle_n=4)[0]
    answer = json.dumps({"pd": 36, "method": "additivity"})
    assert figure4.check(answer) is None
    assert figure4.check(_with_pd(answer, -1)) is not None  # below the certified 36
    assert figure4.check(_with_pd(answer, 8)) is not None  # above mu = 43


def test_known_fault_is_failed_but_explained():
    queries = _tiny("random_ideals")(1)
    failed, correct, reasons = run.judge(queries, _answers(queries))
    assert (failed, correct) == (1, True)
    assert "ideal5" in reasons[0] and "known fault" in reasons[0]

    fault = next(i for i, q in enumerate(queries) if q.known_fault)
    answers = _answers(queries)
    i, code, stdout, stderr = answers[fault]
    answers[fault] = (i, code, _with_pd(stdout, -1), stderr)
    failed, correct, _ = run.judge(queries, answers)
    assert (failed, correct) == (1, False)


def test_wrong_answer_is_failed_and_not_correct():
    queries = _tiny("oracle_pd")(1)
    answers = _answers(queries)
    i, code, stdout, stderr = answers[0]
    answers[0] = (i, code, _with_pd(stdout, 1), stderr)
    assert run.judge(queries, answers)[:2] == (1, False)


def test_query_that_raises_is_failed():
    def broken(argv):
        raise RuntimeError("boom")

    queries = _tiny("oracle_pd")(1)
    answers = [(i, *run.ask(broken, q.argv)) for i, q in enumerate(queries)]
    assert all(code is None for _, code, _, _ in answers)
    failed, correct, reasons = run.judge(queries, answers)
    assert failed == len(queries)
    assert "RuntimeError: boom" in reasons[0]


def test_domain_error_is_failed():
    answers = [(0, *run.ask(hyperpd.cli.main, ["pd", "--in", "a^2"]))]
    query = workloads.Query("bad", [], lambda stdout: None)
    assert answers[0][1] != 0
    assert run.judge([query], answers)[0] == 1


@pytest.mark.parametrize("trace", [False, True])
def test_run_reports_the_declared_metrics(monkeypatch, trace):
    monkeypatch.setitem(workloads.WORKLOADS, "oracle_pd", _tiny("oracle_pd"))
    result = run.run("oracle_pd", 1, 0.0, trace)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (4 if trace else 2)
    if trace:
        assert result["metrics"]["betti.intervals"]["value"] > 0


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle_pd",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
