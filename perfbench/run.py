"""hyperpd benchmark: one workload, one process, one query at a time.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload oracle_pd --seed 1 --seconds 14 --trace 0

Each query is one in-process call of `hyperpd.cli.main` with the
arguments a user would type; its stdout is parsed. The harness asks the
workload's whole query set in rounds (a closed loop with one client)
until `--seconds` have passed, always finishing the round it started.
Inputs are made before timing and answers checked after it. Times are
reported in reference-speed seconds (see Clock and perfbench/README.md).

With `--trace 0` the last stdout line reports the end-to-end metrics
(setup_s, run_s, query_p50_s, peak_rss_mib). With `--trace 1` the
rounds alternate untraced and traced, and it reports the per-layer
metrics of the traced rounds, their run time and the tracing overhead;
the spans go to perfbench/results/<workload>-spans.jsonl.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

SRC = "src"
RESULTS = os.path.join("perfbench", "results")
SETUP_REPEATS = 7

# Nominal time of one `reference_loop()` pass; reported times are scaled
# by REFERENCE_S over the loop's mean measured time in the run (see Clock).
REFERENCE_S = 0.0007
REFERENCE_PASSES = 7
TICK_EVERY = 0.2
_REFERENCE_ITEMS = [tuple(sorted({(i * 7) % 97, (i * 13) % 89})) for i in range(260)]


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def reference_loop() -> int:
    """Fixed interpreter work that does not touch hyperpd: first-seen
    deduplication of small tuples by list membership, the operation
    that dominates `Hypergraph` construction."""
    seen: list[tuple[int, ...]] = []
    for t in _REFERENCE_ITEMS:
        if t not in seen:
            seen.append(t)
    return len(seen)


class Clock:
    """Converts wall time to reference-speed seconds.

    The host's speed drifts by a quarter or more over minutes, because
    other tenants share its cores. `tick`, called before each timed
    call, times REFERENCE_PASSES passes of the reference loop and keeps
    the fastest, which is free of cache warm-up and interrupts; it does
    nothing if it ran less than TICK_EVERY seconds ago. `scale` is
    REFERENCE_S over the mean kept time of the whole run, so a time
    multiplied by it reads as it would on a host where one pass takes
    REFERENCE_S. The loop does not depend on hyperpd, so a change to
    hyperpd moves scaled times fully.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._last = -TICK_EVERY

    def tick(self):
        if time.perf_counter() - self._last < TICK_EVERY:
            return
        passes = []
        for _ in range(REFERENCE_PASSES):
            start = time.perf_counter()
            reference_loop()
            passes.append(time.perf_counter() - start)
        self.samples.append(min(passes))
        self._last = time.perf_counter()

    def scale(self) -> float:
        return REFERENCE_S / statistics.mean(self.samples)


def measure_setup(clock: Clock) -> float:
    """Median wall time for a fresh interpreter to import hyperpd.cli."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        clock.tick()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import hyperpd.cli"], env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def ask(main, argv) -> tuple[int | None, str, str]:
    """One CLI call in process: (exit code or None if it raised, stdout,
    stderr or the exception)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 2), out.getvalue(), err.getvalue()
    except Exception as exc:  # a traceback counts as a failed query
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def judge(queries, answers) -> tuple[int, bool, list[str]]:
    """Check every answer: (failed count, whether every failure is
    explained by a recorded fault or by the query raising, reasons)."""
    failed = 0
    correct = True
    reasons = []
    verdicts: dict[tuple[int, str], str | None] = {}
    for index, code, stdout, stderr in answers:
        q = queries[index]
        if code != 0:
            failed += 1
            reasons.append(f"{q.name}: exit {code}: {stderr.strip()[:200]}")
            continue
        key = (index, stdout)
        if key not in verdicts:
            try:
                verdicts[key] = q.check(stdout)
            except (ValueError, KeyError, TypeError) as exc:
                verdicts[key] = f"unreadable answer: {type(exc).__name__}: {exc}"
        reason = verdicts[key]
        if reason is None:
            continue
        failed += 1
        known = q.known_fault is not None and q.known_fault(stdout)
        correct = correct and known
        reasons.append(f"{q.name}: {reason}{' (known fault)' if known else ''}")
    return failed, correct, reasons


def query_medians(rounds: list[list[float]]) -> list[float]:
    """Each query's median latency across rounds. A burst of host noise
    then spoils one sample of one query rather than a whole round."""
    return [statistics.median(column) for column in zip(*rounds)]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, os.path.abspath(SRC))
    import hyperpd.cli
    from workloads import WORKLOADS

    if workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    clock = Clock()
    setup_s = None if trace else measure_setup(clock)
    queries = WORKLOADS[workload](seed)

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    answers = []
    rounds: list[tuple[bool, list[float], dict | None]] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        main = hyperpd.cli.main
        latencies = []
        with tracer.install() if traced else contextlib.nullcontext():
            if traced:
                tracer.counts.clear()
                first_span = len(tracer.spans)
                main = tracer.wrap("cli.main", main)
            for i, q in enumerate(queries):
                if traced:
                    tracer.query = len(rounds) * len(queries) + i
                clock.tick()
                t0 = time.perf_counter()
                answers.append((i, *ask(main, q.argv)))
                latencies.append(time.perf_counter() - t0)
        layers = tracer.layer_metrics(first_span, tracer.counts) if traced else None
        rounds.append((traced, latencies, layers))
        if time.perf_counter() - start >= seconds and (not trace or len(rounds) >= 2):
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    print("rounds (traced, s): " + ", ".join(f"({int(t)}, {sum(lat):.3f})" for t, lat, _ in rounds),
          file=sys.stderr)
    failed, correct, reasons = judge(queries, answers)
    for reason in reasons:
        print(f"failed: {reason}", file=sys.stderr)

    scale = clock.scale()
    if trace:
        traced_rounds = [(lat, layers) for traced, lat, layers in rounds if traced]
        metrics = {}
        for name in traced_rounds[0][1]:
            values = [layers[name] for _, layers in traced_rounds]
            if name.endswith("_s"):
                metrics[name] = {"value": statistics.median(values) * scale, "unit": "s"}
            else:
                metrics[name] = {"value": statistics.median_low(values), "unit": "count"}
        traced_s = sum(query_medians([lat for lat, _ in traced_rounds]))
        metrics["trace.run_s"] = {"value": traced_s * scale, "unit": "s"}
        # each traced round against the untraced round just before it,
        # which ran in the nearest host state
        pairs = zip(rounds[0::2], rounds[1::2])
        overhead = statistics.median(sum(t[1]) - sum(u[1]) for u, t in pairs)
        metrics["trace.overhead_s"] = {"value": overhead * scale, "unit": "s"}
        os.makedirs(RESULTS, exist_ok=True)
        tracer.write(os.path.join(RESULTS, f"{workload}-spans.jsonl"))
    else:
        medians = query_medians([lat for _, lat, _ in rounds])
        run_s = sum(medians)
        p50 = statistics.median(medians)
        print(f"unscaled: setup_s {setup_s:.4f} run_s {run_s:.4f} query_p50_s {p50:.4f}; "
              f"scale {scale:.4f} from {len(clock.samples)} reference loops", file=sys.stderr)
        metrics = {
            "setup_s": {"value": setup_s * scale, "unit": "s"},
            "run_s": {"value": run_s * scale, "unit": "s"},
            "query_p50_s": {"value": p50 * scale, "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    return {"correct": correct, "attempted": len(answers), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hyperpd", "cli.py")):
        print("perfbench: run from the root of a hyperpd checkout (no src/hyperpd here)",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    os.makedirs(RESULTS, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
