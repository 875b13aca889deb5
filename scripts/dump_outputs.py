"""Hash every benchmark query's output, to show that a change leaves
the program's answers byte for byte as they were.

    python3 scripts/dump_outputs.py [seeds...]

Seeds default to 3 and 29. For each seed it asks every query of the
four perfbench workloads once, in process, through `run.ask`; `pd`
queries also write a `--trace` file. It prints one sha256 per query,
over the exit code, stdout, stderr and trace, and then the sha256 of
those lines with the query count. Run it on two checkouts and compare
the last lines.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import hyperpd.cli  # noqa: E402
from run import ask  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv] or [3, 29]
    os.chdir(ROOT)
    total = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = os.path.join(tmp, "trace.jsonl")
        for seed in seeds:
            for workload, make in WORKLOADS.items():
                for q in make(seed):
                    argv_q = list(q.argv)
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
                    line = f"{digest} seed{seed} {workload} {q.name}"
                    print(line)
                    total.update(line.encode() + b"\n")
                    count += 1
    print(f"total {total.hexdigest()} over {count} queries")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
