#!/usr/bin/env python3
"""Writes BENCH_ledger.json, the committed record of perfbench's metrics.

Run from anywhere, with no arguments:

    python3 tools/bench_ledger.py

For every workload BENCHMARK.json lists, it runs perfbench/run.py at its
default seed and length twice: untraced (--trace 0) for the end-to-end
medians, and traced (--trace 1) for the per-layer ledger.  It writes the
medians, the operations attempted and failed, and the host and build facts
to BENCH_ledger.json (schema soccluster-bench-ledger/v1) at the repository
root.  Units are those BENCHMARK.json gives.  It exits non-zero, writing
nothing, if perfbench fails or reports a failed operation.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOST_FACTS = ("nproc", "build_type", "compiler", "commit")


def perfbench(workload, trace):
    """Runs perfbench once; returns its facts line and its result line."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or \
            not lines[-2].startswith("facts "):
        sys.exit(f"bench_ledger: perfbench --workload {workload} "
                 f"--trace {trace} failed (exit {proc.returncode})")
    return json.loads(lines[-2][len("facts "):]), json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    host, workloads = {}, {}
    for workload in (w["name"] for w in spec["workloads"]):
        entry = {"attempted": 0, "failed": 0}
        for trace, kind, samples in ((0, "end_to_end", "runs"),
                                     (1, "per_layer", "pairs")):
            facts, result = perfbench(workload, trace)
            names = [m["name"] for m in spec[kind]]
            if sorted(result["metrics"]) != sorted(names):
                sys.exit(f"bench_ledger: {workload} --trace {trace} reported "
                         f"metrics {sorted(result['metrics'])}, not {kind}")
            entry[kind] = {n: result["metrics"][n]["value"] for n in names}
            entry[samples] = facts[samples]
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            host = {k: facts[k] for k in HOST_FACTS}
        if entry["failed"]:
            sys.exit(f"bench_ledger: {workload}: {entry['failed']} of "
                     f"{entry['attempted']} operations failed")
        workloads[workload] = entry
    with open(os.path.join(ROOT, "BENCH_ledger.json"), "w") as f:
        json.dump({"schema": "soccluster-bench-ledger/v1", "host": host,
                   "workloads": workloads}, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
