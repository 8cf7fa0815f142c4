#!/usr/bin/env python3
"""soccluster end-to-end benchmark runner.

Run from the repository root:

    python3 perfbench/run.py --workload cg-run-64 --seed 1 --trace 0
    python3 perfbench/run.py --workload all        # the three in turn
    python3 perfbench/run.py --self-test

Builds perfbench/ (a CMake package over ../src) into .bench_build/perfbench,
then runs the workload in fresh processes until --seconds have passed (at
least once), so every process runs exactly one workload and its peak RSS
and CPU time belong to it.  With --trace 0 it reports the end-to-end
metrics; with --trace 1 it pairs an untraced run with a traced one and
reports the per-layer ledger.  Every output is checked against
perfbench/references.txt.  The last line of standard output is the result
as one JSON object; see perfbench/README.md for the metric catalogue.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
REFS = os.path.join(HERE, "references.txt")
WORKLOADS = ("cg-run-64", "tealeaf3d-explain-16", "registry-sweep")
# Set-up is timed in this many extra fresh processes per run, besides the
# one inside every measured process; the run reports the median.
SETUP_SAMPLES = 9
# Every process of a run must end before the run's 180 s budget does.
CHILD_TIMEOUT_S = 150


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binaries; stdout stays clean."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: no simulator sources next to perfbench/ "
                         "(expected src/CMakeLists.txt); nothing to build")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr)


def spawn(args, timeout):
    """Runs one workload process; returns (json or None, cpu_s, peak_rss_mb)."""
    exe = os.path.join(BUILD, "perfbench_workload")
    proc = subprocess.Popen([exe] + args, stdout=subprocess.PIPE, cwd=ROOT)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        timer.cancel()
        proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    rss = usage.ru_maxrss / 1024.0  # Linux reports KiB.
    if proc.returncode != 0:
        log(f"{' '.join(args[:3])} exited with {proc.returncode}")
        return None, cpu, rss
    lines = out.decode().strip().splitlines()
    return (json.loads(lines[-1]) if lines else None), cpu, rss


def tree_digest():
    """Commit id, or a digest of the sources when there is no git."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if head.returncode == 0:
            return head.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "cmake", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


class Tally:
    """Operations attempted and failed across every process of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, result, what, drifted=()):
        """Counts one process's operations; `drifted` names operations
        whose traced outputs differ from the untraced ones."""
        if result is None:  # Crashed or timed out: one failed operation.
            self.attempted += 1
            self.failed += 1
            return
        for m in result["mismatches"]:
            log(f"{what}: {m}")
        failed = {op for op, ok in result["ops"].items() if not ok}
        failed |= set(drifted)
        self.attempted += len(set(result["ops"]) | set(drifted))
        self.failed += len(failed)


def base_args(workload, seed, k):
    """Arguments of the k-th process of a run.  Each process gets its own
    input seed derived from the run's, so a run's median spans several
    submission orders of the registry sweep (the only seeded workload)."""
    return ["--workload", workload, "--seed", str(seed * 1000 + k),
            "--refs", REFS]


def timeout_left(deadline):
    return max(30.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))


def measure(workload, seed, seconds, tally, facts):
    """Untraced runs: the end-to-end metrics."""
    hard = time.monotonic() + CHILD_TIMEOUT_S
    setup = []
    for k in range(SETUP_SAMPLES):
        r, _, _ = spawn(["setup"] + base_args(workload, seed, k),
                           timeout_left(hard))
        if r is None:
            tally.add(None, "setup")
        else:
            setup.append(r["setup_s"])
    walls, cpus, rsss = [], [], []
    deadline = time.monotonic() + seconds
    while not walls or time.monotonic() < deadline:
        r, cpu, rss = spawn(["run"] + base_args(workload, seed, len(walls)),
                               timeout_left(hard))
        tally.add(r, "run")
        if r is None:
            break
        facts.update(sweep_threads=r["sweep_threads"],
                     build_type=r["build_type"], compiler=r["compiler"])
        setup.append(r["setup_s"])
        walls.append(r["wall_s"])
        cpus.append(cpu)
        rsss.append(rss)
    if not walls or not setup:
        return None
    facts["runs"] = len(walls)
    facts["setup_samples"] = len(setup)
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        # Memory is provisioned for the worst case, so the peak is the
        # largest over the run's processes (the sweep's depends on which
        # runs overlap in time).
        "peak_rss_mb": (max(rsss), "MB"),
    }


def trace(workload, seed, seconds, tally, facts, layer_units):
    """Untraced/traced pairs: the per-layer metrics and the fidelity guard."""
    hard = time.monotonic() + CHILD_TIMEOUT_S
    samples = {}
    deadline = time.monotonic() + seconds
    pairs = 0
    while pairs == 0 or time.monotonic() < deadline:
        plain, _, _ = spawn(["run"] + base_args(workload, seed, pairs),
                            timeout_left(hard))
        tally.add(plain, "run")
        traced, _, _ = spawn(["traced"] + base_args(workload, seed, pairs),
                             timeout_left(hard))
        if plain is None or traced is None:
            tally.add(traced, "traced")
            return None
        # Fidelity guard: the hand-assembled traced pipeline must commit
        # what the untraced library path committed, output for output.
        keys = set(plain["outputs"]) | set(traced["outputs"])
        drift = sorted(k for k in keys
                       if plain["outputs"].get(k) != traced["outputs"].get(k))
        for k in drift:
            log(f"traced output {k} = {traced['outputs'].get(k)} but "
                f"untraced = {plain['outputs'].get(k)}")
        tally.add(traced, "traced", {k.rsplit(".", 1)[0] for k in drift})
        facts.update(sweep_threads=traced["sweep_threads"],
                     build_type=traced["build_type"],
                     compiler=traced["compiler"])
        layers = dict(traced["layers"])
        layers["bench.trace_overhead_ratio"] = (traced["wall_s"] /
                                                plain["wall_s"])
        for name, value in layers.items():
            samples.setdefault(name, []).append(value)
        os.makedirs(BUILD, exist_ok=True)
        with open(os.path.join(BUILD, f"ledger-{workload}.json"), "w") as f:
            json.dump(traced["ledger"], f, indent=1)
        pairs += 1
    facts["pairs"] = pairs
    if set(samples) != set(layer_units):
        diff = sorted(set(samples) ^ set(layer_units))
        raise SystemExit("perfbench: traced metrics differ from "
                         f"BENCHMARK.json per_layer: {diff}")
    return {name: (statistics.median(samples[name]), layer_units[name])
            for name in layer_units}


def self_test():
    build()
    return subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                          cwd=ROOT).returncode


def run_workload(workload, args, spec, commit):
    """Measures one workload and prints its lines; the last is the result."""
    facts = {"workload": workload, "seed": args.seed,
             "nproc": len(os.sched_getaffinity(0)), "commit": commit}
    tally = Tally()
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = trace(workload, args.seed, args.seconds, tally, facts, units)
    else:
        metrics = measure(workload, args.seed, args.seconds, tally, facts)
    if metrics is None:
        raise SystemExit(f"perfbench: {workload} did not complete")

    facts["fail_ratio"] = tally.failed / tally.attempted
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} = {value!r} {unit}")
    print(f"{workload} fail_ratio = {tally.failed}/{tally.attempted}")
    print("facts " + json.dumps(facts, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        help="one workload, or all three in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()
    commit = tree_digest()
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        run_workload(workload, args, spec, commit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
