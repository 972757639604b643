#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload echo --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. The first run configures and builds the
repository's libraries plus the perfbench program into .bench_build/perfbench;
later runs reuse that build. With --trace 0 the result carries every
end_to_end metric named in BENCHMARK.json, with --trace 1 every per_layer
metric, and the spans of the last traced repetition are written to
.bench_build/traces/<workload>.json. The last line of standard output is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value", "unit"}}}

The lines above it list every metric the workload measured, with its unit and
clock (sim = simulated time, repeats per seed; host = wall clock of the
simulator), the cost-model fingerprint and the workload's own notes.
See perfbench/README.md.
"""

import argparse
import fcntl
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("echo", "kv-skew", "storage", "churn")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures and builds perfbench (incremental after the first time)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no repository sources under {ROOT}/src; run from a full checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "w") as log:
            steps = []
            if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
                steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                              "-DCMAKE_BUILD_TYPE=Release"])
            jobs = str(max(1, min(4, os.cpu_count() or 1)))
            steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                          "-j", jobs])
            for cmd in steps:
                if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                    with open(log_path) as f:
                        sys.stderr.write(f.read()[-4000:])
                    fail("build failed; see " + log_path, 3)
    return BINARY


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    args = ap.parse_args()

    spec = load_spec()
    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    if args.trace:
        trace_dir = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(trace_dir, f"{args.workload}.json")]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 4)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"perfbench printed no result (exit {proc.returncode})", 5)

    errors = list(out.get("errors", []))
    if proc.returncode != 0 and not errors:
        errors.append(f"perfbench exited {proc.returncode}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = out.get("metrics", {})
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            errors.append(f"metric {m['name']} missing")
            continue
        if got["unit"] != m["unit"]:
            errors.append(f"metric {m['name']} has unit {got['unit']}, not {m['unit']}")
        value = got["value"]
        if not math.isfinite(value):
            errors.append(f"metric {m['name']} is not finite")
        if not args.trace and value <= 0:
            errors.append(f"end-to-end metric {m['name']} is {value}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    print(f"workload {out['workload']} seed {out['seed']} size {out['size']}: "
          f"{out['reps_untraced']} untraced + {out['reps_traced']} traced repetitions "
          f"in {time.monotonic() - started:.1f} s")
    print(f"sim digest {out['sim_digest']}; cost model fnv1a "
          f"{out['cost_model_fnv1a']} (default CostModel, unvalidated)")
    for note in out.get("notes", []):
        print("  " + note)
    for name, m in measured.items():
        mark = "*" if name in metrics else " "
        print(f"{mark} {name:40s} {m['value']:>18.6g} {m['unit']:6s} {m['clock']}")
    for e in errors:
        print("ERROR: " + e)
    correct = not errors
    attempted = max(1, int(out.get("attempted", 0)))
    failed = int(out.get("failed", 0))
    if not correct and failed == 0:
        failed = 1  # a violated check counts as a failed operation
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
