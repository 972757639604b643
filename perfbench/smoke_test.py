#!/usr/bin/env python3
"""Smoke self-test for the benchmark: every workload at a tiny size.

    python3 perfbench/smoke_test.py

Builds perfbench (through run.py), then for every workload runs run.py at
--size smoke untraced and traced, and a second seed untraced, and checks:
the result line's keys, every BENCHMARK.json metric present with its unit,
correct == true with no failed operation, same-seed determinism (the sim
digest of two runs of one seed matches), and that the command fails without
printing a result in a directory holding only BENCHMARK.json and perfbench/.
Exits non-zero on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("echo", "kv-skew", "storage", "churn")


def run(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace),
           "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


def check(cond, what):
    if not cond:
        print("FAIL: " + what)
        sys.exit(1)


def digest(stdout):
    for line in stdout.splitlines():
        if line.startswith("sim digest "):
            return line.split()[2].rstrip(";")
    return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    check(len(names) == len(spec["end_to_end"]) + len(spec["per_layer"]),
          "metric names are unique")
    check(any(m["name"] == "setup_s" for m in spec["end_to_end"]), "setup_s is gated")
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload names")

    for workload in WORKLOADS:
        digests = []
        for seed, trace in ((1, 0), (1, 1), (2, 0)):
            proc = run(workload, seed, trace)
            label = f"{workload} seed {seed} trace {trace}"
            check(proc.returncode == 0,
                  f"{label} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  f"{label}: result keys")
            check(result["correct"] is True and result["failed"] == 0,
                  f"{label}: outputs incorrect")
            check(result["attempted"] >= 1, f"{label}: nothing attempted")
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            check(sorted(result["metrics"]) == sorted(m["name"] for m in wanted),
                  f"{label}: metric names")
            for m in wanted:
                check(result["metrics"][m["name"]]["unit"] == m["unit"],
                      f"{label}: unit of {m['name']}")
            if seed == 1:
                digests.append(digest(proc.stdout))
        check(digests[0] is not None and digests[0] == digests[1],
              f"{workload}: same-seed sim digests differ ({digests})")
        print(f"ok {workload}")

    # Without the repository sources the command must fail and print no result.
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("echo", 1, 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0, "run without sources must fail")
    check('"correct"' not in proc.stdout, "run without sources printed a result")
    print("ok bare directory")
    return 0


if __name__ == "__main__":
    sys.exit(main())
