#!/usr/bin/env python3
"""A/B comparison of two checkouts on one perfbench workload.

    python3 tools/perfbench_ab.py --parent ../parent --change . \\
        --workload kv-skew --seeds 101,102,103 --pairs 10

Runs `pairs` parent/change pairs through each checkout's own perfbench/run.py
(each builds its own .bench_build/ on first use). Pair i uses seed
seeds[i % len(seeds)] on both sides and alternates which side runs first. For
every end-to-end metric in the parent's BENCHMARK.json it prints each side's
median and quartiles, change / parent of the medians, the pairs the change won
(ties count for neither side), and FLAG when the change's median is worse than
the parent's by more than the metric's bound. It also reports, per pair, whether
the two sides' `sim digest` lines match.

Exits 1 when a run fails or reports an incorrect result, when any metric is
flagged, or, with --expect-same-digest, when any pair's digests differ. Running
one checkout against itself (`--parent . --change .`) is a self-test of the
benchmark's determinism and of the tool.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_side(checkout, workload, seed, seconds, size):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--size", size]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    digest = None
    for line in lines:
        if line.startswith("sim digest "):
            digest = line.split()[2].rstrip(";")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{checkout}: {workload} seed {seed} printed no result")
    ok = proc.returncode == 0 and result.get("correct") and not result.get("failed")
    values = {name: m["value"] for name, m in result.get("metrics", {}).items()}
    return ok, digest, values


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def spread(q):
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="parent checkout directory")
    ap.add_argument("--change", required=True, help="change checkout directory")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="comma-separated seeds, cycled")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (default: run_seconds from BENCHMARK.json)")
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--expect-same-digest", action="store_true",
                    help="fail unless every pair's sim digests match")
    args = ap.parse_args()

    parent = os.path.abspath(args.parent)
    change = os.path.abspath(args.change)
    with open(os.path.join(parent, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",") if s]
    if not seeds or args.pairs < 1:
        raise SystemExit("need at least one seed and one pair")

    sides = {"parent": parent, "change": change}
    values = {"parent": [], "change": []}
    digests_match = 0
    failed_runs = 0
    for i in range(args.pairs):
        seed = seeds[i % len(seeds)]
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        digest = {}
        for side in order:
            ok, digest[side], vals = run_side(sides[side], args.workload, seed,
                                              seconds, args.size)
            if not ok:
                failed_runs += 1
                print(f"pair {i} seed {seed}: {side} run failed or was incorrect")
            values[side].append(vals)
        same = digest["parent"] is not None and digest["parent"] == digest["change"]
        digests_match += same
        print(f"pair {i} seed {seed} ({order[0]} first): sim digest "
              f"{digest['parent']} vs {digest['change']} -> "
              f"{'same' if same else 'DIFFERENT'}")

    print(f"\n{args.workload}: {args.pairs} pairs, seeds {args.seeds}, "
          f"--seconds {seconds:g}, --size {args.size}")
    print(f"{'metric':14s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'ratio':>8s} {'won':>7s}  bound")
    flagged = []
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        lower = m["better"] == "lower"
        p = [v[name] for v in values["parent"] if name in v]
        c = [v[name] for v in values["change"] if name in v]
        if len(p) != args.pairs or len(c) != args.pairs:
            flagged.append(name)
            print(f"{name:14s} missing from some runs  FLAG")
            continue
        pq, cq = quartiles(p), quartiles(c)
        ratio = cq[1] / pq[1] if pq[1] else float("inf")
        wins = sum(1 for a, b in zip(p, c) if (b < a if lower else b > a))
        worse = cq[1] > pq[1] * (1 + bound) if lower else cq[1] < pq[1] * (1 - bound)
        if worse:
            flagged.append(name)
        print(f"{name:14s} {spread(pq):>34s} {spread(cq):>34s} {ratio:8.4f} "
              f"{wins:3d}/{args.pairs:<3d}  {bound:g}"
              f"{'  FLAG: median worse than bound' if worse else ''}")
    print(f"sim digests match in {digests_match}/{args.pairs} pairs")

    bad = failed_runs > 0 or flagged
    if args.expect_same_digest and digests_match != args.pairs:
        bad = True
        print("FAIL: sim digests differ")
    if flagged:
        print("FAIL: flagged " + ", ".join(flagged))
    if failed_runs:
        print(f"FAIL: {failed_runs} runs failed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
