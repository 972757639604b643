#!/usr/bin/env bash
# Bench runner: builds the benches in Release (-O2), runs each one BENCH_RUNS times
# and writes bench/results/<bench>.json = {"before"?, "after"}. Each arm is the
# record the bench writes itself through bench/bench_util.h
# ({bench, seed, config, sim, verdicts}) plus "wall_ms_min" (fastest run) and "runs".
#
# Usage:
#   bench/run_benches.sh [bench...]
#     Benches to run (default: the ten listed below). The full
#     10^6-connection L1 sweep is `BENCH_RUNS=1 bench/run_benches.sh bench_l1_openloop`.
#
# Environment:
#   BENCH_BUILD_DIR     build directory (default: <repo>/build-bench)
#   BENCH_RESULTS_DIR   where <bench>.json goes (default: <repo>/bench/results)
#   BENCH_RUNS          runs per bench (default: 5)
#   BENCH_BASELINE_BUILD_DIR
#                       bench binaries of a baseline tree. Each round then runs the
#                       baseline and this tree back to back (interleaved), and every
#                       file gets a "before" (baseline) and an "after" arm: sequential
#                       whole-tree runs are not comparable when machine load drifts.
#   BENCH_SMOKE=1       ctest smoke: use an existing build, run each bench once,
#                       check its record, write no results.
#
# A baseline must write records too, so it has to be a tree at or after the one
# that introduced them. The run fails when a bench exits non-zero (a failed
# verdict, or a record it could not write), leaves no parsable record, leaves one
# without bench/sim/verdicts or with a failed verdict, or writes different values
# on two runs of the same build.
set -euo pipefail

REPO="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BENCH_BUILD_DIR:-$REPO/build-bench}"
RESULTS="${BENCH_RESULTS_DIR:-$REPO/bench/results}"
BASELINE="${BENCH_BASELINE_BUILD_DIR:-}"
SMOKE="${BENCH_SMOKE:-0}"
RUNS="${BENCH_RUNS:-5}"
if [[ "$SMOKE" == "1" ]]; then RUNS=1; fi

BENCHES=("$@")
if (( $# == 0 )); then
  BENCHES=(bench_f1_datapath bench_f3_syscalls bench_e1_echo bench_c1_zerocopy
           bench_c2_streams bench_c3_wakeups bench_e3_storage bench_t2_tenants
           bench_s1_scaling bench_f2_controlpath)
fi

if [[ "$SMOKE" != "1" ]]; then
  cmake -S "$REPO" -B "$BUILD" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS_RELEASE="-O2 -DNDEBUG" >/dev/null
  cmake --build "$BUILD" -j "$(nproc)" --target "${BENCHES[@]}" >/dev/null
  mkdir -p "$RESULTS"
fi

ARMS=(after)
DIRS=("$BUILD")
if [[ -n "$BASELINE" ]]; then
  ARMS=(before after)
  DIRS=("$BASELINE" "$BUILD")
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

for b in "${BENCHES[@]}"; do
  for (( r = 0; r < RUNS; r++ )); do
    # Inner loop over arms: baseline and current alternate within each round.
    for i in "${!ARMS[@]}"; do
      arm="${ARMS[$i]}"
      t0=$(date +%s%N)
      if ! BENCH_RECORD="$TMP/$arm-$b.$r.json" "${DIRS[$i]}/bench/$b" > "$TMP/$arm-$b.txt"; then
        echo "$b ($arm): failed" >&2
        grep 'SHAPE-FAIL' "$TMP/$arm-$b.txt" >&2 || tail -n 5 "$TMP/$arm-$b.txt" >&2
        exit 1
      fi
      echo $(( ($(date +%s%N) - t0) / 1000000 )) >> "$TMP/$arm-$b.wall"
    done
  done

  # Check every record; outside smoke mode, write the results file.
  out=""
  if [[ "$SMOKE" != "1" ]]; then out="$RESULTS/$b.json"; fi
  python3 - "$TMP" "$b" "$RUNS" "$out" "${ARMS[@]}" <<'PY'
import json, sys

tmp, bench, runs, out, arms = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4], sys.argv[5:]
results = {}
for arm in arms:
    records = []
    for r in range(runs):
        path = f"{tmp}/{arm}-{bench}.{r}.json"
        try:
            with open(path) as f:
                records.append(json.load(f))
        except (OSError, ValueError) as e:
            sys.exit(f"{bench} ({arm}): no parsable record: {e}")
    missing = [k for k in ("bench", "sim", "verdicts") if k not in records[0]]
    if missing:
        sys.exit(f"{bench} ({arm}): record lacks {', '.join(missing)}")
    if any(rec != records[0] for rec in records):
        sys.exit(f"{bench} ({arm}): simulated values differ between runs")
    if not all(v["ok"] for v in records[0]["verdicts"]):
        sys.exit(f"{bench} ({arm}): a verdict failed")
    with open(f"{tmp}/{arm}-{bench}.wall") as f:
        wall_ms = min(int(line) for line in f)
    results[arm] = dict(records[0], wall_ms_min=wall_ms, runs=runs)
    print(f"{bench} ({arm}): {len(records[0]['verdicts'])} verdict(s) ok, "
          f"{wall_ms} ms wall, best of {runs}")
if out:
    with open(out, "w") as f:
        json.dump(results, f)
        f.write("\n")
    print(f"wrote {out}")
PY
done
