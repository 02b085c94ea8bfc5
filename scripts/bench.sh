#!/usr/bin/env bash
# Runs one of the repository's benches and writes its JSON result to
# BENCH_<NAME>.json at the repository root, so each figure is tracked from
# change to change. NAME picks the bench:
#
#   sim           bench/sim_throughput.cc: AST interpreter vs compiled
#                 micro-op replay over the Fig. 10 sweep, and the sim
#                 cache's bytes per config.
#   tuning        bench/tuning_throughput.cc: serial vs parallel sweeps,
#                 the sim cache's hit rate, and model-guided pruning.
#   serving       bench/serving.cc: cold search vs warm restart from the
#                 persisted cache, warm-start transfer, LRU residency
#                 under a budget, and alcopd's hot-shape latency.
#   serving_load  bench/serving_load.cc: observability overhead on alcopd's
#                 hot path, and an open-loop arrival process against an
#                 obs-enabled daemon.
#   calibration   bench/calibration.cc: the Table-I model terms against
#                 PMU and stall measurements over the Fig. 10 sweep.
#
# Each bench's header comment lists its gates.
#
# Usage: scripts/bench.sh NAME [ARGS...] [OUT.json]
#   ARGS      passed to the bench. Every bench but tuning takes --quick, a
#             smaller run (the CI mode). tuning takes its thread count,
#             which defaults to $ALCOP_THREADS, else 8.
#   OUT.json  where to write the result (default: BENCH_<NAME>.json)
#
# Every run first rebuilds the bench in build/, so it never measures a
# stale binary. build/ is configured only when it has no CMake cache, so
# an existing tree keeps its build type. serving_load also gets the hot
# p99 committed in HEAD:BENCH_serving.json as its overhead baseline, and
# its /metrics scrape is checked with scripts/check_prometheus.py. Whether
# or not a gate fails, the result is stamped with its provenance
# (scripts/bench_meta.py) and printed, followed on stderr by one delta
# line against HEAD:BENCH_<NAME>.json.
#
# Exit status: the bench's own, or the scrape check's when the bench
# passed. It is nonzero only when a gate fails, never because of wall time.
set -euo pipefail

cd "$(dirname "$0")/.."

# Per bench: its CMake target, and the JSON paths its delta line reports.
NAME="${1:-}"
case "$NAME" in
  sim)
    TARGET=sim_throughput
    DELTA="replay_configs_per_sec speedup cache.bytes_per_config" ;;
  tuning)
    TARGET=tuning_throughput
    DELTA="model_pruning.effective_configs_per_sec
           model_pruning.effective_configs_per_sec_gain cache_speedup" ;;
  serving)
    TARGET=serving
    DELTA="tuning.warm_restart_speedup daemon.hot_p99_ms lru.evictions" ;;
  serving_load)
    TARGET=serving_load
    DELTA="overhead.obs_p99_ms overhead.reference_p99_ms
           open_loop.achieved_rps" ;;
  calibration)
    TARGET=calibration
    DELTA="agreement.roofline_vs_bottleneck.rate
           rank_quality.kendall_tau_mean terms.cycles.mean_rel_error" ;;
  *)
    echo "usage: scripts/bench.sh sim|tuning|serving|serving_load|calibration" \
      "[ARGS...] [OUT.json]" >&2
    exit 2 ;;
esac
shift

OUT="BENCH_$NAME.json"
ARGS=()
for arg in "$@"; do
  if [[ "$arg" == *.json ]]; then OUT="$arg"; else ARGS+=("$arg"); fi
done
if [[ "$NAME" == tuning && ${#ARGS[@]} -eq 0 ]]; then
  ARGS=("${ALCOP_THREADS:-8}")
fi

# Prints the value at a dotted JSON path in a file, or 0.
num() {
  python3 -c '
import json, sys
doc = json.load(open(sys.argv[1]))
for key in sys.argv[2].split("."):
    doc = doc[key]
print(doc)' "$1" "$2" 2>/dev/null || echo 0
}

if [[ ! -f build/CMakeCache.txt ]]; then
  cmake -B build -S . >&2
fi
cmake --build build --target "$TARGET" -j "$(nproc)" >&2

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
if [[ "$NAME" == serving_load ]]; then
  git show HEAD:BENCH_serving.json > "$TMP/serving.json" 2>/dev/null || true
  ARGS+=(--baseline-p99 "$(num "$TMP/serving.json" daemon.hot_p99_ms)"
         --metrics-out "$TMP/metrics.txt")
fi

echo "running build/bench/$TARGET ${ARGS[*]}..." >&2
STATUS=0
"build/bench/$TARGET" "${ARGS[@]}" > "$OUT" || STATUS=$?

CHECK=0
if [[ "$NAME" == serving_load ]]; then
  # The live scrape: exposition format, cumulative buckets, +Inf equal to
  # _count, and the request count equal to the access log's line count.
  python3 scripts/check_prometheus.py "$TMP/metrics.txt" --max-series 64 \
    --expect-count "$(num "$OUT" scraped.access_log_lines)" >&2 || CHECK=$?
fi
python3 scripts/bench_meta.py "$OUT" || CHECK=$?
cat "$OUT"
echo "wrote $OUT" >&2

if git show "HEAD:BENCH_$NAME.json" > "$TMP/base.json" 2>/dev/null; then
  LINE="delta vs HEAD:"
  for path in $DELTA; do
    LINE+=$(LC_NUMERIC=C printf ' %s %g -> %g,' "$path" \
      "$(num "$TMP/base.json" "$path")" "$(num "$OUT" "$path")")
  done
  echo "${LINE%,}" >&2
fi

if (( STATUS == 0 )); then STATUS=$CHECK; fi
exit "$STATUS"
