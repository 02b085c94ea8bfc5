#!/usr/bin/env bash
# Runs the serving load bench (observability overhead on the hot path +
# an open-loop arrival process against an obs-enabled alcopd) and writes
# machine-readable results to BENCH_serving_load.json (repo root by
# default). The bench's own gates — the median of the obs-enabled
# daemon's block hot p99s within 10% of the larger of the plain daemon's
# (closed-loop blocks alternate between the two) and the committed
# BENCH_serving.json baseline, every open-loop request answered, and the
# access-log line count matching the scraped latency-histogram _count —
# decide the exit status. The /metrics scrape the bench takes is additionally validated
# with scripts/check_prometheus.py (HELP/TYPE per family, cumulative
# buckets, +Inf == _count, alcop_build_info present, and a
# bounded-cardinality ceiling of 64 series per family so per-client
# attribution cannot mint unbounded label sets). The scrape is checked and
# the result stamped by scripts/bench_meta.py whether the bench's gates
# pass or fail; the script then exits with the bench's status, or the
# scrape check's when the bench passed.
#
# Usage: scripts/bench_serving_load.sh [--quick] [output.json]
#   --quick      300 open-loop requests at 500 rps (CI serving-smoke mode)
#   output.json  where to write the result (default: ./BENCH_serving_load.json)
set -euo pipefail

cd "$(dirname "$0")/.."

QUICK=""
OUT="BENCH_serving_load.json"
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK="--quick" ;;
    *) OUT="$arg" ;;
  esac
done
BIN=build/bench/serving_load

if [[ ! -x "$BIN" ]]; then
  echo "building $BIN..." >&2
  cmake -B build -S . >/dev/null
  cmake --build build --target serving_load -j "$(nproc)" >/dev/null
fi

# The overhead gate also references the committed serving baseline.
BASELINE="0"
if command -v python3 >/dev/null 2>&1 \
    && git show HEAD:BENCH_serving.json > "$OUT.base" 2>/dev/null; then
  BASELINE=$(python3 -c '
import json, sys
doc = json.load(open(sys.argv[1]))
print(doc.get("daemon", {}).get("hot_p99_ms", 0))' "$OUT.base")
  rm -f "$OUT.base"
fi

METRICS="$(mktemp /tmp/alcop_metrics.XXXXXX.txt)"
trap 'rm -f "$METRICS"' EXIT

echo "running serving load bench${QUICK:+ (quick)} (baseline p99 ${BASELINE} ms)..." >&2
STATUS=0
"$BIN" $QUICK --baseline-p99 "$BASELINE" --metrics-out "$METRICS" > "$OUT" \
  || STATUS=$?

# Validate the live scrape the bench took: exposition format, bucket
# monotonicity, +Inf == _count, and the access-log tie-in.
if command -v python3 >/dev/null 2>&1; then
  EXPECT=$(python3 -c '
import json, sys
doc = json.load(open(sys.argv[1]))
print(doc.get("scraped", {}).get("access_log_lines", 0))' "$OUT")
  CHECK=0
  python3 scripts/check_prometheus.py "$METRICS" --expect-count "$EXPECT" \
    --max-series 64 >&2 || CHECK=$?
  python3 scripts/bench_meta.py "$OUT"
  if (( STATUS == 0 )); then STATUS=$CHECK; fi
fi
cat "$OUT"
echo "wrote $OUT" >&2
exit "$STATUS"
