#!/bin/sh
# Scaling sweep for the distributed explorer: runs the fleet bench at
# 1/2/4/8 workers (capped at the host's core count) against its
# in-process serial baseline and snapshots the results into
# BENCH_explore.json via bench_to_json.py.
#
# Speedup numbers are only meaningful when the workers actually get
# their own cores, so this script refuses to run on a single-core
# host rather than publish misleading "scaling" figures.
#
# Usage: tools/run_scaling_bench.sh [BUILD_DIR] [OUT_JSON]
#   BUILD_DIR defaults to ./build, OUT_JSON to ./BENCH_explore.json.

set -eu

BUILD_DIR="${1:-build}"
OUT_JSON="${2:-BENCH_explore.json}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"

cores="$( (nproc || getconf _NPROCESSORS_ONLN || sysctl -n hw.ncpu) \
  2>/dev/null | head -n1 )"
case "$cores" in
  ''|*[!0-9]*)
    echo "run_scaling_bench: cannot determine core count" \
         "(tried nproc, getconf, sysctl)" >&2
    exit 1
    ;;
esac

if [ "$cores" -lt 2 ]; then
  echo "run_scaling_bench: refusing to run on a ${cores}-core host." >&2
  echo "  A scaling sweep measures how exploration speeds up as workers" >&2
  echo "  spread across cores; with one core every configuration time-" >&2
  echo "  slices the same CPU and the numbers would be pure scheduling" >&2
  echo "  noise presented as scaling data.  Re-run on a multi-core" >&2
  echo "  machine, or use tools/bench_to_json.py directly for the" >&2
  echo "  single-core cost model (overhead, skew, message volume)." >&2
  exit 1
fi

DIST_BENCH="$BUILD_DIR/bench/bench_dist_explore"
if [ ! -x "$DIST_BENCH" ]; then
  echo "run_scaling_bench: $DIST_BENCH not found or not executable —" \
       "build first (cmake --build $BUILD_DIR)" >&2
  exit 1
fi

# Worker counts: 1/2/4/8, capped at the core count — oversubscribed
# points are the same scheduling noise the single-core refusal avoids.
sweep=""
for n in 1 2 4 8; do
  [ "$n" -le "$cores" ] && sweep="$sweep $n"
done
echo "run_scaling_bench: $cores cores, sweeping worker counts:$sweep"

# The bench already enumerates the sweep points as benchmark args;
# filter to the configurations inside the core budget (the serial
# baseline workers:0 is always included so speedups can be derived).
filter="workers:(0"
for n in $sweep; do filter="$filter|$n"; done
filter="$filter)/"

exec python3 "$REPO_ROOT/tools/bench_to_json.py" \
  --binary "$DIST_BENCH" \
  --filter "$filter" \
  --out "$OUT_JSON"
