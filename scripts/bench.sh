#!/usr/bin/env bash
# Runs the dataplane hot-path benchmarks — the single-link engine
# (BenchmarkHotPath_PktsPerSec) and the sharded parallel engine on the
# 4-segment fabric (BenchmarkParHotPath_PktsPerSec) — plus the fleet
# simulation matrix (BenchmarkFleetPareto: four repair solutions over a
# 100K-link fleet for one simulated year per iteration), the live wire
# path (BenchmarkLiveWire_PktsPerSec: the batched mux socket carrying one
# link and eight), and the results-service ingest path
# (BenchmarkIngestFile/Mem: 64 parallel producers calling Store.Add into
# each backend), and records the results as BENCH_10.json at the
# repository root.
#
# Write-through: unless RESULTS_DIR is set empty, the whole BENCH_* history
# (including the file just written) is imported into the content-addressed
# results store at $RESULTS_DIR — re-imports deduplicate by content hash,
# so running this repeatedly is idempotent. Query the longitudinal view
# with: go run ./cmd/results -dir "$RESULTS_DIR" trend
#
# Methodology (stability over the old 5x iteration count):
#   - time-based -benchtime (default 1s) so every sample aggregates enough
#     iterations to swamp scheduler noise;
#   - -count samples per benchmark (default 3), reporting the BEST
#     throughput plus the min and relative spread so run-to-run variance is
#     part of the artifact rather than silently folded into the number;
#   - allocs/op is taken as the MAX across samples (it must be identically
#     zero, so any sample catching an allocation is a regression).
#
# The host's CPU count is recorded next to the numbers: the parallel
# speedup (shards-4 vs shards-1 wall clock over an identical workload) is
# bounded by physical cores, so the ratio is only meaningful relative to
# "cpus".
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1s}"
COUNT="${COUNT:-3}"
OUT="${OUT:-BENCH_10.json}"
RESULTS_DIR="${RESULTS_DIR-results-store}"

raw="$(go test -run '^$' -bench 'BenchmarkHotPath_PktsPerSec|BenchmarkParHotPath_PktsPerSec' \
    -benchtime "$BENCHTIME" -count "$COUNT" .)"
echo "$raw"

# The fleet matrix iterates in whole simulated years (~2.5s per iteration
# on one core), so it runs on iteration count, not -benchtime.
rawfleet="$(go test -run '^$' -bench 'BenchmarkFleetPareto' \
    -benchtime "${FLEET_ITERS:-3}x" ./internal/fleetsim)"
echo "$rawfleet"

# The live wire path runs over real loopback sockets; same time-based
# sampling as the engine benchmarks.
rawlive="$(go test -run '^$' -bench 'BenchmarkLiveWire_PktsPerSec' \
    -benchtime "$BENCHTIME" -count "$COUNT" ./internal/live)"
echo "$rawlive"

# The results-service ingest path: the acceptance gate is >= 100k
# records/sec through Store.Add into the FILE backend on one vCPU, so
# that benchmark is pinned to GOMAXPROCS=1; the mem backend runs alongside
# as the no-fsync reference.
rawingest="$(GOMAXPROCS=1 go test -run '^$' -bench 'BenchmarkIngest' \
    -benchtime "$BENCHTIME" -count "$COUNT" ./internal/results)"
echo "$rawingest"
raw="$raw
$rawfleet
$rawlive
$rawingest"

cpus="$(go env GOMAXPROCS 2>/dev/null || true)"
case "$cpus" in ''|*[!0-9]*) cpus=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1) ;; esac

# samples <bench/sub> <unit>: every sample of one metric, one per line.
samples() {
    echo "$raw" | awk -v name="$1" -v unit="$2" '
        $1 ~ "^Benchmark" name "(-[0-9]+)?$" {
            for (i = 1; i < NF; i++) if ($(i+1) == unit) print $i
        }'
}

best()   { sort -n | tail -1; }
worst()  { sort -n | head -1; }
spread() { # relative spread (max-min)/max in percent
    sort -n | awk 'NR==1{min=$1} {max=$1} END { if (max>0) printf "%.2f", (max-min)/max*100; else print 0 }'
}

# emit <json-key> <bench/sub> [baseline-pps]: one JSON object for a
# subbenchmark; with a baseline, also the speedup against it.
emit() {
    local key="$1" name="$2" base="${3:-}"
    local pps_best pps_min pps_spread ns_best allocs
    pps_best=$(samples "$name" "pkts/sec" | best)
    pps_min=$(samples "$name" "pkts/sec" | worst)
    pps_spread=$(samples "$name" "pkts/sec" | spread)
    ns_best=$(samples "$name" "ns/op" | worst)
    allocs=$(samples "$name" "allocs/op" | best)
    if [ -z "$pps_best" ]; then
        echo "bench.sh: no samples for $name" >&2
        exit 1
    fi
    printf '  "%s": {\n' "$key"
    printf '    "pkts_per_sec": %.0f,\n' "$pps_best"
    printf '    "pkts_per_sec_min": %.0f,\n' "$pps_min"
    printf '    "spread_pct": %s,\n' "$pps_spread"
    printf '    "ns_per_op": %d,\n' "$ns_best"
    if [ -n "$base" ]; then
        printf '    "allocs_per_op": %d,\n' "$allocs"
        printf '    "baseline_pkts_per_sec": %d,\n' "$base"
        awk -v a="$pps_best" -v b="$base" 'BEGIN { printf "    \"speedup\": %.2f\n", a / b }'
    else
        printf '    "allocs_per_op": %d\n' "$allocs"
    fi
    printf '  }'
}

# emit_ingest <json-key> <bench>: one JSON object for a results-ingest
# benchmark — best/min records/sec and their relative spread.
emit_ingest() {
    local key="$1" name="$2"
    local rps_best rps_min rps_spread
    rps_best=$(samples "$name" "records/sec" | best)
    rps_min=$(samples "$name" "records/sec" | worst)
    rps_spread=$(samples "$name" "records/sec" | spread)
    if [ -z "$rps_best" ]; then
        echo "bench.sh: no samples for $name" >&2
        exit 1
    fi
    printf '  "%s": {\n' "$key"
    printf '    "records_per_sec": %.0f,\n' "$rps_best"
    printf '    "records_per_sec_min": %.0f,\n' "$rps_min"
    printf '    "spread_pct": %s\n' "$rps_spread"
    printf '  }'
}

# Baselines: BENCH_4.json (best-of run of the sequential engine at the end
# of the zero-allocation PR, same harness). The parallel shards-4 entry is
# additionally compared against its own shards-1 sample below.
base4_clean=793241
base4_lossy=632564

fleet_lys=$(samples "FleetPareto" "linkyears/sec" | best)
fleet_ns=$(samples "FleetPareto" "ns/op" | worst)
if [ -z "$fleet_lys" ]; then
    echo "bench.sh: no samples for FleetPareto" >&2
    exit 1
fi

{
    printf '{\n'
    printf '  "bench": "BenchmarkHotPath_PktsPerSec + BenchmarkParHotPath_PktsPerSec + BenchmarkFleetPareto + BenchmarkLiveWire_PktsPerSec + BenchmarkIngest",\n'
    printf '  "benchtime": "%s",\n' "$BENCHTIME"
    printf '  "count": %d,\n' "$COUNT"
    printf '  "cpus": %d,\n' "$cpus"
    emit "clean" "HotPath_PktsPerSec/clean" "$base4_clean";               printf ',\n'
    emit "lossy_1e3" "HotPath_PktsPerSec/lossy-1e-3" "$base4_lossy";      printf ',\n'
    emit "par_shards_1" "ParHotPath_PktsPerSec/shards-1";                 printf ',\n'
    emit "par_shards_4" "ParHotPath_PktsPerSec/shards-4";                 printf ',\n'
    emit "live_batched_1" "LiveWire_PktsPerSec/batched-1";                printf ',\n'
    emit "live_batched_8" "LiveWire_PktsPerSec/batched-8";                printf ',\n'
    emit_ingest "ingest_file" "IngestFile";                               printf ',\n'
    emit_ingest "ingest_mem" "IngestMem";                                 printf ',\n'
    printf '  "fleet_pareto": {\n'
    printf '    "links": 100224,\n'
    printf '    "solutions": 4,\n'
    printf '    "horizon_years": 1,\n'
    printf '    "linkyears_per_sec": %.0f,\n' "$fleet_lys"
    printf '    "ns_per_matrix": %d\n' "$fleet_ns"
    printf '  },\n'
    s1=$(samples "ParHotPath_PktsPerSec/shards-1" "pkts/sec" | best)
    s4=$(samples "ParHotPath_PktsPerSec/shards-4" "pkts/sec" | best)
    awk -v a="$s4" -v b="$s1" 'BEGIN { printf "  \"par_speedup_shards4_vs_shards1\": %.2f\n", a / b }'
    printf '}\n'
} > "$OUT"
echo "wrote $OUT"

# Write-through: backfill the whole BENCH_* history (re-imports are content-
# hash dedups, so this is idempotent) and show the longitudinal trend.
if [ -n "$RESULTS_DIR" ]; then
    go run ./cmd/results -dir "$RESULTS_DIR" import BENCH_*.json
    go run ./cmd/results -dir "$RESULTS_DIR" -metric pkts_per_sec trend
fi
