#!/usr/bin/env bash
# results_smoke.sh — end-to-end gate for the experiment-results service.
#
# Exercises the full ingest -> query -> diff round trip through the real
# CLI and the file backend, golden-checked byte-for-byte against the same
# goldens the unit tests pin (internal/results/testdata/) — and, via
# TestQueryGolden, on the in-memory backend too. The determinism contract
# under test: two stores fed the same evidence in different orders render
# identical bytes, and re-importing is a pure content-hash dedup.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# 1. Unit goldens on BOTH backends (mem + file, shuffled ingestion orders).
go test -count=1 -run 'TestQueryGolden|TestBackendContract|TestStorePutArtifact' ./internal/results

go build -o "$tmp/results" ./cmd/results
golden=internal/results/testdata

# 2. Import the checked-in BENCH history (the goldens' fixtures) into two
#    stores in different orders; every query below must come out
#    byte-identical.
"$tmp/results" -dir "$tmp/a" import "$golden"/BENCH_{4,6,8,9}.json
"$tmp/results" -dir "$tmp/b" import "$golden"/BENCH_{9,4,8,6}.json

"$tmp/results" -dir "$tmp/a" list > "$tmp/list_a"
"$tmp/results" -dir "$tmp/b" list > "$tmp/list_b"
cmp "$tmp/list_a" "$tmp/list_b"
cmp "$tmp/list_a" "$golden/query_list.golden"

# 3. Re-import must deduplicate everything (content hash, not file identity).
"$tmp/results" -dir "$tmp/a" import "$golden"/BENCH_{4,6,8,9}.json \
    | grep -q '(0 new, 4 deduplicated)'

# 4. show / diff / trend against the goldens, resolving runs by ID prefix
#    from the list output (col 1; rows are kind/PR/name/ID canonical order).
id4=$(awk 'NR==2{print substr($1, 1, 8)}' "$tmp/list_a")
id8=$(awk 'NR==4{print $1}' "$tmp/list_a")
id9=$(awk 'NR==5{print $1}' "$tmp/list_a")
"$tmp/results" -dir "$tmp/a" show "$id4" | cmp - "$golden/query_show.golden"
"$tmp/results" -dir "$tmp/a" diff "$id8" "$id9" | cmp - "$golden/query_diff.golden"
"$tmp/results" -dir "$tmp/a" -metric pkts_per_sec trend | cmp - "$golden/query_trend.golden"
"$tmp/results" -dir "$tmp/b" -metric pkts_per_sec trend | cmp - "$golden/query_trend.golden"

# 5. Producer write path end to end: a chaos scenario stores its report,
#    and a fabric run stores one report per segment (<scenario>/s<i>).
go build -o "$tmp/chaos" ./cmd/chaos
"$tmp/chaos" -scenario flap -seed 1 -results-dir "$tmp/c" > /dev/null
"$tmp/results" -dir "$tmp/c" -kind chaos list | grep -q 'flap'
"$tmp/chaos" -scenario flap -fabric 2 -results-dir "$tmp/f" > /dev/null
"$tmp/results" -dir "$tmp/f" -kind chaos list | grep -q 'flap/s1'

echo "results-smoke: ok (ingest -> query -> diff round trip, goldens byte-stable)"
