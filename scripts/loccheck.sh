#!/usr/bin/env bash
# loccheck.sh — ratcheted per-package line-count gate.
#
# Counts the non-test Go lines (every *.go file but *_test.go, whatever its
# build tags) of each package of the root module and compares the count
# against the ceiling recorded in scripts/loc_ceilings.txt. The benchmark/
# module is separate and not counted. The gate fails when a package is over
# its ceiling, has no ceiling, or when a ceiling names a package that no
# longer exists. Growing a package means raising its ceiling in the same
# diff; after a deletion, lower it to the new count.
set -euo pipefail

cd "$(dirname "$0")/.."
ceilings=scripts/loc_ceilings.txt

counts=$(go list -f '{{.ImportPath}} {{.Dir}}' ./... | while read -r pkg dir; do
    n=0
    for f in "$dir"/*.go; do
        [[ -e "$f" && "$f" != *_test.go ]] || continue
        n=$((n + $(wc -l < "$f")))
    done
    echo "$pkg $n"
done)

echo "$counts" | awk 'NR == FNR {
        if ($0 !~ /^#/ && NF == 2) ceil[$1] = $2
        next
    }
    {
        seen[$1] = 1
        total += $2
        if (!($1 in ceil)) {
            printf "loccheck: %s has %d lines and no ceiling\n", $1, $2 > "/dev/stderr"
            bad = 1
        } else if ($2 > ceil[$1]) {
            printf "loccheck: %s at %d lines is over its ceiling of %d\n", $1, $2, ceil[$1] > "/dev/stderr"
            bad = 1
        }
    }
    END {
        for (p in ceil) if (!(p in seen)) {
            printf "loccheck: ceiling for %s, which is not a package\n", p > "/dev/stderr"
            bad = 1
        }
        if (bad) { print "loccheck: FAILED" > "/dev/stderr"; exit 1 }
        printf "loccheck: %d packages, %d non-test lines, all within their ceilings\n", FNR, total
    }' "$ceilings" -
