#!/usr/bin/env bash
# Builds the benchmark once and runs it; the arguments are the harness's
# own (see README.md). With none it runs every workload untraced and then
# traced, prints the machine-readable summary last, and exits non-zero on
# any verify, watchdog or digest failure.
#
# Everything the build writes stays inside the checkout, under
# .bench_build/: the binary, Go's build cache and its telemetry.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"

(
	cd "$here"
	export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
	export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
	# One processor: a build on both would leave the sandbox slowed down
	# for the first runs after it (see childProcs in supervise.go).
	GOMAXPROCS=1 go build -p 1 -o "$build/lgbench" .
)

# The harness finds BENCHMARK.json in the working directory and pins
# GOMAXPROCS on the children it measures; its own is left alone.
cd "$root"
exec "$build/lgbench" "$@"
