GO ?= go

.PHONY: all tier1 build vet test race bench-harness abpair-smoke chaos cover loc fuzz live-smoke fleet-smoke results-smoke clean

all: tier1

# Tier-1 verification: the gate every change must keep green. The darwin
# vet type-checks the live mux's portable (non-Linux) send path, which no
# Linux build compiles.
tier1:
	$(GO) build ./...
	$(GO) vet ./...
	GOOS=darwin $(GO) vet ./internal/live
	$(GO) test ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race job for the concurrent packages: the parallel worker pool itself and
# the experiment layer that fans out across it, whose serial-equals-parallel
# regressions are exactly what a data race would break first (every
# simulation, fabrics included, runs on one goroutine; only independent
# runs execute concurrently). Runs are filtered to the multi-worker tests
# because the full suite under -race takes many minutes. The reorder-buffer
# golden runs here too: the receiver's ring replays loops lazily from
# whichever event touches it first, and the race detector checks that
# bookkeeping on a busy schedule. The fleet matrix's solutions share each
# shard's trace across workers; its lanes-equal-solo-runs test checks that
# sharing on two workers. The live dataplane and the results store run
# goroutines of their own and go under the detector whole.
race:
	$(GO) test -race ./internal/parallel
	$(GO) test -race -run 'TestParallel.*MatchesSerial|TestReorderBufferGolden' ./internal/experiments
	$(GO) test -race -run 'TestFleetWorkerInvariance|TestMatrixLanesMatchSoloRuns' ./internal/fleetsim
	$(GO) test -race -count=1 ./internal/live
	$(GO) test -race -count=1 ./internal/results

# The repository benchmark (benchmark/, its own module) vetted and unit
# tested: it calls exported internal APIs, so a change to one that breaks
# the harness fails here instead of only when benchmark/run.sh runs.
bench-harness:
	cd benchmark && GOWORK=off $(GO) vet ./... && GOWORK=off $(GO) test ./...

# One fleet_year pair of scripts/abpair.sh against HEAD at one host second
# a side: checks that the A/B script builds both sides, runs them and
# reads their results. One pair measures nothing; a real comparison is
# scripts/abpair.sh <rev> <workload> 10.
abpair-smoke:
	ABPAIR_SECONDS=1 ./scripts/abpair.sh HEAD fleet_year 1

# Ratcheted per-package coverage gate. Floors live in
# scripts/coverage_thresholds.txt; raise them as coverage improves.
cover:
	./scripts/covercheck.sh

# Ratcheted per-package line-count gate. Ceilings on non-test lines live
# in scripts/loc_ceilings.txt; growing a package means raising its ceiling
# in the same diff, and a deletion lowers it.
loc:
	./scripts/loccheck.sh

# Fuzz smoke pass: ~63s total across the native fuzz targets. The
# checked-in crasher corpus under testdata/fuzz/ also runs during plain
# `go test`, so regressions are caught even without -fuzz.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzVote -fuzztime 8s ./internal/attrib
	$(GO) test -run '^$$' -fuzz FuzzSeqCompare -fuzztime 8s ./internal/seqnum
	$(GO) test -run '^$$' -fuzz FuzzLGDataWire -fuzztime 7s ./internal/simnet
	$(GO) test -run '^$$' -fuzz FuzzLGAckWire -fuzztime 7s ./internal/simnet
	$(GO) test -run '^$$' -fuzz FuzzTraceEventString -fuzztime 8s ./internal/simnet
	$(GO) test -run '^$$' -fuzz FuzzLinkLifecycle -fuzztime 10s ./internal/fleetsim
	$(GO) test -run '^$$' -fuzz FuzzQueueOrder -fuzztime 8s ./internal/eventq
	$(GO) test -run '^$$' -fuzz FuzzMuxBundle -fuzztime 8s ./internal/live

# Fleet-simulation smoke gate: the full solution matrix on a small fleet,
# with the engine re-rendering the Pareto table at -workers 1/2/4/8 and
# failing on any byte difference (the worker-invariance contract, exercised
# end to end through cmd/fleetsim rather than the unit test).
fleet-smoke:
	$(GO) run ./cmd/fleetsim -solutions all -links 20000 -years 0.25 -invariance

# Chaos robustness gate: the curated fault scenarios plus a fixed-seed,
# fixed-budget randomized sweep. Failures reproduce exactly from the index
# the report names: go run ./cmd/chaos -gen <i> -seed 20230823.
# The composite-family soak (17 per family x 3 families = 51 scenarios) runs
# under the race detector: the families carry stateful faults (correlated
# GE chains, congestion generators) whose cloning discipline is exactly what
# a race would break. The attribution smoke gates single-culprit top-1
# accuracy against the recorded baseline in scripts/attrib_baseline.txt.
chaos:
	$(GO) run ./cmd/chaos -scenario quiet -seed 1
	$(GO) run ./cmd/chaos -scenario spike -seed 1
	$(GO) run ./cmd/chaos -scenario burst -seed 1
	$(GO) run ./cmd/chaos -scenario flap -seed 1
	$(GO) run ./cmd/chaos -scenario ctrl-storm -seed 1
	$(GO) run ./cmd/chaos -scenario storm -seed 1
	$(GO) run ./cmd/chaos -scenario era-wrap -seed 1
	$(GO) run ./cmd/chaos -soak 200 -seed 20230823
	$(GO) run -race ./cmd/chaos -families 17 -seed 20230823
	$(GO) run ./cmd/chaos -attrib 10 -attrib-multi 4 -seed 20230823 \
		-attrib-min $$(grep -v '^\#' scripts/attrib_baseline.txt)

# Live dataplane smoke tests, race detector on, strict exit codes: first
# the single-link lglive loopback demo — real UDP sockets, 1e-3 loss at
# the receiver's ingress MAC — then the same demo with eight links sharing one
# batched mux socket pair and a 1000-flow load generator spread across
# them, and last the split deployment: a receiver and a sender in two
# processes on fixed loopback ports, the receiver corrupting its ingress
# (scripts/live_split_smoke.sh). All must mask every drop (zero
# app-visible loss, duplicates or reordering on every link) and shut down
# cleanly within the deadline. 5-10s of offered traffic each; rates kept
# modest because the race detector cuts the loop's event budget roughly 10x.
live-smoke:
	$(GO) run -race ./cmd/lglive -mode=demo -count 100000 -pps 10000 \
		-size 512 -loss 1e-3 -seed 42 -strict
	$(GO) run -race ./cmd/lglive -mode=demo -links 8 -flows 1000 \
		-count 60000 -pps 6000 -size 256 -loss 1e-3 -seed 42 -strict
	GO=$(GO) ./scripts/live_split_smoke.sh

# Experiment-results service gate: ingest -> query -> diff round trip
# through the real CLI on the file backend plus the unit goldens on the
# in-memory backend, byte-checked against internal/results/testdata/.
results-smoke:
	./scripts/results_smoke.sh

clean:
	$(GO) clean ./...
