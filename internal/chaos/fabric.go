package chaos

import (
	"fmt"
	"strings"

	"linkguardian/internal/experiments"
	"linkguardian/internal/obs"
	"linkguardian/internal/parallel"
)

// FabricReport is the outcome of one fabric scenario: every segment's
// invariant report, in segment order, plus the merged obs snapshot
// (per-segment protocol and link metrics and the engine's per-shard
// counters).
type FabricReport struct {
	Scenario string
	Seed     int64
	Segments []*Report
	Metrics  obs.Snapshot
}

// Failed reports whether any segment's invariants fired.
func (fr *FabricReport) Failed() bool {
	for _, r := range fr.Segments {
		if r.Failed() {
			return true
		}
	}
	return false
}

// String renders the report deterministically, one segment per stanza —
// compared byte-for-byte by the shard-invariance regression.
func (fr *FabricReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fabric %s seed=%d segments=%d", fr.Scenario, fr.Seed, len(fr.Segments))
	for i, r := range fr.Segments {
		fmt.Fprintf(&b, "\n[s%d] %s", i, r.String())
	}
	return b.String()
}

// RunFabric executes one scenario on every segment of an nsegs-segment
// fabric simultaneously, through the same arm, drive and report steps as
// RunScenario: each segment gets its own copy of the fault schedule
// driven by an independent fault RNG (parallel.SeedFor(sc.Seed, segment),
// so fault patterns decorrelate across segments but are a pure function of
// the seed), its own checker, and its own protected-link traffic, while
// cross-segment transit load flows through the ring and across shard
// boundaries. workers caps concurrent shard execution and — the
// determinism contract — never changes a byte of the report.
//
// Faults act on each segment's own protected link, never on the
// cross-shard ring links: fault state is single-threaded per shard, which
// is exactly the engine's rule that FaultFn/SetDown on a cross link is
// unsupported.
func RunFabric(sc Scenario, nsegs, workers int) *FabricReport {
	f := experiments.NewSegmented(sc.Seed, nsegs, workers, sc.Rate, sc.config())
	defer f.Eng.Close()
	reg := obs.NewRegistry()
	f.Register(reg)

	runs := make([]*linkRun, len(f.Segs))
	for i, tb := range f.Segs {
		runs[i] = watch(&sc, tb, parallel.SeedFor(sc.Seed, i))
		runs[i].start(&sc)
	}
	stopCross, _ := f.CrossTraffic(sc.frame(), 0.1)
	drive(f.Eng.RunFor, &sc, runs, stopCross)

	fr := &FabricReport{Scenario: sc.Name, Seed: sc.Seed, Segments: make([]*Report, len(runs))}
	for i, r := range runs {
		fr.Segments[i] = r.report(&sc, fmt.Sprintf("%s/s%d", sc.Name, i))
	}
	reg.Sample()
	fr.Metrics = reg.Snapshot()
	return fr
}
