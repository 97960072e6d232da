package chaos

import (
	"fmt"
	"strings"

	"linkguardian/internal/parallel"
)

// SoakResult is the outcome of a randomized-scenario sweep.
type SoakResult struct {
	Master  int64
	Reports []*Report // index i ran GenScenario(Master, i)
}

// Failures returns the reports with at least one invariant violation, in
// scenario order.
func (s *SoakResult) Failures() []*Report {
	var out []*Report
	for _, r := range s.Reports {
		if r.Failed() {
			out = append(out, r)
		}
	}
	return out
}

// String renders the sweep deterministically: one line per failing scenario
// plus a summary. Running the same master seed at any worker count yields a
// byte-identical string — the determinism contract of internal/parallel,
// which the tier-2 soak test asserts directly.
func (s *SoakResult) String() string {
	var b strings.Builder
	fails := s.Failures()
	fmt.Fprintf(&b, "soak master=%d scenarios=%d violations=%d\n",
		s.Master, len(s.Reports), len(fails))
	for _, r := range fails {
		fmt.Fprintf(&b, "%v\n", r)
	}
	return b.String()
}

// Soak runs n generated scenarios for the master seed across the
// internal/parallel worker pool. Every scenario runs in its own simulation
// seeded by parallel.SeedFor(master, i); results merge in index order, so
// the sweep is bit-identical at any worker count.
//
// opts carries the per-run options (flight-recorder directory or
// results-store sink); opts.Index is overwritten with each scenario's
// index. Sinks must be safe for concurrent use — scenarios run across the
// worker pool. Artifact locators live outside Report.String(), so the
// determinism contract of the report text is unaffected.
func Soak(master int64, n int, opts RunOpts) *SoakResult {
	return &SoakResult{
		Master: master,
		Reports: parallel.Map(n, func(i int) *Report {
			o := opts
			o.Index = i
			return RunScenario(GenScenario(master, i), o)
		}),
	}
}
