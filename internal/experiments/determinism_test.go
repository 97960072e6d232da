package experiments

import (
	"bytes"
	"testing"
	"time"

	"linkguardian/internal/parallel"
)

// The parallel engine's contract: results are a function of the seed alone,
// bit-identical at any worker count. These tests run the two experiment
// families that fan out the most — sharded FCT trials and the fleet policy
// pair — at worker counts 1 (the serial baseline) and up, and require exact
// equality percentile-for-percentile (and, for the fleet, byte-for-byte in
// the rendered report).

func fctSnapshot(seed int64) []float64 {
	opts := DefaultFCTOpts(143)
	opts.Trials = 600 // 3 blocks: exercises sharding and merge order
	opts.Seed = seed
	res := RunFCT(TransDCTCP, LG, opts)
	out := []float64{float64(res.Trials), float64(len(res.Flows)), float64(len(res.DroppedSegs))}
	for _, p := range []float64{0, 10, 25, 50, 75, 90, 99, 99.9, 100} {
		out = append(out, res.P(p))
	}
	// The merge must preserve trial order, not just the sorted distribution.
	for i := 0; i < len(res.Flows); i += 97 {
		out = append(out, res.Flows[i].FCT.Seconds())
	}
	return out
}

// fleetSnapshot runs the fleet comparison on 72 pods — three shards, the
// last one partial — and returns its headline numbers plus the full
// legacy-mode report (cmd/fleetsim without -solutions) with the series.
func fleetSnapshot(t *testing.T, seed int64) ([]float64, []byte) {
	t.Helper()
	opts := FleetOpts{
		Pods:        72,
		Horizon:     60 * 24 * time.Hour,
		SampleEvery: 12 * time.Hour,
		Seed:        seed,
	}
	fc := RunFleet(0.75, opts)
	out := []float64{float64(len(fc.Vanilla)), float64(len(fc.Combined))}
	for _, p := range []float64{0, 25, 50, 75, 90, 99, 100} {
		out = append(out, fc.PenaltyGain.Percentile(p), fc.CapacityDecreasePP.Percentile(p))
	}
	for i := 0; i < len(fc.Vanilla); i += 17 {
		out = append(out, fc.Vanilla[i].TotalPenalty, fc.Combined[i].TotalPenalty,
			float64(fc.Combined[i].Protected))
	}
	var report bytes.Buffer
	if err := WriteFleetReport(&report, fc, 60, true); err != nil {
		t.Fatal(err)
	}
	return out, report.Bytes()
}

func TestParallelFCTMatchesSerial(t *testing.T) {
	defer parallel.SetWorkers(0)
	for _, seed := range []int64{1, 42} {
		parallel.SetWorkers(1)
		base := fctSnapshot(seed)
		for _, w := range []int{2, 8} {
			parallel.SetWorkers(w)
			got := fctSnapshot(seed)
			if len(got) != len(base) {
				t.Fatalf("seed=%d workers=%d: %d metrics vs %d serial", seed, w, len(got), len(base))
			}
			for i := range base {
				if got[i] != base[i] {
					t.Fatalf("seed=%d workers=%d: metric %d = %v, serial %v", seed, w, i, got[i], base[i])
				}
			}
		}
	}
}

func TestParallelFleetMatchesSerial(t *testing.T) {
	defer parallel.SetWorkers(0)
	for _, seed := range []int64{1, 42} {
		parallel.SetWorkers(1)
		base, baseReport := fleetSnapshot(t, seed)
		for _, w := range []int{2, 4, 8} {
			parallel.SetWorkers(w)
			got, report := fleetSnapshot(t, seed)
			if len(got) != len(base) {
				t.Fatalf("seed=%d workers=%d: %d metrics vs %d serial", seed, w, len(got), len(base))
			}
			for i := range base {
				if got[i] != base[i] {
					t.Fatalf("seed=%d workers=%d: metric %d = %v, serial %v", seed, w, i, got[i], base[i])
				}
			}
			if !bytes.Equal(report, baseReport) {
				t.Fatalf("seed=%d workers=%d: fleet report differs from the serial one", seed, w)
			}
		}
	}
}
