package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"linkguardian/internal/core"
	"linkguardian/internal/simtime"
)

// fabricStressOpts is DefaultStressOpts over a 2 ms window at seed.
func fabricStressOpts(seed int64) StressOpts {
	opts := DefaultStressOpts()
	opts.Seed, opts.Duration = seed, 2*simtime.Millisecond
	return opts
}

// TestFabricFCTOneSegmentMatchesRunFCT: a one-segment fabric without cross
// traffic is RunFCT's first block — its Sim is seeded
// parallel.SeedFor(seed, 0), exactly like block 0 — so the two must agree
// trial for trial, including the end-host RTOMin and the Gilbert–Elliott
// loss model.
func TestFabricFCTOneSegmentMatchesRunFCT(t *testing.T) {
	conds := []struct {
		name   string
		rtoMin simtime.Duration
		burst  float64
	}{
		{"iid", 0, 0},
		{"burst+fast-rto", FastRTOMin, tracksMeanBurst},
	}
	for _, c := range conds {
		for _, prot := range []Protection{LossOnly, LG} {
			opts := DefaultFCTOpts(24387)
			opts.Trials = fctBlockSize
			opts.RTOMin, opts.MeanBurst = c.rtoMin, c.burst
			want := RunFCT(TransDCTCP, prot, opts)
			got := RunFabricFCT(TransDCTCP, prot, opts, 1, 0)[0]
			if want.Trials != opts.Trials || got.Trials != want.Trials {
				t.Fatalf("%s/%v: trials RunFCT=%d fabric=%d, want %d", c.name, prot, want.Trials, got.Trials, opts.Trials)
			}
			if !reflect.DeepEqual(got.FCTs, want.FCTs) {
				t.Errorf("%s/%v: FCTs differ: fabric p99.9=%.1fµs, RunFCT p99.9=%.1fµs", c.name, prot, got.P(99.9), want.P(99.9))
			}
			if !reflect.DeepEqual(got.Flows, want.Flows) {
				t.Errorf("%s/%v: per-trial flow stats differ", c.name, prot)
			}
			if !reflect.DeepEqual(got.DroppedSegs, want.DroppedSegs) {
				t.Errorf("%s/%v: dropped-segment logs differ", c.name, prot)
			}
		}
	}
}

// TestFabricStressHonorsConfig: the caller's LinkGuardian configuration
// reaches every segment. An Ordered receiver recirculates what it holds
// behind a hole; a NonBlocking one forwards out of order and never loops,
// so the mode shows on every segment's receiver_loops counter.
func TestFabricStressHonorsConfig(t *testing.T) {
	for _, mode := range []core.Mode{core.Ordered, core.NonBlocking} {
		cfg := core.NewConfig(simtime.Rate25G, 1e-3)
		cfg.Mode = mode
		res := RunFabricStress(cfg, simtime.Rate25G, 1e-3, 2, fabricStressOpts(3))
		for i := 0; i < res.Segments; i++ {
			loops := res.Metrics.Counter(fmt.Sprintf("s%d.lg.receiver_loops", i))
			if (loops > 0) != (mode == core.Ordered) {
				t.Errorf("%v: segment %d receiver_loops = %d", mode, i, loops)
			}
		}
	}
}

// TestFabricDelivery sanity-checks the fabric itself: cross-segment
// traffic reaches the next segment's host through two protected links and
// a ring link, LinkGuardian recovers the corruption losses, and frames
// actually cross the ring.
func TestFabricDelivery(t *testing.T) {
	res := RunFabricStress(core.NewConfig(simtime.Rate25G, 1e-3), simtime.Rate25G, 1e-3, 2, fabricStressOpts(3))
	for i := 0; i < res.Segments; i++ {
		if res.Received[i] == 0 {
			t.Fatalf("segment %d delivered nothing", i)
		}
		// h2 of segment i sees its own generator's frames plus the cross
		// traffic injected in segment i-1; with LG enabled effective loss
		// is negligible, so deliveries must exceed the local generator's
		// sends alone.
		if res.Received[i] <= res.Sent[i]*99/100 {
			t.Fatalf("segment %d: received %d of %d local + %d cross frames — cross traffic lost?",
				i, res.Received[i], res.Sent[i], res.CrossTx[(i+1)%res.Segments])
		}
	}
	if res.Metrics.Counter("x0.s0.sw6->s1.sw2.port.tx_frames") == 0 {
		t.Fatal("ring link x0 carried no frames")
	}
	if res.Metrics.Counter("s1.lg.protected") == 0 {
		t.Fatal("segment 1's LinkGuardian saw no protected packets")
	}
}
