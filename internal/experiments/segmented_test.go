package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
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

// fabricStressDigest renders everything observable about a fabric stress
// run — per-segment sent/received counts and the full obs snapshot,
// including the engine's per-shard window/stall/handoff counters — for
// byte comparison across worker counts.
func fabricStressDigest(t *testing.T, workers int) []byte {
	t.Helper()
	res := RunFabricStress(core.NewConfig(simtime.Rate25G, 1e-3), simtime.Rate25G, 1e-3, 4, workers, fabricStressOpts(11))
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "sent=%v cross=%v recv=%v\n", res.Sent, res.CrossTx, res.Received)
	if err := res.Metrics.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFabricStressShardInvariance is the tier-1 determinism regression for
// the parallel engine: the same 4-segment fabric stress run must produce
// byte-identical output at worker caps 1, 2 and 4 of the fixed 4-shard
// partition.
func TestFabricStressShardInvariance(t *testing.T) {
	ref := fabricStressDigest(t, 1)
	if len(ref) == 0 {
		t.Fatal("empty reference digest")
	}
	for _, w := range []int{2, 4} {
		got := fabricStressDigest(t, w)
		if !bytes.Equal(ref, got) {
			l1, l2 := bytes.Split(ref, []byte("\n")), bytes.Split(got, []byte("\n"))
			for i := 0; i < len(l1) && i < len(l2); i++ {
				if !bytes.Equal(l1[i], l2[i]) {
					t.Fatalf("workers=1 vs workers=%d differ at line %d:\n %s\n %s", w, i+1, l1[i], l2[i])
				}
			}
			t.Fatalf("workers=1 vs workers=%d digests differ in length", w)
		}
	}
}

// TestFabricFCTShardInvariance: the fabric FCT experiment — per-segment
// DCTCP flows over lossy protected links with cross-segment transit load —
// must produce exactly the same per-trial FCT series at any worker cap.
func TestFabricFCTShardInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run FCT fabric")
	}
	run := func(workers int) string {
		opts := DefaultFCTOpts(24387)
		opts.Trials = 25
		results := RunFabricFCT(TransDCTCP, LG, opts, 4, workers, 0.05)
		var b strings.Builder
		for i, r := range results {
			fmt.Fprintf(&b, "seg%d trials=%d flows=%d\n", i, r.Trials, len(r.Flows))
			for _, st := range r.Flows {
				fmt.Fprintf(&b, "%d %v %v\n", st.FCT, st.EverSACKed, st.ReducedWhilePending)
			}
		}
		return b.String()
	}
	ref := run(1)
	if !strings.Contains(ref, "trials=25") {
		t.Fatalf("fabric FCT did not complete its trials:\n%.400s", ref)
	}
	for _, w := range []int{2, 4} {
		if got := run(w); got != ref {
			t.Fatalf("fabric FCT diverged between workers=1 and workers=%d", w)
		}
	}
}

// TestFabricFCTOneSegmentMatchesRunFCT is the experiment-level twin of
// simnet's TestEngineSingleShardMatchesSim. A one-segment fabric without
// cross traffic is RunFCT's first block run on a 1-shard engine — shard 0
// is seeded parallel.SeedFor(seed, 0), exactly like block 0 — so the two
// must agree trial for trial, including the end-host RTOMin and the
// Gilbert–Elliott loss model.
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
			got := RunFabricFCT(TransDCTCP, prot, opts, 1, 1, 0)[0]
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
		res := RunFabricStress(cfg, simtime.Rate25G, 1e-3, 2, 2, fabricStressOpts(3))
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
// a shard boundary, LinkGuardian recovers the corruption losses, and the
// engine actually hands frames across shards.
func TestFabricDelivery(t *testing.T) {
	res := RunFabricStress(core.NewConfig(simtime.Rate25G, 1e-3), simtime.Rate25G, 1e-3, 2, 2, fabricStressOpts(3))
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
	handoffs := res.Metrics.Counter("engine.shard0.handoffs_out") + res.Metrics.Counter("engine.shard1.handoffs_out")
	if handoffs == 0 {
		t.Fatal("no cross-shard handoffs recorded; fabric ran sequentially?")
	}
	if res.Metrics.Counter("engine.shard0.windows") == 0 {
		t.Fatal("no windows recorded in engine metrics")
	}
	if res.Metrics.Counter("s1.lg.protected") == 0 {
		t.Fatal("segment 1's LinkGuardian saw no protected packets")
	}
}
