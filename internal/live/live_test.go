package live

import (
	"testing"
	"time"

	"linkguardian/internal/obs"
)

// counter pulls one named counter out of a snapshot.
func counter(t *testing.T, s obs.Snapshot, name string) uint64 {
	t.Helper()
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	t.Fatalf("counter %q not in snapshot", name)
	return 0
}

// oneLink runs a single protected link (RunMulti with one link and one
// flow) and returns the report plus the sender's and receiver's registry
// snapshots, read after RunMulti has stopped both loops.
func oneLink(t *testing.T, cfg MultiConfig) (rep *MultiReport, sender, receiver obs.Snapshot) {
	t.Helper()
	cfg.Links, cfg.Flows = 1, 1
	var s, r *Endpoint
	cfg.OnStart = func(senders, receivers []*Endpoint) { s, r = senders[0], receivers[0] }
	rep, err := RunMulti(cfg)
	if err != nil {
		t.Fatalf("RunMulti: %v", err)
	}
	t.Logf("run: %s", rep)
	return rep, s.Reg.Snapshot(), r.Reg.Snapshot()
}

// checked fails the test unless the run's strict audit is clean.
func checked(t *testing.T, rep *MultiReport) {
	t.Helper()
	if err := rep.Check(); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

// A clean path must deliver every packet exactly once with no protocol
// intervention beyond the steady-state ACK stream.
func TestLoopbackCleanLink(t *testing.T) {
	rep, _, recv := oneLink(t, MultiConfig{Seed: 1, Count: 3000, PPS: 30000, Size: 512})
	checked(t, rep)
	if rep.Links[0].ProxyDropped != 0 {
		t.Fatalf("lossless proxy dropped %d datagrams", rep.Links[0].ProxyDropped)
	}
	if got := counter(t, recv, "live.flow.rx"); got != 3000 {
		t.Fatalf("registry rx = %d, want 3000", got)
	}
}

// i.i.d. corruption on the forward path must be fully masked: the proxy
// visibly drops frames, the sender visibly retransmits, and the app sees
// nothing.
func TestLoopbackMasksIIDLoss(t *testing.T) {
	count, pps := uint64(10000), 10000.0
	if testing.Short() || raceEnabled {
		// Race instrumentation costs ~10x on the socket read path; at the
		// full rate a one-core runner overflows the receiver's socket and
		// the run grinds on kernel drops instead of the loss model under
		// test. Shrink the load, not the loss rate.
		count, pps = 5000, 4000
	}
	rep, send, _ := oneLink(t, MultiConfig{Seed: 2, Count: count, PPS: pps, Size: 256, LossRate: 2e-3})
	checked(t, rep)
	if rep.Links[0].ProxyDropped == 0 {
		t.Fatal("proxy dropped nothing; loss model not exercised")
	}
	if retx := counter(t, send, "lg.retransmits"); retx == 0 {
		t.Fatal("sender retransmitted nothing despite forward-path drops")
	}
	if prot := counter(t, send, "lg.protected"); prot < count {
		t.Fatalf("sender protected %d frames, want >= %d", prot, count)
	}
}

// impairedLink is the shared impairment of the jitter/reorder and burst
// tests: 2e-3 corruption plus order-preserving jitter plus occasional
// adjacent swaps (the reordering a real multi-lane path can produce).
func impairedLink(seed int64, burst bool) MultiConfig {
	count, pps := uint64(15000), 10000.0
	if testing.Short() || raceEnabled {
		count, pps = 6000, 4000 // see TestLoopbackMasksIIDLoss
	}
	return MultiConfig{
		Seed: seed, Count: count, PPS: pps, Size: 256,
		LossRate: 2e-3, Burst: burst, BurstLen: 3,
		Jitter:  100 * time.Microsecond,
		Reorder: 0.01,
	}
}

// checkImpaired asserts that every impairment the proxy was configured
// with actually bit.
func checkImpaired(t *testing.T, lr *LinkReport) {
	t.Helper()
	switch {
	case lr.ProxyDropped == 0:
		t.Fatal("loss model dropped nothing")
	case lr.ProxyDelayed == 0:
		t.Fatal("jitter delayed nothing")
	case lr.ProxySwapped == 0:
		t.Fatal("reorder injection swapped nothing")
	}
}

// i.i.d. corruption plus jitter plus adjacent swaps must still come out
// exactly-once and in order.
func TestLoopbackMasksJitterAndReorder(t *testing.T) {
	rep, _, _ := oneLink(t, impairedLink(3, false))
	checked(t, rep)
	checkImpaired(t, &rep.Links[0])
}

// Gilbert–Elliott bursts draw loss runs longer than MaxConsecutiveLoss;
// §3.5 leaves those to the ackNoTimeout, so some packets are lost at the
// app by design. The accounting must still be exact: every app-visible
// loss is one the receiver declared unrecovered, every offered packet is
// delivered or lost, and nothing is duplicated or reordered.
func TestLoopbackBurstLossAccounting(t *testing.T) {
	rep, _, recv := oneLink(t, impairedLink(3, true))
	checkImpaired(t, &rep.Links[0])
	if unrec := counter(t, recv, "lg.unrecovered"); rep.Lost != unrec {
		t.Fatalf("app-visible lost %d, receiver unrecovered %d", rep.Lost, unrec)
	}
	if rep.Delivered+rep.Lost != rep.Offered {
		t.Fatalf("delivered %d + lost %d != offered %d", rep.Delivered, rep.Lost, rep.Offered)
	}
	if rep.Duplicate != 0 || rep.OutOfSeq != 0 {
		t.Fatalf("%d duplicates, %d out-of-order deliveries", rep.Duplicate, rep.OutOfSeq)
	}
}

// The endpoints must shut down promptly and idempotently, and a stopped
// loop must refuse further work instead of hanging callers.
func TestShutdownDeadline(t *testing.T) {
	start := time.Now()
	rep, _, _ := oneLink(t, MultiConfig{Seed: 4, Count: 500, PPS: 20000, Size: 128, LossRate: 1e-3})
	checked(t, rep)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("short run took %v", elapsed)
	}

	l := NewLoop()
	l.Start()
	if !l.Call(func() {}) {
		t.Fatal("Call on a running loop failed")
	}
	l.Stop()
	l.Stop() // must be idempotent
	if l.Do(func() {}) {
		t.Fatal("Do succeeded after Stop")
	}
	if l.Call(func() {}) {
		t.Fatal("Call succeeded after Stop")
	}

	// A loop that never ran stops at once, and Start after Stop is inert.
	idle := NewLoop()
	idle.Stop()
	idle.Start()
	if idle.Do(func() {}) {
		t.Fatal("Do succeeded on a loop stopped before Start")
	}
}
