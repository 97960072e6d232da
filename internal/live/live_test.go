package live

import (
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"linkguardian/internal/obs"
	"linkguardian/internal/parallel"
	"linkguardian/internal/simtime"
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
		t.Fatalf("lossless wire dropped %d frames", rep.Links[0].ProxyDropped)
	}
	if got := counter(t, recv, "live.flow.rx"); got != 3000 {
		t.Fatalf("registry rx = %d, want 3000", got)
	}
}

// i.i.d. corruption on the forward path must be fully masked: the
// receiver's ingress MAC visibly drops frames, the sender visibly
// retransmits, and the app sees nothing.
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
		t.Fatal("ingress dropped nothing; loss model not exercised")
	}
	if retx := counter(t, send, "lg.retransmits"); retx == 0 {
		t.Fatal("sender retransmitted nothing despite forward-path drops")
	}
	if prot := counter(t, send, "lg.protected"); prot < count {
		t.Fatalf("sender protected %d frames, want >= %d", prot, count)
	}
}

// impairedLoad is the offered load of the split and burst tests.
func impairedLoad() (count uint64, pps float64) {
	if testing.Short() || raceEnabled {
		return 6000, 4000 // see TestLoopbackMasksIIDLoss
	}
	return 15000, 10000
}

// The split deployment of lglive -mode=receiver|sender, in one process:
// two muxes with one link each, the sender peered directly with the
// receiver, whose ingress MAC drops 2e-3 of the forward path from the
// stream the demo's link 0 draws. Delivery must come out exactly-once and
// in order, and the drops must replay exactly from that stream.
func TestLoopbackSplitMasksIngressLoss(t *testing.T) {
	const seed, loss = 3, 2e-3
	count, pps := impairedLoad()
	smux, rmux := newTestMux(t, 0), newTestMux(t, 0)
	epc := EndpointConfig{LossRate: loss, AppHost: "sender-app"}
	s, err := NewSender(epc, smux, 0, rmux.conn.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	epc.AppHost = "receiver-app"
	r, err := NewReceiver(epc, rmux, 0, smux.conn.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	r.CorruptIngress(NewLossModel(loss, 0), parallel.SeedFor(seed, 0))
	rmux.Start()
	smux.Start()
	done, err := s.StartLoadgen(0, 1, count, 256, pps)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(time.Duration(float64(count)/pps*float64(time.Second)) + 15*time.Second):
		t.Fatal("loadgen did not finish")
	}
	waitFor(t, "the receiver's audit to account for every packet", func() bool {
		var rx uint64
		rmux.loop.Call(func() { rx = r.Flow.Rx + r.Flow.Lost })
		return rx >= count
	})
	smux.Close()
	rmux.Close()
	a := r.Flow
	lr := LinkReport{Offered: s.App.Tx, Rx: a.Rx, Lost: a.Lost, Duplicate: a.Duplicate, OutOfSeq: a.OutOfSeq, Gaps: a.Gaps, Short: a.Short}
	if err := lr.Check(); err != nil || lr.Offered != count {
		t.Fatalf("audit: %v (offered %d of %d)", err, lr.Offered, count)
	}
	in := &r.wifc.In
	if in.RxBad == 0 {
		t.Fatal("ingress dropped nothing; loss model not exercised")
	}
	if want := seededDrops(loss, parallel.SeedFor(seed, 0), in.RxAll); in.RxBad != want {
		t.Fatalf("%d drops over %d frames, link 0's seeded stream draws %d", in.RxBad, in.RxAll, want)
	}
}

// Gilbert–Elliott bursts draw loss runs longer than MaxConsecutiveLoss;
// §3.5 leaves those to the ackNoTimeout, so some packets are lost at the
// app by design. The accounting must still be exact: every app-visible
// loss is one the receiver declared unrecovered, every offered packet is
// delivered or lost, and nothing is duplicated or reordered.
func TestLoopbackBurstLossAccounting(t *testing.T) {
	count, pps := impairedLoad()
	rep, _, recv := oneLink(t, MultiConfig{Seed: 3, Count: count, PPS: pps, Size: 256, LossRate: 2e-3, MeanBurst: 3})
	if rep.Links[0].ProxyDropped == 0 {
		t.Fatal("loss model dropped nothing")
	}
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

// The strict verdicts behind lglive -strict: each way a link can fail its
// audit is named, and a run that did not drain fails whatever its links say.
func TestReportCheckVerdicts(t *testing.T) {
	ok := LinkReport{Link: 2, Offered: 10, Rx: 10}
	if err := ok.Check(); err != nil {
		t.Fatalf("clean link: %v", err)
	}
	for _, c := range []struct {
		bad  LinkReport
		want string
	}{
		{LinkReport{Offered: 10, Rx: 9}, "delivered 9 of 10"},
		{LinkReport{Offered: 10, Rx: 10, Lost: 1}, "lost"},
		{LinkReport{Offered: 10, Rx: 10, Duplicate: 1}, "duplicate"},
		{LinkReport{Offered: 10, Rx: 10, OutOfSeq: 1}, "out-of-order"},
		{LinkReport{Offered: 10, Rx: 10, Gaps: 1}, "gap"},
		{LinkReport{Offered: 10, Rx: 10, Short: 1}, "too short"},
	} {
		if err := c.bad.Check(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: got %v, want an error naming %q", c.bad, err, c.want)
		}
		if c.bad.Rx != c.bad.Offered {
			continue
		}
		// The split receiver's verdict is the same rule on its bare audit.
		a := FlowAudit{Rx: c.bad.Rx, Short: c.bad.Short, Gaps: c.bad.Gaps, Lost: c.bad.Lost, OutOfSeq: c.bad.OutOfSeq, Duplicate: c.bad.Duplicate}
		if err := a.Check(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("audit %+v: got %v, want an error naming %q", a, err, c.want)
		}
	}
	rep := MultiReport{Links: []LinkReport{ok, {Link: 3, Offered: 10, Rx: 10, Duplicate: 2}}, Drained: true}
	if err := rep.Check(); err == nil || !strings.Contains(err.Error(), "1 of 2 links") {
		t.Errorf("one bad link: got %v", err)
	}
	rep.Links, rep.Drained = rep.Links[:1], false
	if err := rep.Check(); err == nil || !strings.Contains(err.Error(), "did not drain") {
		t.Errorf("undrained run: got %v", err)
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

// allocsPerPacket is the allocation budget of a whole RunMulti, set-up
// included, per delivered packet.
const allocsPerPacket = 1.1

// The live app path allocates nothing per packet at steady state: payloads
// come from slabs and ride in packets as pointers, frames from the arena.
// A short run of the repository benchmark's shape, everything counted —
// set-up, both loops, the mux goroutines — stays within allocsPerPacket.
func TestRunMultiAllocsPerPacket(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's reduced load leaves too few packets to amortize set-up")
	}
	const count = 15000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := RunMulti(MultiConfig{
		Seed: 9, Links: 4, Flows: 64, Count: count, Size: 64, PPS: 15000, LinkRate: simtime.Rate10G,
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	checked(t, rep)
	per := float64(after.Mallocs-before.Mallocs) / float64(rep.Delivered)
	t.Logf("%.3f allocs per delivered packet", per)
	if per > allocsPerPacket {
		t.Fatalf("RunMulti allocates %.2f per delivered packet, budget %.1f", per, allocsPerPacket)
	}
}

// A drained run ends on the protocol's own signals — the receivers'
// audits complete, then every Tx buffer empty — not on a fixed wait, so
// a clean 4-link run stops within endSlack of its offered duration.
func TestRunMultiEndsWithItsWork(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation stretches the loops' latency past the bound")
	}
	const count, pps, endSlack = 3000, 15000.0, 30 * time.Millisecond
	rep, err := RunMulti(MultiConfig{
		Seed: 11, Links: 4, Flows: 16, Count: count, Size: 64, PPS: pps, LinkRate: simtime.Rate10G,
	})
	if err != nil {
		t.Fatal(err)
	}
	checked(t, rep)
	over := rep.Elapsed - time.Duration(count/pps*float64(time.Second))
	t.Logf("ended %v after its offered duration", over)
	if over > endSlack {
		t.Fatalf("clean run ended %v after its offered duration, want at most %v", over, endSlack)
	}
}

// Timeout bounds every wait of a run, the quiesce included: traffic that
// cannot drain (every forward frame dropped at the ingress MAC) ends the
// run undrained at the deadline, not after Settle or a fixed linger.
func TestRunMultiTimeoutBoundsUndrainedRun(t *testing.T) {
	const timeout, slack = 300 * time.Millisecond, 25 * time.Millisecond
	start := time.Now()
	rep, err := RunMulti(MultiConfig{
		Seed: 12, Count: 200, PPS: 20000, Size: 64, LossRate: 1, Timeout: timeout, Settle: 5 * time.Second,
	})
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Drained || rep.Delivered != 0 {
		t.Fatalf("a run that drops every frame drained (%d delivered): %s", rep.Delivered, rep)
	}
	if took > timeout+slack {
		t.Fatalf("undrained run returned after %v, Timeout %v", took, timeout)
	}
}

// TxDrained is the split sender's verdict: it closes once the receiver's
// ACKs cover everything the sender offered, and never without a peer that
// acknowledges.
func TestTxDrained(t *testing.T) {
	const count, pps, ceiling = 200, 20000.0, 300 * time.Millisecond
	drainedBy := func(s *Endpoint) bool {
		t.Helper()
		done, err := s.StartLoadgen(0, 1, count, 64, pps)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("loadgen did not finish")
		}
		select {
		case <-TxDrained(s):
			return true
		case <-time.After(ceiling):
			return false
		}
	}

	// No peer: the socket the sender addresses is never read.
	smux, silent := newTestMux(t, 0), newTestMux(t, 0)
	s, err := NewSender(EndpointConfig{AppHost: "sender-app"}, smux, 0, silent.conn.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	smux.Start()
	if drainedBy(s) {
		t.Fatal("Tx buffer drained with no receiver to acknowledge it")
	}

	smux, rmux := newTestMux(t, 0), newTestMux(t, 0)
	if s, err = NewSender(EndpointConfig{AppHost: "sender-app"}, smux, 0, rmux.conn.LocalAddr().(*net.UDPAddr)); err != nil {
		t.Fatal(err)
	}
	if _, err = NewReceiver(EndpointConfig{AppHost: "receiver-app"}, rmux, 0, smux.conn.LocalAddr().(*net.UDPAddr)); err != nil {
		t.Fatal(err)
	}
	rmux.Start()
	smux.Start()
	if !drainedBy(s) {
		t.Fatal("Tx buffer did not drain against a live receiver")
	}
}
