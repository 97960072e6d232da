package live

import (
	"net"
	"strings"
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

// impairedLoad is the offered load of the jitter/reorder and burst tests.
func impairedLoad() (count uint64, pps float64) {
	if testing.Short() || raceEnabled {
		return 6000, 4000 // see TestLoopbackMasksIIDLoss
	}
	return 15000, 10000
}

// The three-terminal composition of lglive -mode=sender|proxy|receiver, in
// one process: sender mux → impairment proxy → receiver mux, with 2e-3
// corruption plus order-preserving jitter plus occasional adjacent swaps
// (the reordering a real multi-lane path can produce). Every impairment
// must bite, and delivery must still come out exactly-once and in order.
func TestLoopbackMasksJitterAndReorder(t *testing.T) {
	count, pps := impairedLoad()
	smux, rmux := newTestMux(t, 0), newTestMux(t, 0)
	imp := ProxyImpair{Model: NewLossModel(2e-3, 0), Jitter: 100 * time.Microsecond, ReorderProb: 0.01}
	p, err := NewProxy("127.0.0.1:0", rmux.conn.LocalAddr().String(), imp, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	epc := EndpointConfig{LossRate: 2e-3, AppHost: "sender-app"}
	s, err := NewSender(epc, smux, 0, p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	epc.AppHost = "receiver-app"
	r, err := NewReceiver(epc, rmux, 0, smux.conn.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
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
	p.Close()
	a := r.Flow
	lr := LinkReport{Offered: s.App.Tx, Rx: a.Rx, Lost: a.Lost, Duplicate: a.Duplicate, OutOfSeq: a.OutOfSeq, Gaps: a.Gaps}
	if err := lr.Check(); err != nil || lr.Offered != count {
		t.Fatalf("audit: %v (offered %d of %d)", err, lr.Offered, count)
	}
	switch {
	case p.Dropped() == 0:
		t.Fatal("loss model dropped nothing")
	case p.Delayed() == 0:
		t.Fatal("jitter delayed nothing")
	case p.Swapped() == 0:
		t.Fatal("reorder injection swapped nothing")
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
	} {
		if err := c.bad.Check(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: got %v, want an error naming %q", c.bad, err, c.want)
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
