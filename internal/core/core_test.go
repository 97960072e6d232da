package core

import (
	"testing"

	"linkguardian/internal/seqnum"
	"linkguardian/internal/simnet"
	"linkguardian/internal/simtime"
)

// testbed is a minimal h1 - sw2 ==corrupting link== sw6 - h2 topology: the
// inner link of Figure 7.
type testbed struct {
	sim      *simnet.Sim
	h1, h2   *simnet.Host
	sw2, sw6 *simnet.Switch
	link     *simnet.Link // protected link sw2 -> sw6
	lg       *Instance

	recvSeqs  []int // FlowID of packets delivered to h2, in order
	recvSizes []int
}

func newTestbed(t *testing.T, rate simtime.Rate, cfg Config) *testbed {
	t.Helper()
	tb := &testbed{sim: simnet.NewSim(1)}
	s := tb.sim
	tb.h1 = simnet.NewHost(s, "h1")
	tb.h2 = simnet.NewHost(s, "h2")
	tb.h1.StackDelay, tb.h2.StackDelay = 0, 0
	tb.sw2 = simnet.NewSwitch(s, "sw2")
	tb.sw6 = simnet.NewSwitch(s, "sw6")
	l1 := simnet.Connect(s, tb.h1, tb.sw2, rate, 50*simtime.Nanosecond)
	tb.link = simnet.Connect(s, tb.sw2, tb.sw6, rate, 100*simtime.Nanosecond)
	l2 := simnet.Connect(s, tb.sw6, tb.h2, rate, 50*simtime.Nanosecond)
	tb.sw2.AddRoute("h2", tb.link.A())
	tb.sw2.AddRoute("h1", l1.B())
	tb.sw6.AddRoute("h2", l2.A())
	tb.sw6.AddRoute("h1", tb.link.B())
	tb.h2.OnReceive = func(p *simnet.Packet) {
		tb.recvSeqs = append(tb.recvSeqs, p.FlowID)
		tb.recvSizes = append(tb.recvSizes, p.Size)
	}
	tb.lg = Protect(s, tb.link.A(), cfg)
	return tb
}

// sendBurst transmits n data packets h1->h2, FlowIDs base..base+n-1.
func (tb *testbed) sendBurst(base, n, size int) {
	for i := 0; i < n; i++ {
		p := tb.sim.NewPacket(simnet.KindData, size, "h2")
		p.FlowID = base + i
		tb.h1.Send(p)
	}
}

func (tb *testbed) runFor(d simtime.Duration) { tb.sim.RunFor(d) }

func inOrder(seqs []int) bool {
	for i := 1; i < len(seqs); i++ {
		if seqs[i] < seqs[i-1] {
			return false
		}
	}
	return true
}

func TestDisabledIsTransparent(t *testing.T) {
	tb := newTestbed(t, simtime.Rate25G, NewConfig(simtime.Rate25G, 1e-3))
	tb.sendBurst(0, 100, 1000)
	tb.runFor(simtime.Millisecond)
	if len(tb.recvSeqs) != 100 {
		t.Fatalf("delivered %d, want 100", len(tb.recvSeqs))
	}
	for _, sz := range tb.recvSizes {
		if sz != 1000 {
			t.Fatalf("dormant LinkGuardian changed packet size to %d", sz)
		}
	}
	if tb.lg.M.Protected != 0 || tb.lg.M.DummiesSent != 0 || tb.lg.M.AcksSent != 0 {
		t.Fatal("dormant LinkGuardian imposed cost on the link")
	}
}

// A dormant instance sharing an interface with an active one stays
// transparent: the testbed's own instance, installed first, sees every
// packet before the active one and touches none of them.
func TestPerClassDormantBystander(t *testing.T) {
	cfg := NewConfig(simtime.Rate25G, 1e-3)
	tb := newTestbed(t, simtime.Rate25G, cfg)
	active := Protect(tb.sim, tb.link.A(), cfg)
	active.Enable()
	dropDataNth(tb.link, tb.link.A(), 5)
	tb.sendBurst(0, 100, 1200)
	tb.runFor(10 * simtime.Millisecond)
	if len(tb.recvSeqs) != 100 || !inOrder(tb.recvSeqs) {
		t.Fatalf("delivered %d/100, ordered=%v", len(tb.recvSeqs), inOrder(tb.recvSeqs))
	}
	for _, sz := range tb.recvSizes {
		if sz != 1200 {
			t.Fatalf("headers not stripped: size %d", sz)
		}
	}
	if active.M.Protected != 100 || active.M.Retransmits != 1 {
		t.Fatalf("active instance protected %d, retransmitted %d; want 100 and 1",
			active.M.Protected, active.M.Retransmits)
	}
	if m := tb.lg.M; m.Protected != 0 || m.Delivered != 0 || m.DummiesSent != 0 ||
		m.AcksSent != 0 || m.AcksReceived != 0 || m.LossEvents != 0 {
		t.Fatalf("dormant instance acted: %+v", m)
	}
}

func TestEnabledLosslessPassthrough(t *testing.T) {
	for _, mode := range []Mode{Ordered, NonBlocking} {
		cfg := NewConfig(simtime.Rate25G, 1e-4)
		cfg.Mode = mode
		tb := newTestbed(t, simtime.Rate25G, cfg)
		tb.lg.Enable()
		tb.sendBurst(0, 500, 1400)
		tb.runFor(5 * simtime.Millisecond)
		if len(tb.recvSeqs) != 500 {
			t.Fatalf("[%v] delivered %d, want 500", mode, len(tb.recvSeqs))
		}
		if !inOrder(tb.recvSeqs) {
			t.Fatalf("[%v] lossless delivery reordered", mode)
		}
		for _, sz := range tb.recvSizes {
			if sz != 1400 {
				t.Fatalf("[%v] header not stripped: size %d", mode, sz)
			}
		}
		m := &tb.lg.M
		if m.Protected != 500 || m.Delivered != 500 {
			t.Fatalf("[%v] protected=%d delivered=%d", mode, m.Protected, m.Delivered)
		}
		if m.LossEvents != 0 || m.Retransmits != 0 || m.Timeouts != 0 {
			t.Fatalf("[%v] spurious recovery: %+v", mode, m)
		}
		if m.AcksSent == 0 || m.DummiesSent == 0 {
			t.Fatalf("[%v] self-replenishing queues inactive", mode)
		}
		if m.TxBufBytes != 0 {
			t.Fatalf("[%v] Tx buffer not drained: %d bytes", mode, m.TxBufBytes)
		}
	}
}

// dropDataNth drops the nth, (n2)th... protected data packets (1-indexed
// over original, non-retx protected packets) crossing the link.
func dropDataNth(link *simnet.Link, from *simnet.Ifc, drops ...int) {
	want := map[int]bool{}
	for _, d := range drops {
		want[d] = true
	}
	count := 0
	link.DropFn = func(p *simnet.Packet, f *simnet.Ifc) bool {
		if f != from || !p.LG.Present || p.LG.Dummy || p.LG.Retx {
			return false
		}
		count++
		return want[count]
	}
}

func TestSingleLossRecoveredInOrder(t *testing.T) {
	cfg := NewConfig(simtime.Rate25G, 1e-4)
	tb := newTestbed(t, simtime.Rate25G, cfg)
	tb.lg.Enable()
	dropDataNth(tb.link, tb.link.A(), 10)
	tb.sendBurst(0, 50, 1400)
	tb.runFor(5 * simtime.Millisecond)
	if len(tb.recvSeqs) != 50 {
		t.Fatalf("delivered %d, want 50", len(tb.recvSeqs))
	}
	if !inOrder(tb.recvSeqs) {
		t.Fatalf("ordered mode reordered: %v", tb.recvSeqs)
	}
	m := &tb.lg.M
	if m.LossEvents != 1 || m.Retransmits != 1 {
		t.Fatalf("lossEvents=%d retransmits=%d, want 1/1", m.LossEvents, m.Retransmits)
	}
	if m.Timeouts != 0 {
		t.Fatalf("unexpected timeout")
	}
	if m.RetxDelays.N() != 1 {
		t.Fatalf("retx delay samples = %d, want 1", m.RetxDelays.N())
	}
	// Retransmission delay should be microseconds (recirculation + queues),
	// well under the ackNoTimeout (Appendix B.1).
	d := m.RetxDelays.Samples()[0]
	if d < simtime.Microsecond || d > cfg.AckNoTimeout {
		t.Fatalf("retx delay %v outside (1µs, %v)", d, cfg.AckNoTimeout)
	}
}

func TestTailLossRecoveredViaDummy(t *testing.T) {
	cfg := NewConfig(simtime.Rate25G, 1e-4)
	tb := newTestbed(t, simtime.Rate25G, cfg)
	tb.lg.Enable()
	// Drop the very last packet of a short flow; nothing follows, so only
	// the dummy stream can reveal the gap (§3.2).
	dropDataNth(tb.link, tb.link.A(), 5)
	tb.sendBurst(0, 5, 1400)
	tb.runFor(simtime.Millisecond)
	if len(tb.recvSeqs) != 5 {
		t.Fatalf("delivered %d, want 5 (tail loss not recovered)", len(tb.recvSeqs))
	}
	m := &tb.lg.M
	if m.TailDetections != 1 {
		t.Fatalf("TailDetections = %d, want 1", m.TailDetections)
	}
	if m.Timeouts != 0 {
		t.Fatal("tail loss should be recovered without a timeout")
	}
	if m.RetxDelays.N() != 1 || m.RetxDelays.Samples()[0] > 10*simtime.Microsecond {
		t.Fatalf("tail recovery delay %v, want sub-RTT µs scale", m.RetxDelays.Samples())
	}
}

func TestTailLossWithoutDummyNeedsNothingElse(t *testing.T) {
	// Ablation (Table 2): with tail-loss detection off, a tail loss is
	// never detected link-locally.
	cfg := NewConfig(simtime.Rate25G, 1e-4)
	cfg.TailLossDetection = false
	tb := newTestbed(t, simtime.Rate25G, cfg)
	tb.lg.Enable()
	dropDataNth(tb.link, tb.link.A(), 5)
	tb.sendBurst(0, 5, 1400)
	tb.runFor(simtime.Millisecond)
	if len(tb.recvSeqs) != 4 {
		t.Fatalf("delivered %d, want 4 (tail loss must go unrecovered)", len(tb.recvSeqs))
	}
	if tb.lg.M.DummiesSent != 0 {
		t.Fatal("dummy queue active despite TailLossDetection=false")
	}
}

func TestConsecutiveLossesWithinProvisioning(t *testing.T) {
	cfg := NewConfig(simtime.Rate25G, 1e-4)
	tb := newTestbed(t, simtime.Rate25G, cfg)
	tb.lg.Enable()
	dropDataNth(tb.link, tb.link.A(), 10, 11, 12, 13, 14) // 5 consecutive
	tb.sendBurst(0, 50, 1400)
	tb.runFor(5 * simtime.Millisecond)
	if len(tb.recvSeqs) != 50 {
		t.Fatalf("delivered %d, want 50", len(tb.recvSeqs))
	}
	if !inOrder(tb.recvSeqs) {
		t.Fatal("reordered")
	}
	m := &tb.lg.M
	if m.Retransmits != 5 || m.Timeouts != 0 {
		t.Fatalf("retransmits=%d timeouts=%d, want 5/0", m.Retransmits, m.Timeouts)
	}
}

func TestConsecutiveLossesBeyondProvisioning(t *testing.T) {
	cfg := NewConfig(simtime.Rate25G, 1e-4)
	tb := newTestbed(t, simtime.Rate25G, cfg)
	tb.lg.Enable()
	// 7 consecutive losses: only 5 reTxReqs registers exist (§3.5); the
	// other 2 are skipped by the ackNoTimeout and lost.
	dropDataNth(tb.link, tb.link.A(), 10, 11, 12, 13, 14, 15, 16)
	tb.sendBurst(0, 50, 1400)
	tb.runFor(5 * simtime.Millisecond)
	if len(tb.recvSeqs) != 48 {
		t.Fatalf("delivered %d, want 48", len(tb.recvSeqs))
	}
	if !inOrder(tb.recvSeqs) {
		t.Fatal("reordered")
	}
	m := &tb.lg.M
	if m.Retransmits != 5 {
		t.Fatalf("retransmits=%d, want 5", m.Retransmits)
	}
	if m.Timeouts != 2 || m.Unrecovered != 2 {
		t.Fatalf("timeouts=%d unrecovered=%d, want 2/2", m.Timeouts, m.Unrecovered)
	}
}

func TestAllCopiesLostFallsBackToTimeout(t *testing.T) {
	cfg := NewConfig(simtime.Rate25G, 1e-4)
	tb := newTestbed(t, simtime.Rate25G, cfg)
	tb.lg.Enable()
	// Drop the 10th data packet and every retransmitted copy of it.
	count := 0
	tb.link.DropFn = func(p *simnet.Packet, f *simnet.Ifc) bool {
		if f != tb.link.A() || !p.LG.Present || p.LG.Dummy {
			return false
		}
		if p.LG.Retx {
			return true // every retransmission dies
		}
		count++
		return count == 10
	}
	tb.sendBurst(0, 50, 1400)
	tb.runFor(5 * simtime.Millisecond)
	if len(tb.recvSeqs) != 49 {
		t.Fatalf("delivered %d, want 49", len(tb.recvSeqs))
	}
	if !inOrder(tb.recvSeqs) {
		t.Fatal("reordered")
	}
	m := &tb.lg.M
	if m.Timeouts != 1 || m.Unrecovered != 1 {
		t.Fatalf("timeouts=%d unrecovered=%d, want 1/1", m.Timeouts, m.Unrecovered)
	}
}

func TestNonBlockingOutOfOrderRecovery(t *testing.T) {
	cfg := NewConfig(simtime.Rate25G, 1e-3) // N = 2 copies
	cfg.Mode = NonBlocking
	tb := newTestbed(t, simtime.Rate25G, cfg)
	tb.lg.Enable()
	if tb.lg.Copies() != 2 {
		t.Fatalf("Copies = %d, want 2 at 1e-3 actual / 1e-8 target", tb.lg.Copies())
	}
	dropDataNth(tb.link, tb.link.A(), 10)
	tb.sendBurst(0, 50, 1400)
	tb.runFor(5 * simtime.Millisecond)
	if len(tb.recvSeqs) != 50 {
		t.Fatalf("delivered %d, want 50", len(tb.recvSeqs))
	}
	if inOrder(tb.recvSeqs) {
		t.Fatal("NB recovery should deliver the retransmission out of order")
	}
	m := &tb.lg.M
	if m.RetxCopies != 2 {
		t.Fatalf("RetxCopies = %d, want 2", m.RetxCopies)
	}
	if m.Duplicates != 1 {
		t.Fatalf("Duplicates = %d, want 1 (second copy de-duplicated)", m.Duplicates)
	}
	if m.RxBufPeak != 0 || m.ReceiverLoops != 0 {
		t.Fatal("NB mode must not use the reordering buffer")
	}
}

func TestBackpressureBoundsRxBuffer(t *testing.T) {
	cfg := NewConfig(simtime.Rate100G, 1e-3)
	tb := newTestbed(t, simtime.Rate100G, cfg)
	tb.lg.Enable()
	tb.link.SetLoss(tb.link.A(), simnet.IIDLoss{P: 1e-3})
	// Line-rate burst long enough to trigger pauses on loss.
	tb.sendBurst(0, 30000, 1400)
	tb.runFor(10 * simtime.Millisecond)
	m := &tb.lg.M
	if m.Pauses == 0 || m.Resumes == 0 {
		t.Fatalf("backpressure never engaged: pauses=%d resumes=%d (lossEvents=%d)",
			m.Pauses, m.Resumes, m.LossEvents)
	}
	if m.RxBufOverflows != 0 {
		t.Fatalf("reordering buffer overflowed %d times despite backpressure", m.RxBufOverflows)
	}
	if m.RxBufPeak > cfg.RecircBufBytes {
		t.Fatalf("RxBufPeak %d exceeds cap %d", m.RxBufPeak, cfg.RecircBufBytes)
	}
	if uint64(len(tb.recvSeqs)) != m.Delivered {
		t.Fatalf("delivered mismatch: %d vs %d", len(tb.recvSeqs), m.Delivered)
	}
	if !inOrder(tb.recvSeqs) {
		t.Fatal("ordered mode reordered under load")
	}
	// All 30000 packets must arrive: recovery masked every loss.
	if len(tb.recvSeqs) != 30000 && m.Unrecovered == 0 {
		t.Fatalf("delivered %d of 30000 with no unrecovered accounting", len(tb.recvSeqs))
	}
}

func TestNoBackpressureOverflows(t *testing.T) {
	cfg := NewConfig(simtime.Rate100G, 1e-3)
	cfg.Backpressure = false
	cfg.RecircBufBytes = 50 << 10 // small buffer to force overflow quickly
	tb := newTestbed(t, simtime.Rate100G, cfg)
	tb.lg.Enable()
	tb.link.SetLoss(tb.link.A(), simnet.IIDLoss{P: 1e-3})
	tb.sendBurst(0, 30000, 1400)
	tb.runFor(10 * simtime.Millisecond)
	m := &tb.lg.M
	if m.Pauses != 0 {
		t.Fatal("pauses sent with backpressure disabled")
	}
	if m.RxBufOverflows == 0 {
		t.Fatal("expected reordering-buffer overflows without backpressure (Figure 9b)")
	}
	if len(tb.recvSeqs) >= 30000 {
		t.Fatal("overflow should lose packets")
	}
}

func TestEraWraparound(t *testing.T) {
	cfg := NewConfig(simtime.Rate100G, 1e-4)
	tb := newTestbed(t, simtime.Rate100G, cfg)
	tb.lg.Enable()
	// Cross the 16-bit wrap with a loss right at the boundary.
	const n = 70000
	dropDataNth(tb.link, tb.link.A(), 65534, 65535, 65536, 65537)
	tb.sendBurst(0, n, 200)
	tb.runFor(50 * simtime.Millisecond)
	if len(tb.recvSeqs) != n {
		t.Fatalf("delivered %d, want %d across era wrap", len(tb.recvSeqs), n)
	}
	if !inOrder(tb.recvSeqs) {
		t.Fatal("reordered across era wrap")
	}
	if tb.lg.M.Retransmits != 4 || tb.lg.M.Timeouts != 0 {
		t.Fatalf("retransmits=%d timeouts=%d, want 4/0", tb.lg.M.Retransmits, tb.lg.M.Timeouts)
	}
}

func TestEffectiveLossRateStatistical(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	// At 3% i.i.d. loss with N=1 copy, effective loss ≈ 9e-4.
	cfg := NewConfig(simtime.Rate100G, 0.03)
	cfg.Mode = NonBlocking
	cfg.RetxCopies = 1
	tb := newTestbed(t, simtime.Rate100G, cfg)
	tb.lg.Enable()
	tb.link.SetLoss(tb.link.A(), simnet.IIDLoss{P: 0.03})
	const n = 200000
	tb.sendBurst(0, n, 1400)
	tb.runFor(40 * simtime.Millisecond)
	m := &tb.lg.M
	lost := n - len(tb.recvSeqs)
	eff := float64(lost) / n
	if eff > 3e-3 || eff < 1e-4 {
		t.Fatalf("effective loss %.2e, want ~9e-4 (lost=%d, unrecovered=%d)", eff, lost, m.Unrecovered)
	}
	if m.Retransmits == 0 {
		t.Fatal("no retransmissions at 3% loss")
	}
}

func TestDisableDrains(t *testing.T) {
	cfg := NewConfig(simtime.Rate25G, 1e-4)
	tb := newTestbed(t, simtime.Rate25G, cfg)
	tb.lg.Enable()
	tb.sendBurst(0, 100, 1400)
	tb.runFor(simtime.Millisecond)
	tb.lg.Disable()
	tb.sendBurst(100, 100, 1400)
	tb.runFor(2 * simtime.Millisecond)
	if len(tb.recvSeqs) != 200 {
		t.Fatalf("delivered %d, want 200 after disable", len(tb.recvSeqs))
	}
	if tb.lg.M.TxBufBytes != 0 {
		t.Fatalf("Tx buffer not drained on disable: %d", tb.lg.M.TxBufBytes)
	}
	for _, sz := range tb.recvSizes {
		if sz != 1400 {
			t.Fatalf("size %d after disable, want 1400", sz)
		}
	}
}

// A drop still pending across Disable and Enable retires the entry the
// re-enable cleared. The restarted sequence stamps seq 1 again; the stale
// drop must not take the new entry with it, or its bytes stay in
// TxBufBytes for good and a loss of it could not be retransmitted.
func TestStaleRetireKeepsNewEntry(t *testing.T) {
	tb := newTestbed(t, simtime.Rate25G, NewConfig(simtime.Rate25G, 1e-4))
	tb.lg.Enable()
	tb.sendBurst(0, 1, 1000)
	for tb.lg.senderLatestRx != (seqnum.Seq{N: 1}) {
		if !tb.sim.Q.Step() {
			t.Fatal("queue ran dry before seq 1 was acked")
		}
	}
	// Seq 1 is claimed and its drop waits for the loop boundary.
	tb.lg.Disable()
	tb.lg.Enable()
	p := tb.sim.NewPacket(simnet.KindData, 1000, "h2")
	p.FlowID = 1
	tb.link.A().Send(p)
	tb.runFor(simtime.Millisecond)
	tb.lg.Settle()
	if len(tb.recvSeqs) != 2 {
		t.Fatalf("delivered %d, want 2", len(tb.recvSeqs))
	}
	if out, bytes := tb.lg.OutstandingTx(), tb.lg.M.TxBufBytes; out != 0 || bytes != 0 {
		t.Fatalf("after drain: %d entries, %d bytes in the Tx buffer, want 0 and 0", out, bytes)
	}
}

// TestCopiesForEquation2 checks that a Config without a RetxCopies override
// picks N by Equation 2 from its actual and target loss rates.
func TestCopiesForEquation2(t *testing.T) {
	cases := []struct {
		actual, target float64
		want           int
	}{
		{1e-4, 1e-8, 1},
		{1e-3, 1e-8, 2}, // paper: 2 copies at 1e-3
		{1e-5, 1e-8, 1},
		{1e-2, 1e-8, 3},
		{0, 1e-8, 1},
		{1e-3, 1e-9, 2},
		{1e-3, 1e-10, 3}, // hmm: -10/-3 - 1 = 2.33 -> 3
	}
	for _, c := range cases {
		cfg := Config{ActualLossRate: c.actual, TargetLossRate: c.target}
		if got := cfg.Copies(); got != c.want {
			t.Errorf("Copies() at (%g,%g) = %d, want %d", c.actual, c.target, got, c.want)
		}
	}
}

func TestSetModeRuntimeSwitch(t *testing.T) {
	cfg := NewConfig(simtime.Rate25G, 1e-3)
	tb := newTestbed(t, simtime.Rate25G, cfg)
	tb.lg.Enable()
	tb.link.SetLoss(tb.link.A(), simnet.IIDLoss{P: 1e-3})

	tb.sendBurst(0, 3000, 1200)
	tb.runFor(5 * simtime.Millisecond)
	if tb.lg.Mode() != Ordered {
		t.Fatal("default mode should be Ordered")
	}
	tb.lg.SetMode(NonBlocking)
	tb.sendBurst(3000, 3000, 1200)
	tb.runFor(5 * simtime.Millisecond)
	tb.lg.SetMode(Ordered)
	tb.sendBurst(6000, 3000, 1200)
	tb.runFor(10 * simtime.Millisecond)

	if got := len(tb.recvSeqs); got != 9000 {
		t.Fatalf("delivered %d/9000 across mode switches", got)
	}
	// The final ordered phase must be in order from where it resynced.
	tail := tb.recvSeqs[len(tb.recvSeqs)-2000:]
	if !inOrder(tail) {
		t.Fatal("re-entered ordered mode did not restore ordering")
	}
}

func TestSetModeFromNBCreatesBuffer(t *testing.T) {
	cfg := NewConfig(simtime.Rate25G, 1e-3)
	cfg.Mode = NonBlocking
	tb := newTestbed(t, simtime.Rate25G, cfg)
	tb.lg.Enable()
	tb.lg.SetMode(Ordered)
	dropDataNth(tb.link, tb.link.A(), 10)
	tb.sendBurst(0, 100, 1200)
	tb.runFor(5 * simtime.Millisecond)
	if len(tb.recvSeqs) != 100 || !inOrder(tb.recvSeqs) {
		t.Fatalf("NB->Ordered switch broken: %d delivered, ordered=%v",
			len(tb.recvSeqs), inOrder(tb.recvSeqs))
	}
	if tb.lg.M.ReceiverLoops == 0 {
		t.Fatal("reordering buffer not used after switching to Ordered")
	}
}
