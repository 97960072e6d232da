package core

import (
	"testing"

	"linkguardian/internal/seqnum"
	"linkguardian/internal/simnet"
	"linkguardian/internal/simtime"
)

// holds records, per protected seqNo, how long the receiver held the
// packet between its arrival off the protected link and its release, and
// the packet's size there (LinkGuardian header included).
type holds struct {
	arrive, release map[seqnum.Seq]simtime.Time
	size            map[seqnum.Seq]int
}

func watchHolds(tb *testbed) *holds {
	h := &holds{arrive: map[seqnum.Seq]simtime.Time{}, release: map[seqnum.Seq]simtime.Time{}, size: map[seqnum.Seq]int{}}
	ifc := tb.link.B()
	prev := ifc.OnIngress
	ifc.OnIngress = func(p *simnet.Packet) bool {
		if p.LG.Present && !p.LG.Dummy && !p.LG.Retx {
			h.arrive[p.LG.Seq] = tb.sim.Now()
			h.size[p.LG.Seq] = p.Size
		}
		return prev(p)
	}
	tb.lg.OnForward(func(p *simnet.Packet) { h.release[p.LG.Seq] = tb.sim.Now() })
	return h
}

// loops returns the recirculation loops each held packet made, assuming
// the packets never contended for the loop: a hold of k loops lasts exactly
// k x (serialization + loop latency).
func (h *holds) loops(t *testing.T, g *Instance, loopLatency simtime.Duration) (held int, total uint64) {
	t.Helper()
	rate := g.cfg.RecircRate * simtime.Rate(g.cfg.RecircPorts)
	for seq, at := range h.arrive {
		hold := h.release[seq].Sub(at)
		if hold == 0 {
			continue // forwarded in order on arrival
		}
		period := rate.Serialize(simtime.WireBytes(h.size[seq])) + loopLatency
		if hold%period != 0 {
			t.Fatalf("seq %v held %v, not a whole number of %v loops", seq, hold, period)
		}
		held++
		total += uint64(hold / period)
	}
	return held, total
}

// ReceiverLoops counts every insert and re-insert, replayed ones when the
// ring is next touched; once the buffer has drained the total is exact.
func TestReceiverLoopsCountsInsertsAndReinserts(t *testing.T) {
	cfg := NewConfig(simtime.Rate25G, 1e-3)
	tb := newTestbed(t, simtime.Rate25G, cfg)
	h := watchHolds(tb)
	tb.lg.Enable()
	// Seqs 2-6 arrive 326 ns apart behind the hole at seq 1. Modulo the
	// 541 ns loop their serializations never overlap, so each loops on
	// its own until the retransmission releases them.
	dropDataNth(tb.link, tb.link.A(), 1)
	tb.sendBurst(0, 6, 1000)
	tb.runFor(simtime.Millisecond)
	if len(tb.recvSeqs) != 6 || !inOrder(tb.recvSeqs) {
		t.Fatalf("delivered %v, want 6 in order", tb.recvSeqs)
	}
	held, loops := h.loops(t, tb.lg, cfg.RecircLoopLatency)
	if held != 5 || loops <= 2*uint64(held) {
		t.Fatalf("schedule held %d packets for %d loops; want 5 held, each looping repeatedly", held, loops)
	}
	if tb.lg.M.ReceiverLoops != loops {
		t.Fatalf("ReceiverLoops = %d, want %d (inserts plus re-inserts)", tb.lg.M.ReceiverLoops, loops)
	}
	if tb.lg.RxHeldBytes() != 0 {
		t.Fatalf("reordering buffer still holds %d bytes", tb.lg.RxHeldBytes())
	}
}

// Protect defaults RecircLoopLatency before it stores the configuration, so
// Config reports the latency the loop runs at.
func TestRecircLoopLatencyDefaultReported(t *testing.T) {
	cfg := NewConfig(simtime.Rate25G, 1e-3)
	cfg.RecircLoopLatency = 0
	tb := newTestbed(t, simtime.Rate25G, cfg)
	if got := tb.lg.Config().RecircLoopLatency; got != cfg.PipelineLatency {
		t.Fatalf("Config().RecircLoopLatency = %v, want the PipelineLatency default %v", got, cfg.PipelineLatency)
	}
}

// An instance built NonBlocking and switched to Ordered loops its held
// packets with the defaulted latency, not with none.
func TestSetModeOrderedUsesDefaultLoopLatency(t *testing.T) {
	cfg := NewConfig(simtime.Rate25G, 1e-3)
	cfg.Mode = NonBlocking
	cfg.RecircLoopLatency = 0
	tb := newTestbed(t, simtime.Rate25G, cfg)
	h := watchHolds(tb)
	tb.lg.Enable()
	tb.lg.SetMode(Ordered)
	dropDataNth(tb.link, tb.link.A(), 1)
	tb.sendBurst(0, 4, 1000)
	tb.runFor(simtime.Millisecond)
	if len(tb.recvSeqs) != 4 || !inOrder(tb.recvSeqs) {
		t.Fatalf("delivered %v, want 4 in order", tb.recvSeqs)
	}
	if held, _ := h.loops(t, tb.lg, cfg.PipelineLatency); held == 0 {
		t.Fatal("no packet was held in the reordering buffer")
	}
}

// The ring serves strict priority across classes and FIFO within one, and
// an insert overtakes only entries that have not started.
func TestRingServiceOrder(t *testing.T) {
	r := ring{rate: simtime.Rate100G, loop: 500 * simtime.Nanosecond}
	pkt := func(prio int) *simnet.Packet { return &simnet.Packet{Size: 1230, Prio: prio} }
	ser := r.rate.Serialize(simtime.WireBytes(1230))
	a, b, c, hi := pkt(simnet.PrioNormal), pkt(simnet.PrioNormal), pkt(simnet.PrioNormal), pkt(simnet.PrioHigh)
	r.insert(a, 0)
	r.insert(b, 0)
	r.insert(c, 0)
	// At ser, a's tx-end starts b. An insert scheduled further ahead than
	// a's serialization runs first, so b has not started for it.
	r.lead = ser + 1
	r.insert(hi, simtime.Time(ser))
	want := []*simnet.Packet{a, hi, b, c}
	for i, p := range want {
		e := r.es[i]
		if e.pkt != p {
			t.Fatalf("service position %d holds the wrong packet", i)
		}
		if e.start != simtime.Time(int64(i)*int64(ser)) || e.end != e.start.Add(ser) {
			t.Fatalf("position %d serializes [%v, %v), want back to back from 0", i, e.start, e.end)
		}
	}
	// With a shorter lead the tx-end runs first: b is on the wire and the
	// high-priority insert waits behind it.
	r = ring{rate: r.rate, loop: r.loop, lead: ser}
	r.insert(a, 0)
	r.insert(b, 0)
	r.insert(hi, simtime.Time(ser))
	if r.es[1].pkt != b || r.es[2].pkt != hi {
		t.Fatal("a high-priority insert overtook an entry already on the wire")
	}
}
