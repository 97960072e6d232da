// Package experiments reproduces every table and figure of the paper's
// evaluation on the simulated testbed: one constructor per experiment,
// returning the same rows/series the paper reports. The cmd/paper binary
// and the repository's benchmarks are thin wrappers over this package.
package experiments

import (
	"linkguardian/internal/core"
	"linkguardian/internal/simnet"
	"linkguardian/internal/simtime"
	"linkguardian/internal/transport"
)

// Testbed is the inner portion of the Figure 7 topology: two endpoint
// hosts, the LinkGuardian sender switch (sw2) and receiver switch (sw6),
// and the corrupting optical link between them (the VOA link).
type Testbed struct {
	Sim      *simnet.Sim
	H1, H2   *simnet.Host
	SW2, SW6 *simnet.Switch
	Link     *simnet.Link // protected link, sw2 -> sw6 is the corrupting direction
	LG       *core.Instance
	EP1, EP2 *transport.Endpoint

	rate simtime.Rate
}

// NewTestbed builds the testbed at the given link speed with a LinkGuardian
// instance (initially dormant) configured by cfg.
func NewTestbed(seed int64, rate simtime.Rate, cfg core.Config) *Testbed {
	return NewTestbedOn(simnet.NewSim(seed), "", rate, cfg)
}

// NewTestbedOn builds the testbed inside an existing simulation universe —
// one shard of a parallel engine, typically — with every node name
// prefixed (e.g. "s3." gives hosts s3.h1/s3.h2). The empty prefix
// reproduces NewTestbed's names exactly, so golden traces are unaffected.
func NewTestbedOn(s *simnet.Sim, prefix string, rate simtime.Rate, cfg core.Config) *Testbed {
	tb := &Testbed{Sim: s, rate: rate}
	tb.H1 = simnet.NewHost(s, prefix+"h1")
	tb.H2 = simnet.NewHost(s, prefix+"h2")
	tb.SW2 = simnet.NewSwitch(s, prefix+"sw2")
	tb.SW6 = simnet.NewSwitch(s, prefix+"sw6")
	l1 := simnet.Connect(s, tb.H1, tb.SW2, rate, 100*simtime.Nanosecond)
	tb.Link = simnet.Connect(s, tb.SW2, tb.SW6, rate, 100*simtime.Nanosecond)
	l2 := simnet.Connect(s, tb.SW6, tb.H2, rate, 100*simtime.Nanosecond)
	tb.SW2.AddRoute(tb.H2.NodeName(), tb.Link.A())
	tb.SW2.AddRoute(tb.H1.NodeName(), l1.B())
	tb.SW6.AddRoute(tb.H2.NodeName(), l2.A())
	tb.SW6.AddRoute(tb.H1.NodeName(), tb.Link.B())
	tb.LG = core.Protect(s, tb.Link.A(), cfg)
	tb.EP1 = transport.NewEndpoint(s, tb.H1)
	tb.EP2 = transport.NewEndpoint(s, tb.H2)
	return tb
}

// SetLoss installs an i.i.d. corruption model on the protected direction.
func (tb *Testbed) SetLoss(p float64) {
	if p <= 0 {
		tb.Link.SetLoss(tb.Link.A(), simnet.NoLoss{})
		return
	}
	tb.Link.SetLoss(tb.Link.A(), simnet.IIDLoss{P: p})
}

// Generator is the switch packet generator used by the §4.1 stress tests:
// it injects MTU-sized packets directly at sw2's protected egress at
// exactly line rate.
type Generator struct {
	tb       *Testbed
	dst      string
	size     int
	interval simtime.Duration
	sent     uint64
	running  bool
}

// StartGenerator begins line-rate injection of frameBytes-sized frames.
func (tb *Testbed) StartGenerator(frameBytes int) *Generator {
	return tb.StartGeneratorAt(frameBytes, 1)
}

// StartGeneratorAt begins paced injection of frameBytes-sized frames at
// the given fraction of line rate — the offered-load knob of the chaos
// scenarios. frac is clamped to (0, 1].
func (tb *Testbed) StartGeneratorAt(frameBytes int, frac float64) *Generator {
	if frac <= 0 || frac > 1 {
		frac = 1
	}
	g := &Generator{tb: tb, dst: tb.H2.NodeName(), size: frameBytes, running: true}
	g.interval = simtime.Duration(float64(tb.rate.Serialize(simtime.WireBytes(frameBytes))) / frac)
	tb.Sim.AfterCall(0, genTick, g, nil)
	return g
}

// genTick is the typed per-frame injection event: packets draw from the
// Sim's free list and the re-arm goes through the pooled event form, so a
// running generator is allocation-free in steady state.
func genTick(a0, _ any) {
	g := a0.(*Generator)
	if !g.running {
		return
	}
	pkt := g.tb.Sim.NewPacket(simnet.KindData, g.size, g.dst)
	pkt.FlowID = -1
	g.tb.Link.A().Send(pkt)
	g.sent++
	g.tb.Sim.AfterCall(g.interval, genTick, g, nil)
}

// Stop halts the generator.
func (g *Generator) Stop() { g.running = false }

// Sent returns the number of injected frames.
func (g *Generator) Sent() uint64 { return g.sent }

// Stream is a paced frame stream sourced at h1: unlike Generator, its
// frames take the host stack and the switches' routes, so they can cross
// into other segments of a fabric. The typed re-arm keeps it
// allocation-free in steady state.
type Stream struct {
	tb       *Testbed
	dst      string
	flow     int
	size     int
	interval simtime.Duration
	budget   int
	sent     int
	stopped  bool
}

// StartStream begins sending size-byte frames tagged flow from h1 to the
// host named dst, one every interval from delay on. budget > 0 caps the
// frames sent; 0 streams until Stop.
func (tb *Testbed) StartStream(dst string, flow, size int, interval, delay simtime.Duration, budget int) *Stream {
	s := &Stream{tb: tb, dst: dst, flow: flow, size: size, interval: interval, budget: budget}
	tb.Sim.AfterCall(delay, streamTick, s, nil)
	return s
}

func streamTick(a0, _ any) {
	s := a0.(*Stream)
	if s.stopped || (s.budget > 0 && s.sent >= s.budget) {
		return
	}
	pkt := s.tb.Sim.NewPacket(simnet.KindData, s.size, s.dst)
	pkt.FlowID = s.flow
	s.tb.H1.Send(pkt)
	s.sent++
	s.tb.Sim.AfterCall(s.interval, streamTick, s, nil)
}

// Stop halts the stream.
func (s *Stream) Stop() { s.stopped = true }

// Sent returns the number of frames sent.
func (s *Stream) Sent() int { return s.sent }

// CountReceived attaches a sink on h2 counting received data packets and
// payload bytes. The sink retains nothing, so the host recycles each packet
// to the free list after counting — closing the allocation-free loop from
// generator to sink.
func (tb *Testbed) CountReceived() (pkts *uint64, bytes *uint64) {
	var p, b uint64
	tb.H2.OnReceive = func(pkt *simnet.Packet) {
		p++
		b += uint64(pkt.Size)
	}
	tb.H2.Recycle = true
	return &p, &b
}
