package main

import (
	"fmt"
	"io"
	"time"

	"linkguardian/internal/core"
	"linkguardian/internal/eventq"
	"linkguardian/internal/experiments"
	"linkguardian/internal/seqnum"
	"linkguardian/internal/simnet"
	"linkguardian/internal/simtime"
)

// The sim workloads drive the Figure 7 inner testbed exactly as
// hotpath_bench_test.go does: one protected 100G link, 1500 B frames at
// 98 % of line rate, core.Ordered, a 256 KiB egress buffer, and a warm-up
// long enough for pools, queues and the reordering buffer to reach their
// high-water marks.
const (
	simFrameBytes = 1500
	simLoad       = 0.98
	simBufferCap  = 256 << 10
	simWarmup     = 10 * simtime.Millisecond
	simDrain      = simtime.Millisecond
)

// simRig is one running testbed with its generator and counters.
type simRig struct {
	tb  *experiments.Testbed
	gen *experiments.Generator
	rx  *uint64 // packets delivered to h2

	// Forwarded sequence numbers must be consecutive: that is in-order,
	// exactly-once release. seqErrs counts every departure from it.
	last    seqnum.Seq
	started bool
	seqErrs uint64
}

// newSimRig builds the testbed at the given corruption rate, with
// LinkGuardian enabled or dormant, and starts the generator.
func newSimRig(seed int64, loss float64, protect bool) *simRig {
	cfg := core.NewConfig(simtime.Rate100G, loss)
	cfg.Mode = core.Ordered
	g := &simRig{tb: experiments.NewTestbed(seed, simtime.Rate100G, cfg)}
	g.tb.SetLoss(loss)
	if protect {
		g.tb.LG.Enable()
		g.tb.LG.OnForward(func(p *simnet.Packet) {
			if g.started && p.LG.Seq != g.last.Next() {
				g.seqErrs++
			}
			g.last, g.started = p.LG.Seq, true
		})
	}
	g.rx, _ = g.tb.CountReceived()
	g.tb.Link.A().Port.Q(simnet.PrioNormal).MaxBytes = simBufferCap
	g.gen = g.tb.StartGeneratorAt(simFrameBytes, simLoad)
	return g
}

// advance runs the rig for d of simulated time and returns the packets
// delivered to h2 and the events fired meanwhile.
func (g *simRig) advance(d simtime.Duration, tr *tracer) (pkts, events uint64) {
	p0, e0 := *g.rx, g.tb.Sim.Q.Fired()
	tr.span("Sim.RunFor", func() { g.tb.Sim.RunFor(d) })
	return *g.rx - p0, g.tb.Sim.Q.Fired() - e0
}

// simCost is the host cost of forwarding on a rig, from timed slices.
type simCost struct {
	nsPerPkt, eventsPerPkt float64
}

// measure times n slices of d on a fresh rig after the standard warm-up.
func measureSim(seed int64, loss float64, protect bool, d simtime.Duration, n int, tr *tracer) simCost {
	g := newSimRig(seed, loss, protect)
	g.tb.Sim.RunFor(simWarmup)
	ns := make([]float64, n)
	var pkts, events uint64
	for i := range ns {
		t0 := time.Now()
		p, e := g.advance(d, tr)
		ns[i] = float64(time.Since(t0)) / float64(p)
		pkts += p
		events += e
	}
	g.gen.Stop()
	return simCost{nsPerPkt: median(ns), eventsPerPkt: float64(events) / float64(pkts)}
}

type simFamily struct {
	loss     float64
	seed     int64
	sliceDur simtime.Duration
	rig      *simRig

	pkts, events uint64 // over all slices
	queuePeak    int    // egress queue bytes, sampled at slice edges
	depthSum     int    // event-queue depth, sampled at slice edges
	depthN       int
}

func newSimFamily(loss float64, smoke bool) *simFamily {
	f := &simFamily{loss: loss, sliceDur: 20 * simtime.Millisecond}
	if smoke {
		f.sliceDur = simtime.Millisecond
	}
	return f
}

func (f *simFamily) setup(seed int64, tr *tracer) {
	f.seed = seed
	f.rig = newSimRig(seed, f.loss, true)
	tr.span("warmup", func() { f.rig.tb.Sim.RunFor(min(simWarmup, f.sliceDur)) })
}

func (f *simFamily) slice(_ int, tr *tracer) float64 {
	p, e := f.rig.advance(f.sliceDur, tr)
	f.pkts += p
	f.events += e
	f.queuePeak = max(f.queuePeak, f.rig.tb.Link.A().Port.Q(simnet.PrioNormal).Bytes())
	f.depthSum += f.rig.tb.Sim.Q.Len()
	f.depthN++
	return float64(p)
}

// verify stops the generator, lets the link drain, and checks that every
// packet the sender protected reached h2 in order, exactly once.
func (f *simFamily) verify() verdict {
	g := f.rig
	g.gen.Stop()
	g.tb.Sim.RunFor(simDrain)
	m := &g.tb.LG.M
	v := verdict{attempted: m.Protected}
	if m.Delivered < m.Protected {
		v.failed = m.Protected - m.Delivered
		v.errorf("%d of %d protected packets not forwarded after drain", v.failed, m.Protected)
	}
	if g.seqErrs > 0 {
		v.failed = max(v.failed, g.seqErrs)
		v.errorf("%d packets forwarded out of order or more than once", g.seqErrs)
	}
	if m.Unrecovered > 0 {
		v.failed = max(v.failed, m.Unrecovered)
		v.errorf("%d packets unrecovered", m.Unrecovered)
	}
	if *g.rx != m.Delivered {
		v.failed = max(v.failed, 1)
		v.errorf("h2 received %d packets, receiver forwarded %d", *g.rx, m.Delivered)
	}
	return v
}

// coreCount is one core.Metrics count under its per-layer name.
type coreCount struct {
	name string
	v    uint64
}

// coreCounts lists the core.Metrics counts reported per layer, in the
// order the digest hashes them.
func coreCounts(m *core.Metrics) []coreCount {
	return []coreCount{
		{"core.protected", m.Protected},
		{"core.retransmits", m.Retransmits},
		{"core.retx_copies", m.RetxCopies},
		{"core.loss_events", m.LossEvents},
		{"core.lost_packets", m.LostPackets},
		{"core.tail_detections", m.TailDetections},
		{"core.timeouts", m.Timeouts},
		{"core.unrecovered", m.Unrecovered},
		{"core.duplicates", m.Duplicates},
		{"core.dummies_sent", m.DummiesSent},
		{"core.acks_sent", m.AcksSent},
		{"core.acks_piggybacked", m.AcksPiggybacked},
		{"core.pauses", m.Pauses},
		{"core.txbuf_peak_bytes", uint64(m.TxBufPeak)},
		{"core.rxbuf_peak_bytes", uint64(m.RxBufPeak)},
	}
}

func (f *simFamily) digest(w io.Writer) {
	fmt.Fprintf(w, "delivered=%d events=%d\n", *f.rig.rx, f.rig.tb.Sim.Q.Fired())
	for _, c := range coreCounts(&f.rig.tb.LG.M) {
		fmt.Fprintf(w, "%s=%d\n", c.name, c.v)
	}
}

func (f *simFamily) layers(r *run) {
	m := &f.rig.tb.LG.M
	for _, c := range coreCounts(m) {
		r.set(c.name, float64(c.v))
	}
	if m.LostPackets > 0 {
		r.set("core.masked_share", 1-float64(m.Unrecovered)/float64(m.LostPackets))
	}
	r.set("simnet.queue_peak_bytes", float64(f.queuePeak))

	const legSlices = 3
	measured := r.nsPerUnit()
	eventsPerPkt := float64(f.events) / float64(f.pkts)
	depth := f.depthSum / f.depthN

	var bare, clean simCost
	r.leg("simnet.bare", func() { bare = measureSim(f.seed, 0, false, f.sliceDur, legSlices, r.tr) })
	clean = simCost{nsPerPkt: measured, eventsPerPkt: eventsPerPkt}
	if f.loss > 0 {
		r.leg("core.clean", func() { clean = measureSim(f.seed, 0, true, f.sliceDur, legSlices, r.tr) })
	}
	var nsPerEvent float64
	r.leg("eventq", func() { nsPerEvent = eventqLeg(r, depth) })

	r.set("eventq.events_per_pkt", eventsPerPkt)
	r.set("eventq.ns_per_pkt", eventsPerPkt*nsPerEvent)
	r.set("eventq.share", eventsPerPkt*nsPerEvent/measured)
	r.set("simnet.bare_ns_per_pkt", bare.nsPerPkt)
	r.set("core.ns_per_pkt", clean.nsPerPkt-bare.nsPerPkt)
	recovery := 0.0
	if f.loss > 0 && m.LossEvents > 0 {
		recovery = measured - clean.nsPerPkt
		r.set("core.recovery_ns_per_loss", recovery*float64(f.pkts)/float64(m.LossEvents))
	}

	// The budget: each row is host ns per delivered packet and the rows do
	// not overlap. The event queue's part is taken out of the simnet and
	// core rows, which are measured as differences between whole runs.
	rows := []struct {
		name string
		ns   float64
	}{
		{"eventq (isolated ns/event x events/pkt)", eventsPerPkt * nsPerEvent},
		{"simnet (bare forwarding, less its eventq part)", bare.nsPerPkt - bare.eventsPerPkt*nsPerEvent},
		{"core fast path (clean - bare, less its eventq part)",
			clean.nsPerPkt - bare.nsPerPkt - (clean.eventsPerPkt-bare.eventsPerPkt)*nsPerEvent},
		{"core recovery (lossy - clean, less its eventq part)",
			recovery - (eventsPerPkt-clean.eventsPerPkt)*nsPerEvent},
	}
	sum := 0.0
	fmt.Fprintf(logw, "budget %s: measured %.1f ns/pkt\n", r.Workload, measured)
	for _, row := range rows {
		fmt.Fprintf(logw, "  %-52s %8.1f ns/pkt %5.1f%%\n", row.name, row.ns, 100*row.ns/measured)
		sum += row.ns
	}
	fmt.Fprintf(logw, "  %-52s %8.1f ns/pkt %5.1f%%\n", "unattributed", measured-sum, 100*(measured-sum)/measured)
	r.set("sim.unattributed_share", (measured-sum)/measured)
}

// eventqLeg times the event queue alone at the given depth and sets the
// eventq.ns_per_event and eventq.cancel_ns metrics. ns_per_event is one
// AfterCall plus the Step that fires it. cancel_ns is what an armed and
// then canceled timer adds to that: its AfterCall, its Cancel and the
// lazy removal when it surfaces.
func eventqLeg(r *run, depth int) float64 {
	const n = 1 << 20
	nop := func(_, _ any) {}
	fill := func(q *eventq.Queue) {
		for i := 0; i < depth; i++ {
			q.AfterCall(int64(1+i), nop, nil, nil)
		}
	}
	// The delay keeps a new event behind the ones already queued, as a
	// packet's next hop is in the testbed.
	delay := int64(depth + 1)

	var q eventq.Queue
	fill(&q)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		q.AfterCall(delay, nop, nil, nil)
		q.Step()
	}
	perEvent := float64(time.Since(t0)) / n

	var qc eventq.Queue
	fill(&qc)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		t := qc.AfterCall(delay, nop, nil, nil)
		qc.AfterCall(delay, nop, nil, nil)
		qc.Cancel(t)
		qc.Step()
	}
	withCancel := float64(time.Since(t0)) / n

	r.set("eventq.ns_per_event", perEvent)
	r.set("eventq.cancel_ns", withCancel-perEvent)
	return perEvent
}
