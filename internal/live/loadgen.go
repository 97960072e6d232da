package live

import (
	"encoding/binary"
	"fmt"
	"time"

	"linkguardian/internal/obs"
	"linkguardian/internal/simnet"
	"linkguardian/internal/simtime"
)

// The loadgen payload header: flow id, per-flow sequence number and the
// send wall-clock timestamp, so the receiving sink audits delivery per
// flow and measures end-to-end delivery latency. Both halves of a multi
// run live in one process (or one machine), so a raw UnixNano comparison
// is a valid latency — across real machines this field would need clock
// sync, which is out of scope for the loopback harness.
const loadgenHeaderBytes = 4 + 8 + 8

// latencyBounds are the delivery-latency histogram buckets in seconds:
// log-spaced from 50µs to ~26s, fine enough that a bucket upper bound is
// an honest p99/p99.9 estimate at millisecond scales.
var latencyBounds = func() []float64 {
	var b []float64
	for v := 50e-6; v < 30; v *= 1.5 {
		b = append(b, v)
	}
	return b
}()

// FlowAudit is the receiving app: per-flow exactly-once in-order delivery
// accounting of loadgen traffic plus a delivery-latency histogram. With
// LinkGuardian in Ordered mode the audit must stay clean — no gaps, no
// out-of-sequence arrivals, no duplicates — because the whole point of the
// protected link is that the transport above never sees the corruption.
// Bookkeeping is O(losses), not O(traffic). All fields are written on the
// loop goroutine; read via Loop.Call or after the loop has stopped.
type FlowAudit struct {
	Rx        uint64 // loadgen packets delivered
	RxBytes   uint64
	Short     uint64 // payloads too short to carry the loadgen header
	Gaps      uint64 // per-flow sequence jumps
	Lost      uint64 // per-flow missing deliveries (net of late arrivals)
	OutOfSeq  uint64 // late arrivals that reclassified a loss to a reorder
	Duplicate uint64 // re-delivery of an already-audited (flow, seq)

	Latency *obs.Histogram // delivery latency in seconds

	flows map[uint32]*flowState
}

// flowState is one flow's audit cursor.
type flowState struct {
	next    uint64
	missing map[uint64]bool
}

// Flows returns how many distinct flows have delivered at least once.
func (a *FlowAudit) Flows() int { return len(a.flows) }

// Quantile estimates the q-quantile (0 < q ≤ 1) of the delivery latency
// from the histogram buckets, returning the upper bound of the bucket the
// quantile falls in. Use on a snapshot (HistQuantile) for off-loop reads.
func (a *FlowAudit) Quantile(q float64) time.Duration {
	h := obs.HistPoint{Bounds: latencyBounds, Counts: a.Latency.Counts(), N: a.Latency.N()}
	return time.Duration(HistQuantile(h, q) * float64(time.Second))
}

// HistQuantile estimates the q-quantile of a snapshot histogram: the
// upper bound (in the histogram's unit) of the bucket where the
// cumulative count crosses q·N. The overflow bucket reports the last
// finite bound — by then the estimate is a floor, not a ceiling.
func HistQuantile(h obs.HistPoint, q float64) float64 {
	if h.N == 0 {
		return 0
	}
	target := uint64(q * float64(h.N))
	if target == 0 {
		target = 1
	}
	cum := uint64(0)
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			if i < len(h.Bounds) {
				return h.Bounds[i]
			}
			break
		}
	}
	if len(h.Bounds) == 0 {
		return 0
	}
	return h.Bounds[len(h.Bounds)-1]
}

// Check is the audit's strict verdict, the rule behind every live
// -strict exit (per link through LinkReport.Check, and the split
// receiver's own): no app-visible loss, duplicate or reordering, no
// sequence gap, and no payload too short to audit.
func (a *FlowAudit) Check() error {
	switch {
	case a.Lost != 0:
		return fmt.Errorf("%d app-visible lost packets (%d gaps)", a.Lost, a.Gaps)
	case a.Duplicate != 0:
		return fmt.Errorf("%d duplicate deliveries", a.Duplicate)
	case a.OutOfSeq != 0:
		return fmt.Errorf("%d out-of-order deliveries", a.OutOfSeq)
	case a.Gaps != 0:
		return fmt.Errorf("%d gap events", a.Gaps)
	case a.Short != 0:
		return fmt.Errorf("%d payloads too short for the flow header", a.Short)
	}
	return nil
}

// newFlowAudit builds an empty audit and registers its counters and
// latency histogram in r.
func newFlowAudit(r *obs.Registry) *FlowAudit {
	a := &FlowAudit{flows: make(map[uint32]*flowState)}
	a.Latency = r.Histogram("live.flow.latency_seconds", latencyBounds...)
	r.CounterFunc("live.flow.rx", func() uint64 { return a.Rx })
	r.CounterFunc("live.flow.rx_bytes", func() uint64 { return a.RxBytes })
	r.CounterFunc("live.flow.short", func() uint64 { return a.Short })
	r.CounterFunc("live.flow.gaps", func() uint64 { return a.Gaps })
	r.CounterFunc("live.flow.lost", func() uint64 { return a.Lost })
	r.CounterFunc("live.flow.out_of_seq", func() uint64 { return a.OutOfSeq })
	r.CounterFunc("live.flow.duplicates", func() uint64 { return a.Duplicate })
	r.CounterFunc("live.flow.flows", func() uint64 { return uint64(len(a.flows)) })
	return a
}

// flowSink audits one delivered loadgen packet against its flow's cursor
// and records the delivery latency. A sequence jump records the skipped
// seqs as Lost; if one shows up later it reclassifies from Lost to
// OutOfSeq (a reorder the app had to tolerate, still a strict-mode
// violation); anything already delivered counts Duplicate.
func (ep *Endpoint) flowSink(pkt *simnet.Packet) {
	a := ep.Flow
	a.Rx++
	a.RxBytes += uint64(pkt.Size)
	payload := payloadBytes(pkt)
	if len(payload) < loadgenHeaderBytes {
		a.Short++
		return
	}
	flow := binary.BigEndian.Uint32(payload)
	seq := binary.BigEndian.Uint64(payload[4:])
	sentNano := int64(binary.BigEndian.Uint64(payload[12:]))
	a.Latency.Observe(float64(time.Now().UnixNano()-sentNano) / 1e9)
	st := a.flows[flow]
	if st == nil {
		st = &flowState{}
		a.flows[flow] = st
	}
	switch {
	case seq == st.next:
		st.next = seq + 1
	case seq > st.next:
		a.Gaps++
		a.Lost += seq - st.next
		if st.missing == nil {
			st.missing = make(map[uint64]bool)
		}
		for s := st.next; s < seq; s++ {
			st.missing[s] = true
		}
		st.next = seq + 1
	default:
		if st.missing[seq] {
			delete(st.missing, seq)
			a.Lost--
			a.OutOfSeq++
		} else {
			a.Duplicate++
		}
	}
}

// loadgen paces a sending endpoint's share of the flow population:
// packets round-robin across its flows on the Sim.Every ladder, each
// stamped with flow id, per-flow sequence and send time.
type loadgen struct {
	ep       *Endpoint
	flowBase uint32
	size     int
	count    uint64
	sent     uint64
	seqs     []uint64 // per-flow next sequence number
	done     chan struct{}

	slab *payloadSlab // the block the next payloads come from
	slot int          // its next free slot
}

// payloadSlab is a block of loadgen payloads allocated together. Each
// packet takes the next slot and no slot is ever reused, so one allocation
// serves payloadSlabSlots packets, a payload is never rewritten, and a
// block lives as long as any packet copy points into it. A packet's
// Payload is a pointer to its slot's view, so setting it allocates nothing.
type payloadSlab struct {
	hdr  [payloadSlabSlots][loadgenHeaderBytes]byte
	view [payloadSlabSlots][]byte
}

const payloadSlabSlots = 256

// StartLoadgen begins offering flow-stamped traffic: count packets of
// size bytes at pps packets/second aggregate, round-robin across flows
// concurrent flows whose ids start at flowBase (globally unique across
// the links of a multi-link run). Frames smaller than the loadgen header
// are padded up to it. The returned channel closes when the last packet
// has been offered. Call on a sender, after Start.
func (ep *Endpoint) StartLoadgen(flowBase uint32, flows int, count uint64, size int, pps float64) (<-chan struct{}, error) {
	if ep.lgen != nil {
		return nil, fmt.Errorf("live: loadgen already started")
	}
	if pps <= 0 || size <= 0 || count == 0 || flows <= 0 {
		return nil, fmt.Errorf("live: loadgen needs positive pps, size, count and flows")
	}
	if size < loadgenHeaderBytes {
		size = loadgenHeaderBytes
	}
	g := &loadgen{
		ep:       ep,
		flowBase: flowBase,
		size:     size,
		count:    count,
		seqs:     make([]uint64, flows),
		done:     make(chan struct{}),
	}
	ep.lgen = g
	interval := simtime.Duration(float64(simtime.Second) / pps)
	if interval <= 0 {
		interval = simtime.Nanosecond
	}
	if !ep.Loop.Do(func() { ep.Loop.Every(interval, g.tick) }) {
		return nil, fmt.Errorf("live: loop not running")
	}
	return g.done, nil
}

// tick offers one packet per firing, cycling through the flows.
func (g *loadgen) tick() bool {
	ep := g.ep
	idx := int(g.sent % uint64(len(g.seqs)))
	p := ep.Loop.NewPacket(simnet.KindData, g.size, ep.cfg.DeliverTo)
	if g.slab == nil || g.slot == payloadSlabSlots {
		g.slab, g.slot = new(payloadSlab), 0
	}
	s := g.slab
	payload := s.hdr[g.slot][:]
	binary.BigEndian.PutUint32(payload, g.flowBase+uint32(idx))
	binary.BigEndian.PutUint64(payload[4:], g.seqs[idx])
	binary.BigEndian.PutUint64(payload[12:], uint64(time.Now().UnixNano()))
	s.view[g.slot] = payload
	p.Payload = &s.view[g.slot]
	g.slot++
	p.FlowID = int(g.flowBase) + idx
	g.seqs[idx]++
	g.sent++
	ep.App.Tx++
	ep.host.Send(p)
	if g.sent >= g.count {
		close(g.done)
		return false
	}
	return true
}
