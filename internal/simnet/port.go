package simnet

import (
	"linkguardian/internal/eventq"
	"linkguardian/internal/simtime"
)

// queueShrinkCap is the backing-array capacity above which a queue releases
// its storage once a burst drains, instead of keeping the high-water-mark
// capacity forever. It is set well above any steady-state depth — even a
// full 256KB-class switch buffer of minimum-size frames stays under it — so
// the release never runs on the hot path and a queue oscillating against
// its MaxBytes cap never thrashes between shrinking and regrowing; only a
// genuine burst pays one re-allocation on its next ramp-up.
const queueShrinkCap = 4096

// Queue is one FIFO class of an egress port. The zero value is an unbounded,
// unpaused queue.
type Queue struct {
	pkts  []*Packet
	head  int
	bytes int

	// Paused stops dequeues from this class (PFC). An in-flight frame
	// finishes transmitting; pausing only prevents new dequeues.
	paused bool
	// expiry auto-resumes a quanta-bounded pause (PauseFor).
	expiry eventq.Timer

	// MaxBytes, if positive, tail-drops enqueues that would exceed it.
	MaxBytes int

	// ECNThreshold, if positive, sets CE on ECN-capable packets enqueued
	// while the queue holds more than this many bytes (DCTCP-style
	// instantaneous marking).
	ECNThreshold int

	// OnDequeue, if set, is called just before a packet is transmitted,
	// letting protocol code stamp fresh state (e.g. the latest cumulative
	// ACK) at wire time rather than enqueue time.
	OnDequeue func(*Packet)

	// Drops counts tail drops due to MaxBytes.
	Drops uint64

	// PFC activity counters, as a switch ASIC's per-queue pause counters
	// would expose them: Pauses counts pause assertions (including quanta
	// refreshes), Resumes explicit resumes, PauseExpiries quanta timeouts
	// that auto-resumed the class.
	Pauses        uint64
	Resumes       uint64
	PauseExpiries uint64
}

// Len returns the number of queued packets.
func (q *Queue) Len() int { return len(q.pkts) - q.head }

// Bytes returns the queued byte count.
func (q *Queue) Bytes() int { return q.bytes }

// Paused reports the PFC pause state.
func (q *Queue) Paused() bool { return q.paused }

// Cap returns the capacity of the queue's backing array, for the shrink
// regression tests.
func (q *Queue) Cap() int { return cap(q.pkts) }

func (q *Queue) push(p *Packet) bool {
	if q.MaxBytes > 0 && q.bytes+p.Size > q.MaxBytes {
		q.Drops++
		return false
	}
	if q.ECNThreshold > 0 && p.ECNCapable && q.bytes > q.ECNThreshold {
		p.CE = true
	}
	q.pkts = append(q.pkts, p)
	q.bytes += p.Size
	return true
}

func (q *Queue) pop() *Packet {
	p := q.pkts[q.head]
	q.pkts[q.head] = nil
	q.head++
	q.bytes -= p.Size
	if q.head == len(q.pkts) {
		if cap(q.pkts) > queueShrinkCap {
			// A drained burst leaves a high-water-mark array behind;
			// release it rather than pin the peak footprint forever.
			q.pkts = nil
		} else {
			q.pkts = q.pkts[:0]
		}
		q.head = 0
	} else if q.head > 64 && q.head*2 > len(q.pkts) {
		n := copy(q.pkts, q.pkts[q.head:])
		for i := n; i < len(q.pkts); i++ {
			q.pkts[i] = nil
		}
		q.pkts = q.pkts[:n]
		q.head = 0
		if cap(q.pkts) > queueShrinkCap && n*4 <= cap(q.pkts) {
			// Compaction left the oversized array mostly empty: move the
			// survivors to a right-sized one and let the burst's peak go.
			fresh := make([]*Packet, n, max(64, 2*n))
			copy(fresh, q.pkts)
			q.pkts = fresh
		}
	}
	return p
}

// Port is an egress transmitter with strict-priority queues feeding one
// direction of a link. Queue 0 has the highest priority.
type Port struct {
	sim   *Sim
	ifc   *Ifc
	Rate  simtime.Rate
	qs    [NumPrios]Queue
	busy  bool
	txPkt *Packet          // frame currently on the wire, nil when idle
	txDur simtime.Duration // serialization time of txPkt

	// TxFrames/TxBytes count frames fully serialized onto the wire.
	TxFrames uint64
	TxBytes  uint64
	// BusyTime accumulates wire occupancy for utilization accounting.
	BusyTime simtime.Duration
}

// Q returns the queue for a priority class.
func (p *Port) Q(prio int) *Queue { return &p.qs[prio] }

// Idle reports whether the port is neither serializing a frame nor holding
// one in any class.
func (p *Port) Idle() bool {
	if p.busy {
		return false
	}
	for i := range p.qs {
		if p.qs[i].Len() > 0 {
			return false
		}
	}
	return true
}

// QueuedBytes returns the total bytes across all classes.
func (p *Port) QueuedBytes() int {
	n := 0
	for i := range p.qs {
		n += p.qs[i].bytes
	}
	return n
}

// Enqueue places a packet on its priority class and kicks the transmitter.
// It returns false if the class tail-dropped the packet; a dropped packet
// is terminal and goes back to the Sim's free list.
func (p *Port) Enqueue(pkt *Packet) bool {
	prio := pkt.Prio
	if prio < 0 || prio >= NumPrios {
		prio = PrioNormal
	}
	ok := p.qs[prio].push(pkt)
	if ok {
		p.kick()
	} else {
		p.sim.Release(pkt)
	}
	return ok
}

// Pause sets the PFC pause state of one class and kicks the transmitter on
// resume. An explicit pause or resume cancels any pending quanta expiry.
func (p *Port) Pause(class int, paused bool) {
	q := &p.qs[class]
	p.sim.Cancel(q.expiry)
	q.expiry = eventq.Timer{}
	if paused {
		q.Pauses++
	} else {
		q.Resumes++
	}
	q.paused = paused
	if !paused {
		p.kick()
	}
}

// pauseExpire is the typed quanta-expiry event: a0 is the Port, a1 the
// paused Queue.
func pauseExpire(a0, a1 any) {
	p := a0.(*Port)
	q := a1.(*Queue)
	q.expiry = eventq.Timer{}
	q.PauseExpiries++
	q.paused = false
	p.kick()
}

// PauseFor pauses one class for at most quanta (real PFC pause-quanta
// semantics): the pause auto-expires unless refreshed by another pause
// frame or lifted early by a resume. quanta <= 0 pauses indefinitely.
func (p *Port) PauseFor(class int, quanta simtime.Duration) {
	if quanta <= 0 {
		p.Pause(class, true)
		return
	}
	q := &p.qs[class]
	p.sim.Cancel(q.expiry)
	q.Pauses++
	q.paused = true
	q.expiry = p.sim.AfterCall(quanta, pauseExpire, p, q)
}

func (p *Port) kick() {
	if p.busy {
		return
	}
	p.transmitNext()
}

// portTxDone is the typed end-of-serialization event: a0 is the Port, whose
// txPkt/txDur fields carry the frame being completed (one frame is on the
// wire per port at a time).
func portTxDone(a0, _ any) {
	p := a0.(*Port)
	pkt, d := p.txPkt, p.txDur
	p.busy = false
	p.txPkt = nil
	p.TxFrames++
	p.TxBytes += uint64(pkt.Size)
	p.BusyTime += d
	p.ifc.link.deliver(pkt, p.ifc)
	p.transmitNext()
}

func (p *Port) transmitNext() {
	var q *Queue
	for i := range p.qs {
		if p.qs[i].Len() > 0 && !p.qs[i].paused {
			q = &p.qs[i]
			break
		}
	}
	if q == nil {
		return
	}
	pkt := q.pop()
	if q.OnDequeue != nil {
		q.OnDequeue(pkt)
	}
	p.busy = true
	p.txPkt = pkt
	p.txDur = p.Rate.Serialize(simtime.WireBytes(pkt.Size))
	p.sim.AfterCall(p.txDur, portTxDone, p, nil)
}
