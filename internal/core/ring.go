package core

import (
	"linkguardian/internal/seqnum"
	"linkguardian/internal/simnet"
	"linkguardian/internal/simtime"
)

// ring is the receiver's reordering buffer (§3.3): a recirculation port
// that sends each held packet round a loop of serialization plus
// RecircLoopLatency until Algorithm 1 releases it. Like the sender's Tx
// buffer it is modeled in closed form. The entries are kept in the order
// Port.transmitNext would serve them — strict priority across classes,
// FIFO within one — with their serialization intervals. A loop completion
// that would only send a packet round again is replayed arithmetically
// the next time the ring is touched; only a completion that does something
// costs an event.
type ring struct {
	rate simtime.Rate     // RecircRate x RecircPorts
	loop simtime.Duration // RecircLoopLatency

	es   []ringEntry // service order; es[head:] are held
	head int

	// lead is how long before now the event inserting a packet was
	// scheduled: the protected link's delay for an arrival, loop for a
	// completion. It orders the insert against a serialization ending now.
	lead simtime.Duration

	replaying   bool
	wake, chain simtime.Time // instants of the last armed wakeups
}

// ringEntry is one held packet and its serialization interval, projected
// until it starts.
type ringEntry struct {
	pkt        *simnet.Packet
	prio       int
	ser        simtime.Duration
	start, end simtime.Time
}

// started reports whether es[k] has started serializing for an insert at
// now. One that starts at now because its predecessor ends then has not,
// if the insert's event was scheduled earlier than that tx-end's. The head
// has always started: the loop latency keeps a completed entry's
// serialization in the past.
func (r *ring) started(k int, now simtime.Time) bool {
	e := &r.es[k]
	if e.start != now || k == r.head {
		return e.start <= now
	}
	prev := &r.es[k-1]
	return prev.end != now || r.lead <= prev.ser
}

// insert queues pkt on the port at now, behind every started entry and
// every waiting one of its class or a higher one, and re-flows the
// serializations it overtakes.
func (r *ring) insert(pkt *simnet.Packet, now simtime.Time) {
	prio := pkt.Prio
	if prio < 0 || prio >= simnet.NumPrios {
		prio = simnet.PrioNormal
	}
	if r.head > 64 && r.head*2 > len(r.es) {
		n := copy(r.es, r.es[r.head:])
		clear(r.es[n:])
		r.es, r.head = r.es[:n], 0
	}
	r.es = append(r.es, ringEntry{})
	i := len(r.es) - 1
	for i > r.head && r.es[i-1].prio > prio && !r.started(i-1, now) {
		r.es[i] = r.es[i-1]
		i--
	}
	r.es[i] = ringEntry{pkt: pkt, prio: prio, ser: r.rate.Serialize(simtime.WireBytes(pkt.Size))}
	free := now // the port is free from here
	if i > r.head {
		free = max(now, r.es[i-1].end)
	}
	for j := i; j < len(r.es); j++ {
		e := &r.es[j]
		e.start, e.end = free, free.Add(e.ser)
		free = e.end
	}
}

// pop removes the head entry, whose loop has completed.
func (r *ring) pop() *simnet.Packet {
	e := &r.es[r.head]
	pkt := e.pkt
	*e = ringEntry{}
	if r.head++; r.head == len(r.es) {
		r.es, r.head = r.es[:0], 0
	}
	return pkt
}

// ringQuiet reports whether a loop completion could leave everything but
// the ring unchanged: the instance is enabled, Ordered and not draining,
// the stall watch is armed, and the depth gauge and Algorithm 2 are
// settled at the current occupancy.
func (g *Instance) ringQuiet() bool {
	if !g.enabled || g.draining || g.cfg.Mode != Ordered || !g.stallArmed ||
		g.M.RxBufBytes != g.rxHeld || g.M.RxBufPeak < g.rxHeld {
		return false
	}
	switch {
	case !g.cfg.Backpressure:
		return true
	case g.paused:
		return g.rxHeld > g.cfg.ResumeThreshold
	default:
		return g.rxHeld < g.cfg.PauseThreshold
	}
}

// loopsAgain reports whether onRecirc would only send pkt round again.
func (g *Instance) loopsAgain(pkt *simnet.Packet, quiet bool) bool {
	return quiet && pkt.RxBuffered && seqnum.Compare(pkt.LG.Seq, g.ackNo) == 1
}

// replayRing settles the loop completions before now, and at now when
// inclusive: a packet that loops again is re-inserted at its completion
// instant and counted in ReceiverLoops, any other runs onRecirc. Every
// entry point that changes what loopsAgain reads replays first.
func (g *Instance) replayRing(inclusive bool) {
	r := &g.ring
	if r.replaying || r.head == len(r.es) {
		return
	}
	r.replaying = true
	r.lead = r.loop
	now, quiet := g.rt.Now(), g.ringQuiet()
	for r.head < len(r.es) {
		c := r.es[r.head].end.Add(r.loop)
		if c > now || (c == now && !inclusive) {
			break
		}
		if pkt := r.pop(); g.loopsAgain(pkt, quiet) {
			r.insert(pkt, c)
			g.M.ReceiverLoops++
		} else {
			g.onRecirc(pkt)
			quiet = g.ringQuiet()
		}
	}
	r.replaying = false
}

// armRing schedules a wakeup at the earliest loop completion that does
// something. Inserts only delay a waiting entry, so the projection is
// never late; an early wakeup re-arms. A wakeup is armed no earlier than
// one loop latency ahead — when the port would have scheduled the
// packet's return — so it keeps that place among its instant's events. A
// chain wakeup bridges a longer wait.
func (g *Instance) armRing() {
	r := &g.ring
	if r.replaying || r.head == len(r.es) {
		return
	}
	quiet := g.ringQuiet()
	for i := r.head; i < len(r.es); i++ {
		e := &r.es[i]
		if g.loopsAgain(e.pkt, quiet) {
			continue
		}
		if e.end > g.rt.Now() {
			g.wakeAt(&r.chain, e.end, ringChainFire)
		} else {
			g.wakeAt(&r.wake, e.end.Add(r.loop), ringWakeFire)
		}
		return
	}
}

func (g *Instance) wakeAt(last *simtime.Time, at simtime.Time, fn func(a0, a1 any)) {
	if *last != at {
		*last = at
		g.rt.AtCall(at, fn, g, nil)
	}
}

// ringWakeFire runs the loop completions due now: a0 is the Instance.
func ringWakeFire(a0, _ any) {
	g := a0.(*Instance)
	g.replayRing(true)
	g.armRing()
}

// ringChainFire re-arms one loop latency before a completion: a0 is the
// Instance.
func ringChainFire(a0, _ any) {
	g := a0.(*Instance)
	g.replayRing(false)
	g.armRing()
}
