package core

import (
	"unsafe"

	"linkguardian/internal/eventq"
	"linkguardian/internal/simnet"
	"linkguardian/internal/simtime"
)

// ctrlStream is one self-replenishing control stream: the dummies on the
// sender's port (§3.2) or the explicit ACKs on the receiver's (§3.1).
type ctrlStream struct {
	hook func(*simnet.Packet) // the dequeue hook, installed by the first seeding
	// next is the pending replenish, scheduled one interval after the
	// stream's last frame went on the wire.
	next eventq.Timer
	// frame stands in for the stream's frames in a replay; allocated by
	// the first one.
	frame *simnet.Packet
}

// An idle protected link still carries both control streams, one frame
// every pacing interval each, and each frame costs three events:
// replenish, tx-done and delivery. While the instance sits at a protocol
// fixed point — everything sent is received and acked and the ACK view is
// current, no loss is open, the reordering buffer is empty, and both ports
// are idle between the streams' frames — those events change nothing but
// counters. replayStreams then computes them in closed form up to the
// first event that is not theirs, and fires an event only where the
// streams meet the rest of the simulation.
//
// The replay is exact. The streams share one pacing interval and one
// serialization time, so their frames alternate, the firing stream's
// first: it draws each frame's packet ID and runs the link's verdict on it
// in that order (simnet.Link.Replay), with the DropFn or loss-model draws
// the verdict makes, and moves the counters as the handlers would. It
// consumes the tie-breaking numbers the replayed events would have drawn,
// three per frame, and stops at the last instant before the next foreign
// event at which both streams are idle. Each stream's next replenish
// re-enters the queue at a ticket of its own, drawn last and in the order
// the events the replay stands for would have drawn them.

// sameFunc reports whether a and b are one func value — the same closure
// record, not merely the same code.
func sameFunc[F ~func(*simnet.Packet) | ~func(*simnet.Packet) bool](a, b F) bool {
	return *(*unsafe.Pointer)(unsafe.Pointer(&a)) == *(*unsafe.Pointer)(unsafe.Pointer(&b))
}

// atFixedPoint reports whether the streams' frames would change nothing but
// counters: the instance is enabled, not draining and not pausing the
// sender; every sent seqNo is received and acked and the ACK view is
// current; no loss is open; the reordering buffer is empty; and neither
// stream has a frame queued.
func (g *Instance) atFixedPoint() bool {
	return g.enabled && !g.draining && !g.paused &&
		g.senderLatestRx == g.lastTx && g.lastTx == g.latestRx && g.latestRx == g.ackView &&
		g.ackPend.head == len(g.ackPend.q) && len(g.missing) == 0 &&
		g.ring.head == len(g.ring.es) && g.dummyOut == 0 && g.ackOut == 0
}

// replayable reports whether the link is structurally fit for a replay:
// one instance holds both ends and its hooks are the only ones on the
// streams' paths, both streams on one pacing interval and one line rate,
// and frames that meet nothing but the verdict (simnet.Link.Replayable).
func (g *Instance) replayable() bool {
	if g.role != RoleBoth || g.ack.hook == nil ||
		g.sendIfc.Port.Rate != g.recvIfc.Port.Rate || !g.sendIfc.Link().Replayable() ||
		!sameFunc(g.sendIfc.OnIngress, g.revHook) || !sameFunc(g.recvIfc.OnIngress, g.protHook) ||
		!sameFunc(g.recvIfc.Port.Q(simnet.PrioAck).OnDequeue, g.ack.hook) {
		return false
	}
	return !g.cfg.TailLossDetection || g.dummy.hook != nil && g.cfg.DummyInterval == g.cfg.AckInterval &&
		sameFunc(g.sendIfc.Port.Q(simnet.PrioLow).OnDequeue, g.dummy.hook)
}

// replayStreams runs in place of stream x's replenish once the instance is
// at a fixed point. When the link is fit for it and at least two pacing
// intervals pass before the next event that is not the streams', it
// replays both streams, starting with x's own replenish, up to the last
// instant before that event at which both are idle, and reports true.
// Otherwise it changes nothing and the caller replenishes on the event
// path.
func (g *Instance) replayStreams(x *ctrlStream) bool {
	if !g.replayable() ||
		!g.sendIfc.Port.Idle() || !g.recvIfc.Port.Idle() ||
		g.sendIfc.Port.Q(simnet.PrioLow).Paused() || g.recvIfc.Port.Q(simnet.PrioAck).Paused() {
		return false
	}
	var y *ctrlStream // the other stream, if there are two
	if g.cfg.TailLossDetection {
		y = &g.dummy
		if x == y {
			y = &g.ack
		}
	}
	now, period := g.rt.Now(), g.cfg.AckInterval
	delay := g.sendIfc.Link().Delay
	busy := g.sendIfc.Port.Rate.Serialize(simtime.WireBytes(simtime.MinFrame)) + delay
	if busy >= period || !x.next.Canceled() {
		// A frame would outlive its interval, or x's replenish is pending
		// still and the firing one is a stray: not a phase the replay
		// models. Otherwise x's last frame went out one interval ago and
		// has landed.
		return false
	}
	var skip eventq.Timer
	ya := now // y's pending replenish
	if y != nil {
		skip, ya = y.next, simtime.Time(y.next.At())
		if skip.Canceled() || ya.Add(busy-period) >= now {
			// y's last frame, sent one interval before ya, is still on
			// its way.
			return false
		}
	}
	w, ok := g.rt.Horizon(skip)
	if !ok || w.Sub(now) < 2*period {
		return false
	}
	// Cut the replay at the last instant before w at which neither stream
	// has a frame on the wire or in flight: back off to y's last replenish
	// if y is busy at w, then to x's if x is busy there. y's frames land
	// before x's next replenish, so y is idle at each of x's. The window
	// leaves both streams at least one frame: the cut stays past now+period.
	end := w
	for _, a := range [2]simtime.Time{ya, now} {
		if last := a.Add(simtime.Duration(frames(a, end, period)-1) * period); end <= last.Add(busy) {
			end = last
		}
	}
	kx, ky := frames(now, end, period), 0
	if y != nil {
		ky = frames(ya, end, period)
	}
	if g.ack.frame == nil {
		g.dummy.frame, g.ack.frame = new(simnet.Packet), new(simnet.Packet)
	}
	*g.dummy.frame = simnet.Packet{Kind: simnet.KindDummy, Size: simtime.MinFrame, Prio: simnet.PrioLow,
		LG: simnet.LGData{Present: true, Dummy: true, LastTx: g.lastTx}}
	*g.ack.frame = simnet.Packet{Kind: simnet.KindLGAck, Size: simtime.MinFrame, Prio: simnet.PrioAck,
		LGAck: simnet.LGAck{Present: true, Valid: true, LatestRx: g.ackView}}
	for k := range kx {
		g.replayFrame(x)
		if k < ky {
			g.replayFrame(y)
		}
	}
	// x's first replenish is the event dispatched now.
	n := 3 * (kx + ky)
	if y == nil {
		g.rt.AddReplayed(n-1, n-1)
		g.reenter(x, now, kx, period)
		return true
	}
	g.rt.AddReplayed(n-1, n-2)
	g.rt.Cancel(y.next)
	if ky == kx {
		// x's last replenish precedes y's: it draws its successor first.
		g.reenter(x, now, kx, period)
		g.reenter(y, ya, ky, period)
	} else {
		g.reenter(y, ya, ky, period)
		g.reenter(x, now, kx, period)
	}
	return true
}

// frames counts the replenishes of a stream first replenished at a that
// precede end, for end after a.
func frames(a, end simtime.Time, period simtime.Duration) int {
	return int(int64(end.Sub(a)-1)/int64(period)) + 1
}

// replayFrame replays one frame of stream s, stamped at the fixed point
// as the replenish and the dequeue hook would stamp it: judged by the
// link's verdict, and absorbed at the peer as the ingress MAC and the
// instance's hook would absorb it — a corrupted frame is dropped, a dummy
// announces nothing new, an ACK acks nothing new.
func (g *Instance) replayFrame(s *ctrlStream) {
	if s == &g.dummy {
		g.M.DummiesSent++
		if !g.sendIfc.Link().Replay(g.sendIfc, s.frame) {
			g.ring.lead = g.recvIfc.Link().Delay
		}
		return
	}
	g.M.AcksSent++
	if !g.recvIfc.Link().Replay(g.recvIfc, s.frame) {
		g.M.AcksReceived++
	}
}

// reenter schedules stream s's next replenish after k replayed frames from
// a, at a ticket drawn now.
func (g *Instance) reenter(s *ctrlStream, a simtime.Time, k int, period simtime.Duration) {
	fire := replenishAcksFire
	if s == &g.dummy {
		fire = replenishDummiesFire
	}
	s.next = g.rt.ScheduleCallAt(g.rt.TicketAt(a.Add(simtime.Duration(k)*period)), fire, g, nil)
}
