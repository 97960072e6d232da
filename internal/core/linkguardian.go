package core

import (
	"linkguardian/internal/eventq"
	"linkguardian/internal/seqnum"
	"linkguardian/internal/simnet"
	"linkguardian/internal/simtime"
)

// Instance is one LinkGuardian protocol instance protecting one direction
// of one link: the direction transmitted by the sender interface passed to
// Protect. The reverse direction carries ACKs, loss notifications and
// PFC pause/resume frames and is assumed lossless (the paper's
// unidirectional-corruption assumption, §3; 91.8% of corrupting links in
// production corrupt one direction only).
type Instance struct {
	rt   Runtime
	role Role

	// M exposes protocol instrumentation. Read-only for callers.
	M Metrics

	sendIfc *simnet.Ifc // sender switch egress on the protected link
	recvIfc *simnet.Ifc // receiver switch side of the same link

	enabled  bool
	draining bool // Disable called; flush in-flight state

	// Sender state (Figure 17).
	nextSeq        seqnum.Seq
	lastTx         seqnum.Seq // last protected seqNo put on the wire
	senderLatestRx seqnum.Seq // sender's copy of latestRxSeqNo
	// txTab is the Tx buffer, indexed by seq.N modulo its power-of-two
	// length like the hardware's per-seqNo register arrays (txGet checks
	// the stored seq, era included); txCount counts its entries.
	txTab   []*txEntry
	txCount int
	// txRetire holds each entry handleAck claimed under a ticket for its
	// loop boundary; settleTx retires the due ones.
	txRetire pending[*txEntry]
	copies   int // N from Equation 2

	// Receiver state.
	latestRx seqnum.Seq // highest seqNo seen
	// ackView is the latestRx value visible to the ACK-stamping egress
	// logic: it trails latestRx by one pipeline traversal, exactly like
	// the loss-notification mirror. This matters for correctness — an ACK
	// covering a lost seqNo must never overtake the loss notification, or
	// the sender would flush the buffered copy before learning it has to
	// retransmit it. The traversal holds no event: setLatestRx queues each
	// observation in ackPend under a ticket one pipeline latency ahead, and
	// both ACK stampers read the view through settleAckView, which applies
	// the due ones in order.
	ackView    seqnum.Seq
	ackPend    pending[seqnum.Seq]
	ackNo      seqnum.Seq // next seqNo to forward (Ordered mode)
	missing    map[seqnum.Seq]lossRecord
	notified   seqnum.Seq // highest seqNo ever included in a loss notification
	ring       ring
	rxHeld     int  // bytes currently held in the reordering buffer
	paused     bool // curr_state of Algorithm 2
	stallArmed bool // an ackNoTimeout watch is pending

	pauseRefreshArmed bool // a PauseRefresh tick is pending

	dummyOut, ackOut int // our packets pending in the low-prio control queues

	// The two self-replenishing control streams, and the ingress hooks
	// installHooks attached; replay.go replays both streams in closed form
	// while the link idles at a fixed point.
	dummy, ack ctrlStream
	revHook    func(*simnet.Packet) bool // onReverse, on sendIfc
	protHook   func(*simnet.Packet) bool // onProtected, on recvIfc

	// Free lists for the hot-path bookkeeping objects: Tx-buffer entries and
	// the seqNo cells that carry a sequence number into a typed event.
	txFree   *txEntry
	cellFree *seqCell

	// forwardHook observes packets at the instant they are forwarded
	// onward, before header stripping. Tests use it to check ordering
	// invariants at the protocol boundary.
	forwardHook func(*simnet.Packet)

	// cfg sits last, so that a Config of another size does not move the
	// per-packet state above across cache lines.
	cfg Config
}

// txEntry is one buffered protected packet circulating in the sender's
// recirculation-based Tx buffer (Appendix A.2). The recirculation itself is
// modeled analytically: the entry can be acted upon (retransmitted or
// dropped) only at loop-completion boundaries. Entries recycle through a
// per-Instance free list; seq and pendLoops let the loop-boundary
// retransmission be scheduled in the typed (Instance, entry) form without a
// closure.
type txEntry struct {
	pkt       *simnet.Packet
	seq       seqnum.Seq
	insertAt  simtime.Time
	loop      simtime.Duration
	released  bool     // claimed: a pending drop or retransmission owns it
	retxReq   bool     // reTxReqs bit set for this seqNo
	pendLoops uint64   // loops to account when the entry retires
	next      *txEntry // free-list link
}

// lossRecord tracks one missing sequence number at the receiver. Stored by
// value in the missing map: Go maps reuse deleted slots, so the steady-state
// loss path never allocates for bookkeeping.
type lossRecord struct {
	detectedAt simtime.Time
}

// pending is a queue of delayed values, each held until its ticket is due:
// q[head:] wait in firing order. The consumed prefix is dropped when the
// queue empties or once it dominates, so one backing array is recycled.
type pending[T any] struct {
	q    []pendingItem[T]
	head int
}

type pendingItem[T any] struct {
	t eventq.Ticket
	v T
}

// add holds v until t is due. A fresh ticket is almost always the latest,
// so the scan from the tail for its place in firing order is short.
func (p *pending[T]) add(t eventq.Ticket, v T) {
	p.q = append(p.q, pendingItem[T]{})
	i := len(p.q) - 1
	for i > p.head && t.Less(p.q[i-1].t) {
		p.q[i] = p.q[i-1]
		i--
	}
	p.q[i] = pendingItem[T]{t, v}
}

// pop removes and returns the earliest value if its ticket is due on rt.
func (p *pending[T]) pop(rt Runtime) (v T, ok bool) {
	if p.head == len(p.q) || !rt.Due(p.q[p.head].t) {
		return v, false
	}
	v = p.q[p.head].v
	p.q[p.head] = pendingItem[T]{}
	p.head++
	switch {
	case p.head == len(p.q):
		p.q, p.head = p.q[:0], 0
	case p.head > 64 && p.head*2 > len(p.q):
		n := copy(p.q, p.q[p.head:])
		clear(p.q[n:])
		p.q, p.head = p.q[:n], 0
	}
	return v, true
}

// seqCell carries one sequence number into a typed event (boxing a seqnum
// value in an interface would allocate; a pooled cell does not).
type seqCell struct {
	v    seqnum.Seq
	next *seqCell
}

func (g *Instance) newCell(v seqnum.Seq) *seqCell {
	c := g.cellFree
	if c == nil {
		return &seqCell{v: v}
	}
	g.cellFree = c.next
	c.v = v
	c.next = nil
	return c
}

func (g *Instance) freeCell(c *seqCell) {
	c.next = g.cellFree
	g.cellFree = c
}

// Protect creates a LinkGuardian instance for the direction transmitted by
// sendIfc, attaching both protocol halves to the two ends of the link (the
// classic single-process topology). The instance starts disabled (dormant,
// imposing no cost); call Enable to activate it, as corruptd does when the
// link starts corrupting packets.
func Protect(rt Runtime, sendIfc *simnet.Ifc, cfg Config) *Instance {
	return protect(rt, sendIfc, sendIfc.Peer(), cfg, RoleBoth)
}

// ProtectSender attaches only the sender half to sendIfc: packets egressing
// it are stamped and buffered, and ACKs/loss notifications arriving on it
// are consumed. The receiving end of the link is elsewhere — another OS
// process across a real network path (internal/live) — so no receiver state
// machine is installed here.
func ProtectSender(rt Runtime, sendIfc *simnet.Ifc, cfg Config) *Instance {
	return protect(rt, sendIfc, sendIfc.Peer(), cfg, RoleSender)
}

// ProtectReceiver attaches only the receiver half to recvIfc, the interface
// on which protected packets arrive: loss detection, the reordering buffer,
// and the ACK/notification/PFC streams transmitted back toward the remote
// sender through recvIfc's own egress port.
func ProtectReceiver(rt Runtime, recvIfc *simnet.Ifc, cfg Config) *Instance {
	return protect(rt, recvIfc.Peer(), recvIfc, cfg, RoleReceiver)
}

func protect(rt Runtime, sendIfc, recvIfc *simnet.Ifc, cfg Config, role Role) *Instance {
	if cfg.MaxConsecutiveLoss <= 0 {
		cfg.MaxConsecutiveLoss = 5
	}
	if cfg.RecircPorts <= 0 {
		cfg.RecircPorts = 1
	}
	if cfg.CtrlCopies <= 0 {
		cfg.CtrlCopies = 1
	}
	if cfg.RecircLoopLatency <= 0 {
		cfg.RecircLoopLatency = cfg.PipelineLatency
	}
	g := &Instance{
		rt:      rt,
		role:    role,
		cfg:     cfg,
		sendIfc: sendIfc,
		recvIfc: recvIfc,
		txTab:   make([]*txEntry, txTabMin),
		missing: map[seqnum.Seq]lossRecord{},
		copies:  cfg.Copies(),
		ring:    ring{rate: cfg.RecircRate * simtime.Rate(cfg.RecircPorts), loop: cfg.RecircLoopLatency},
	}
	g.installHooks()
	return g
}

// Config returns the instance's configuration.
func (g *Instance) Config() Config { return g.cfg }

// Copies returns the number of retransmitted copies N in use.
func (g *Instance) Copies() int { return g.copies }

// Enabled reports whether the instance is active.
func (g *Instance) Enabled() bool { return g.enabled }

// SetMeasuredLossRate updates the link's measured corruption loss rate (as
// reported by the monitoring daemon) and re-derives the number of
// retransmitted copies from Equation 2. It may be called at any time;
// corruptd uses it just before Enable.
func (g *Instance) SetMeasuredLossRate(rate float64) {
	g.cfg.ActualLossRate = rate
	g.copies = g.cfg.Copies()
}

// SetMode switches the instance between Ordered and NonBlocking at runtime
// (§3.5's "runtime option", used by the automatic-fallback controller of
// §5). Switching to NonBlocking lets any packets currently in the
// reordering buffer drain out of order; switching back to Ordered re-syncs
// ackNo to the next expected sequence number.
func (g *Instance) SetMode(m Mode) {
	if g.cfg.Mode == m {
		return
	}
	g.replayRing(false)
	defer g.armRing()
	g.cfg.Mode = m
	if m == Ordered {
		// Everything at or below latestRx has either been forwarded or is
		// unrecoverable; resume in-order delivery from the next packet.
		g.ackNo = g.latestRx.Add(1)
	} else {
		if g.paused {
			// NonBlocking mode never pauses the sender.
			g.paused = false
			g.sendPFC(simnet.KindResume)
		}
		// Outstanding loss records now close via the NB sweep path.
		for seq := range g.missing {
			g.armSweep(seq)
		}
	}
}

// Mode returns the instance's current operation mode.
func (g *Instance) Mode() Mode { return g.cfg.Mode }

// Enable activates protection: from this point every packet egressing the
// protected direction is stamped, buffered and recoverable. Both ends
// initialize their sequence state consistently, as the control plane does
// during bootstrapping (§3.5).
func (g *Instance) Enable() {
	if g.enabled {
		return
	}
	g.replayRing(false)
	defer g.armRing()
	// Apply what is due before the reset: a later read must see the state
	// the reset left, not a delay that had elapsed before it.
	g.Settle()
	g.enabled = true
	g.draining = false
	clear(g.txTab)
	g.txCount = 0
	clear(g.missing)
	g.stallArmed = false
	start := seqnum.Seq{N: 1}
	g.nextSeq = start
	g.lastTx = start.Add(-1)
	g.senderLatestRx = g.lastTx
	g.latestRx = g.lastTx
	g.ackView = g.lastTx
	g.ackNo = start
	g.notified = g.lastTx
	g.paused = false
	g.rxHeld = 0
	if g.cfg.TailLossDetection && g.role != RoleReceiver {
		g.seedDummies()
	}
	if g.role != RoleSender {
		g.seedAcks()
	}
}

// Disable deactivates protection. In-flight protected packets and buffered
// state drain: recirculating packets are forwarded (order no longer
// enforced), Tx-buffer entries are dropped, and the self-replenishing
// queues stop refilling.
func (g *Instance) Disable() {
	if !g.enabled {
		return
	}
	g.replayRing(false)
	defer g.armRing()
	g.enabled = false
	g.draining = true
	g.settleTx()
	for _, e := range g.txTab {
		if e != nil {
			g.releaseEntry(e, g.rt.Now())
		}
	}
	if g.paused {
		g.sendPFC(simnet.KindResume)
		g.paused = false
	}
}

func (g *Instance) installHooks() {
	if g.role != RoleReceiver {
		g.revHook = g.onReverse
		chainIngress(g.sendIfc, g.revHook)
	}
	if g.role != RoleSender {
		g.protHook = g.onProtected
		chainIngress(g.recvIfc, g.protHook)
	}
	if g.role != RoleReceiver {
		// Protected packets are stamped and mirrored in the egress pipeline,
		// i.e. at dequeue time (Appendix A.2). Stamping at wire time — rather
		// than enqueue — means the Tx buffer holds packets only for the ACK
		// round trip, not for time spent in the egress queue, and guarantees
		// dummies (which keep flowing while the normal queue is PFC-paused)
		// never announce a seqNo that has not actually been transmitted.
		chainDequeue(g.sendIfc.Port.Q(simnet.PrioNormal), g.stampAtWire)
	}
	if g.role == RoleSender {
		return
	}
	// Piggyback the cumulative ACK on reverse-direction normal traffic,
	// stamped at wire time (§3.1).
	chainDequeue(g.recvIfc.Port.Q(simnet.PrioNormal), func(pkt *simnet.Packet) {
		if !g.enabled || pkt.Kind != simnet.KindData || pkt.LGAck.Present {
			// One piggybacked ACK per packet: one that an earlier hook on
			// this queue stamped stays, and this instance's receiver relies
			// on its explicit-ACK stream.
			return
		}
		g.settleAckView()
		pkt.LGAck = simnet.LGAck{Present: true, Valid: true, LatestRx: g.ackView}
		pkt.Size += simnet.LGHeaderBytes
		g.M.AcksPiggybacked++
	})
}

// chainIngress appends an ingress hook after any existing one, so two
// instances can share an interface: a testbed's dormant instance and a
// second Protect on the same link, say. An earlier hook that consumes the
// packet wins.
func chainIngress(ifc *simnet.Ifc, fn func(*simnet.Packet) bool) {
	prev := ifc.OnIngress
	if prev == nil {
		ifc.OnIngress = fn
		return
	}
	ifc.OnIngress = func(p *simnet.Packet) bool {
		if prev(p) {
			return true
		}
		return fn(p)
	}
}

// chainDequeue appends a wire-time stamping hook after any existing one,
// so every instance sharing a queue sees each packet it dequeues: a
// dormant instance's hooks pass it on untouched.
func chainDequeue(q *simnet.Queue, fn func(*simnet.Packet)) {
	prev := q.OnDequeue
	if prev == nil {
		q.OnDequeue = fn
		return
	}
	q.OnDequeue = func(p *simnet.Packet) {
		prev(p)
		fn(p)
	}
}

// OnForward registers an observer of packets at the instant they are
// forwarded onward to the IP layer, before header stripping. The chaos
// invariant checker attaches here; multiple observers stack.
func (g *Instance) OnForward(fn func(*simnet.Packet)) {
	prev := g.forwardHook
	if prev == nil {
		g.forwardHook = fn
		return
	}
	g.forwardHook = func(p *simnet.Packet) {
		prev(p)
		fn(p)
	}
}

// SeedSequence re-bases the instance's entire sequence state so the next
// protected packet is stamped {n, era}. Both ends are re-initialized
// consistently, exactly as Enable does from {1, 0} — the control plane
// performs the same synchronized bootstrap (§3.5). Chaos-testing uses it
// to place a run just short of the 16-bit wrap so era transitions are
// exercised cheaply. Call it only while no protected packets are in
// flight (immediately after Enable).
func (g *Instance) SeedSequence(n uint16, era uint8) {
	g.replayRing(false)
	defer g.armRing()
	g.settleAckView()
	start := seqnum.Seq{N: n, Era: era & 1}
	g.nextSeq = start
	g.lastTx = start.Add(-1)
	g.senderLatestRx = g.lastTx
	g.latestRx = g.lastTx
	g.ackView = g.lastTx
	g.ackNo = start
	g.notified = g.lastTx
}

// RxHeldBytes returns the current reordering-buffer occupancy.
func (g *Instance) RxHeldBytes() int { return g.rxHeld }

// OutstandingTx returns the number of packets held in the Tx buffer.
func (g *Instance) OutstandingTx() int {
	g.settleTx()
	return g.txCount
}

// Settle applies every protocol delay that has elapsed by now: acked
// Tx-buffer copies past their loop boundary retire, and the ACK-stamping
// view catches up with latestRx. Until then M.TxBufBytes and M.SenderLoops
// lag by the retirements still pending. The instance settles before its own
// reads, OutstandingTx and Register's Tx metrics included; a caller that
// reads those two fields directly mid-run calls Settle first.
func (g *Instance) Settle() {
	g.settleTx()
	g.settleAckView()
}

// MissingCount returns the number of open loss records at the receiver.
func (g *Instance) MissingCount() int { return len(g.missing) }

// quantize rounds an instant up to the next timer-packet tick (§3.5:
// timekeeping uses the switch packet generator's 10Mpps timer stream).
func (g *Instance) quantize(t simtime.Time) simtime.Time {
	q := int64(g.cfg.TimerQuantum)
	if q <= 0 {
		return t
	}
	return simtime.Time((int64(t) + q - 1) / q * q)
}

// atQuantized schedules fn at the timer tick at or after now+d.
func (g *Instance) atQuantized(d simtime.Duration, fn func()) {
	g.rt.At(g.quantize(g.rt.Now().Add(d)), fn)
}

// atQuantizedCall is the typed, allocation-free counterpart of atQuantized.
func (g *Instance) atQuantizedCall(d simtime.Duration, fn func(a0, a1 any), a0, a1 any) {
	g.rt.AtCall(g.quantize(g.rt.Now().Add(d)), fn, a0, a1)
}
