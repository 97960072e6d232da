package simnet

import "linkguardian/internal/simtime"

// Node is anything that terminates links: switches and hosts.
type Node interface {
	// HandlePacket processes a packet received on in.
	HandlePacket(pkt *Packet, in *Ifc)
	// NodeName identifies the node in traces and route tables.
	NodeName() string
}

// Counters are the per-port MAC frame counters that the corruptd monitoring
// daemon polls (Appendix C), and that the testbed experiments read at points
// A–D of Figure 7.
type Counters struct {
	RxAll uint64 // frames arriving at the MAC, including corrupted
	RxOk  uint64 // frames delivered past the MAC
	RxBad uint64 // frames dropped as corrupted (RxAll - RxOk)

	RxBytesOk uint64
}

// Ifc is one end of a link: an egress Port plus the ingress side of the
// reverse direction. LinkGuardian's sender and receiver state machines
// attach to an Ifc via the OnEgress/OnIngress hooks.
type Ifc struct {
	node Node
	link *Link
	peer *Ifc

	// Port transmits toward the peer.
	Port *Port

	// Name labels the interface for traces, e.g. "sw2->sw6".
	Name string

	// OnEgress, if set, intercepts packets the node wants to transmit on
	// this interface (LinkGuardian sender). Returning true means the hook
	// consumed the packet (it will enqueue stamped copies itself); false
	// lets the packet pass to the Port untouched.
	OnEgress func(*Packet) bool

	// OnIngress, if set, intercepts packets arriving on this interface
	// before normal node processing (LinkGuardian receiver). Returning
	// true consumes the packet.
	OnIngress func(*Packet) bool

	// In counts ingress frames on this interface.
	In Counters
}

// Node returns the node owning the interface.
func (i *Ifc) Node() Node { return i.node }

// sim returns the simulation universe this interface's side of the link
// lives in. For a link inside one shard (or a standalone Sim) both sides
// agree with Link.sim; for a cross-shard link each side belongs to its own
// shard's Sim, and all per-side work — packet-pool releases, RNG draws,
// event scheduling — must stay side-local to be race-free and
// deterministic.
func (i *Ifc) sim() *Sim { return i.Port.sim }

// Peer returns the other end of the link.
func (i *Ifc) Peer() *Ifc { return i.peer }

// Link returns the link this interface terminates.
func (i *Ifc) Link() *Link { return i.link }

// Send offers a packet for transmission on this interface, honoring the
// OnEgress hook. It returns false if the packet was tail-dropped.
func (i *Ifc) Send(pkt *Packet) bool {
	if i.OnEgress != nil && i.OnEgress(pkt) {
		return true
	}
	return i.Port.Enqueue(pkt)
}

// EnqueueDirect bypasses the OnEgress hook — used by the hook itself to
// transmit the packets it has stamped.
func (i *Ifc) EnqueueDirect(pkt *Packet) bool { return i.Port.Enqueue(pkt) }

// Receive injects a frame into this interface's ingress MAC exactly as if
// it had arrived over the attached link — the link's verdict for the
// peer→this direction and its taps, then receive — so the inbound half of
// a live transport (internal/live), a datagram decoded off a real socket,
// meets the same fault layer as simulated propagation. The caller
// transfers ownership of pkt; call on the topology's event-loop goroutine.
func (i *Ifc) Receive(pkt *Packet) {
	l, from := i.link, i.peer
	model := l.lossAB
	if from == l.b {
		model = l.lossBA
	}
	corrupted := l.verdict(pkt, from, model)
	for _, tap := range l.taps {
		tap(pkt, from, corrupted)
	}
	i.receive(pkt, corrupted)
}

// receive runs the ingress MAC: counters, corruption drop, PFC absorption,
// hook dispatch, then normal node processing. Corruption drops and absorbed
// PFC frames are terminal: the packets go back to the free list.
func (i *Ifc) receive(pkt *Packet, corrupted bool) {
	i.In.RxAll++
	if corrupted {
		i.In.RxBad++
		i.sim().Release(pkt)
		return
	}
	i.In.RxOk++
	i.In.RxBytesOk += uint64(pkt.Size)
	switch pkt.Kind {
	case KindPause:
		// PFC frames are absorbed by the RX MAC and pause this link's
		// own egress queue of the given class (§3.5). A pause carrying
		// quanta self-expires unless refreshed, so a corrupted resume
		// frame can stall the queue for at most one quantum.
		i.Port.PauseFor(pkt.PauseClass, pkt.PauseQuanta)
		i.sim().Release(pkt)
		return
	case KindResume:
		i.Port.Pause(pkt.PauseClass, false)
		i.sim().Release(pkt)
		return
	}
	if i.OnIngress != nil && i.OnIngress(pkt) {
		return
	}
	i.node.HandlePacket(pkt, i)
}

// Verdict is a fault injector's per-frame decision, consulted before the
// link's configured loss model.
type Verdict int8

// Fault verdicts.
const (
	// VerdictDefer leaves the frame to the link's DropFn or loss model.
	VerdictDefer Verdict = iota
	// VerdictDrop corrupts the frame (dropped at the receiving MAC).
	VerdictDrop
	// VerdictDeliver forces delivery, bypassing the loss model.
	VerdictDeliver
)

// Link is a full-duplex point-to-point link with independent per-direction
// corruption models. Corruption drops happen at the receiving MAC, matching
// where the paper's losses occur.
type Link struct {
	sim   *Sim
	Delay simtime.Duration
	a, b  *Ifc
	// Loss models for each direction (a→b and b→a).
	lossAB, lossBA LossModel

	down bool

	// FaultFn, if set, gets first say on every frame in both directions:
	// VerdictDrop corrupts it, VerdictDeliver forces it through, and
	// VerdictDefer falls back to DropFn or the loss models. The chaos
	// engine installs its fault multiplexer here, on top of whatever
	// baseline corruption the loss models provide.
	FaultFn func(pkt *Packet, from *Ifc) Verdict

	// DropFn, if set, decides corruption per packet instead of the loss
	// models — deterministic fault injection for tests and experiments
	// that must target specific packets. It must decide from the frame and
	// its own state, not the clock, and leave the frame as it is: Replay
	// runs the verdict on the frames of a closed-form replay ahead of their
	// simulated transmission, on one scratch frame per stream.
	DropFn func(pkt *Packet, from *Ifc) bool

	// taps observe every frame at its delivery decision point (after the
	// corruption verdict), in installation order; installed by TapDeliver.
	taps []func(pkt *Packet, from *Ifc, corrupted bool)

	// Carrier, if set, replaces in-sim propagation: every frame a Port
	// finishes serializing on this link is handed to the carrier instead of
	// the verdict and the peer interface. This is the outbound half of a
	// live transport (internal/live) — the carrier encodes the frame into a
	// datagram, puts it on a real socket, and owns the packet from then on.
	// The verdict (flap state, FaultFn, DropFn, loss models) and the taps
	// run where the frame re-enters a topology: the peer's Receive.
	Carrier func(pkt *Packet, from *Ifc)

	// xab/xba, set only by Engine.Connect for a cross-shard link, carry
	// frames to the peer shard (a→b and b→a respectively) instead of
	// scheduling delivery directly into the receiver's event queue.
	xab, xba *outbox
}

// A returns the interface on the first node; B the second.
func (l *Link) A() *Ifc { return l.a }

// B returns the interface on the second node.
func (l *Link) B() *Ifc { return l.b }

// SetLoss installs the corruption model for the direction transmitted by
// from. Passing nil restores a lossless direction.
func (l *Link) SetLoss(from *Ifc, m LossModel) {
	if m == nil {
		m = NoLoss{}
	}
	if from == l.a {
		l.lossAB = m
	} else {
		l.lossBA = m
	}
}

// LossRate returns the configured average corruption rate in the direction
// transmitted by from.
func (l *Link) LossRate(from *Ifc) float64 {
	if from == l.a {
		return l.lossAB.Rate()
	}
	return l.lossBA.Rate()
}

// SetDown flaps the link: while down, every frame in both directions is
// lost at the receiving MAC (counted as corrupted, so the monitoring
// counters see the outage). Bringing the link back up restores normal
// delivery; frames already in flight are unaffected.
func (l *Link) SetDown(down bool) { l.down = down }

// TapDeliver installs an observer at the link's delivery decision point:
// fn sees every frame transmitted in either direction together with its
// corruption verdict. Taps are held in a slice and run in installation
// order — no per-install closure nesting, no per-delivery indirection
// chain.
func (l *Link) TapDeliver(fn func(pkt *Packet, from *Ifc, corrupted bool)) {
	l.taps = append(l.taps, fn)
}

// deliverOK / deliverCorrupt are the typed propagation-delay events: a0 is
// the receiving Ifc, a1 the frame. Two static handlers encode the
// corruption verdict, so delivery needs no closure and no extra state.
func deliverOK(a0, a1 any)      { a0.(*Ifc).receive(a1.(*Packet), false) }
func deliverCorrupt(a0, a1 any) { a0.(*Ifc).receive(a1.(*Packet), true) }

func (l *Link) deliver(pkt *Packet, from *Ifc) {
	if l.Carrier != nil {
		l.Carrier(pkt, from)
		return
	}
	to := l.b
	model := l.lossAB
	if from == l.b {
		to = l.a
		model = l.lossBA
	}
	corrupted := l.verdict(pkt, from, model)
	for _, tap := range l.taps {
		tap(pkt, from, corrupted)
	}
	if l.xab != nil {
		// Cross-shard link: the receiving interface lives in another
		// shard's Sim, so instead of scheduling into a foreign queue
		// (a race) the frame is copied into a pooled cell stamped with
		// its arrival time on the sender's clock. The engine's barrier
		// materializes it into the destination shard between windows.
		ob := l.xab
		if from == l.b {
			ob = l.xba
		}
		ob.send(from.sim(), pkt, to, int64(l.Delay), corrupted)
		return
	}
	if corrupted {
		l.sim.AfterCall(l.Delay, deliverCorrupt, to, pkt)
	} else {
		l.sim.AfterCall(l.Delay, deliverOK, to, pkt)
	}
}

// Replayable reports whether Replay may stand in for carrying frames on the
// link: nothing observes or intercepts a frame beyond the verdict — no taps,
// no FaultFn, no Carrier, no cross-shard outbox — and the Sim has no
// OnRelease hook.
func (l *Link) Replayable() bool {
	return len(l.taps) == 0 && l.FaultFn == nil && l.Carrier == nil &&
		l.xab == nil && l.sim.OnRelease == nil
}

// Replay accounts one frame exactly as drawing it from the pool, from's
// idle port serializing it and the link carrying it to the peer would: it
// stamps pkt with the next packet ID, then moves the port's tx counters,
// runs the verdict with the draws it makes (flap state, DropFn or loss
// model) and moves the peer MAC's rx counters. It reports the verdict and
// schedules nothing. pkt stays the caller's: a scratch frame carrying the
// fields the real one would, it never enters the pool. Replayed frames
// draw their IDs in transmission order, so a caller replays them in the
// order they were drawn. Only for a link that is Replayable.
func (l *Link) Replay(from *Ifc, pkt *Packet) (corrupted bool) {
	pkt.ID = from.sim().pktID()
	p := from.Port
	p.TxFrames++
	p.TxBytes += uint64(pkt.Size)
	p.BusyTime += p.Rate.Serialize(simtime.WireBytes(pkt.Size))
	model := l.lossAB
	if from == l.b {
		model = l.lossBA
	}
	corrupted = l.verdict(pkt, from, model)
	in := &from.peer.In
	in.RxAll++
	if corrupted {
		in.RxBad++
	} else {
		in.RxOk++
		in.RxBytesOk += uint64(pkt.Size)
	}
	return corrupted
}

// verdict decides whether the frame is corrupted: flap state first, then
// the fault injector, then the deterministic DropFn, then the loss model.
func (l *Link) verdict(pkt *Packet, from *Ifc, model LossModel) bool {
	if l.down {
		return true
	}
	if l.FaultFn != nil {
		switch l.FaultFn(pkt, from) {
		case VerdictDrop:
			return true
		case VerdictDeliver:
			return false
		}
	}
	if l.DropFn != nil {
		return l.DropFn(pkt, from)
	}
	// Draw from the transmitting side's RNG stream: identical to l.sim.Rng
	// for an intra-shard link (Port.sim == Link.sim), and the only
	// race-free, per-direction-deterministic choice on a cross-shard link.
	return model.Drops(from.sim().Rng)
}

// Connect joins two nodes with a link of the given per-direction rate and
// propagation delay, registering the new interfaces with both nodes. The
// returned link starts lossless.
func Connect(s *Sim, a, b Node, rate simtime.Rate, delay simtime.Duration) *Link {
	return newLink(s, s, a, b, rate, delay)
}

// newLink builds a lossless link between a (whose side lives in sa) and b
// (in sb) and registers its interfaces with their nodes. The link itself
// belongs to sa; sa != sb only for Engine.Connect's cross-shard links.
func newLink(sa, sb *Sim, a, b Node, rate simtime.Rate, delay simtime.Duration) *Link {
	l := &Link{sim: sa, Delay: delay, lossAB: NoLoss{}, lossBA: NoLoss{}}
	ia := &Ifc{node: a, link: l, Name: a.NodeName() + "->" + b.NodeName()}
	ib := &Ifc{node: b, link: l, Name: b.NodeName() + "->" + a.NodeName()}
	ia.peer, ib.peer = ib, ia
	ia.Port = &Port{sim: sa, ifc: ia, Rate: rate}
	ib.Port = &Port{sim: sb, ifc: ib, Rate: rate}
	l.a, l.b = ia, ib
	register(a, ia)
	register(b, ib)
	return l
}

// registrar is implemented by nodes that track their interfaces.
type registrar interface{ addIfc(*Ifc) }

func register(n Node, i *Ifc) {
	if r, ok := n.(registrar); ok {
		r.addIfc(i)
	}
}
