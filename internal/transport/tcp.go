package transport

import (
	"linkguardian/internal/eventq"
	"linkguardian/internal/simnet"
	"linkguardian/internal/simtime"
)

// TCPOpts parameterizes a TCP flow. DefaultTCPOpts matches the paper's
// testbed configuration (§4: TSO, SACK, RACK-TLP and ECN enabled,
// RTOmin = 1ms, network RTT ≈ 30µs).
type TCPOpts struct {
	Variant      Variant
	MSS          int              // payload bytes per segment
	InitCwndSegs int              // initial window, segments
	RTOMin       simtime.Duration // minimum retransmission timeout
	// InitialSRTT seeds the RTT estimator, modeling Linux's per-destination
	// metric cache warmed by earlier flows. Zero means a cold start with
	// the conservative 1s initial RTO.
	InitialSRTT simtime.Duration
	// ECN enables ECT marking on data packets and the DCTCP response.
	ECN bool
	// ReoWndDiv divides SRTT to obtain RACK's reordering window
	// (Linux default: srtt/4).
	ReoWndDiv int
	// MaxCwnd caps the congestion window, modeling the kernel's socket
	// buffer limits (tcp_wmem/rmem autotuning tops out a few MB above the
	// path BDP). Without it a lossless unmarked path grows the window
	// unboundedly.
	MaxCwnd int
	// Duplicates sends this many extra copies of every data segment — the
	// end-to-end redundancy point of the paper's design space (Figure 3,
	// "More is less"-style duplication). The receiver de-duplicates
	// naturally. Copies count against the congestion window.
	Duplicates int
}

// DefaultTCPOpts returns the paper's endpoint configuration for a variant.
func DefaultTCPOpts(v Variant) TCPOpts {
	return TCPOpts{
		Variant:      v,
		MSS:          1448,
		InitCwndSegs: 10,
		RTOMin:       simtime.Millisecond,
		InitialSRTT:  30 * simtime.Microsecond,
		ECN:          v == DCTCP,
		ReoWndDiv:    4,
		MaxCwnd:      2 << 20,
	}
}

const initialRTOCold = simtime.Second // Linux TCP_TIMEOUT_INIT

// TCPFlow is a live handle on a running (or completed) TCP flow.
type TCPFlow struct{ s *tcpSender }

// Stats snapshots the flow's statistics; FCT is zero until completion.
func (f *TCPFlow) Stats() FlowStats { return f.s.stats }

// StartTCPFlow creates a one-directional TCP flow of size bytes from src to
// dst and starts transmitting immediately. done (optional) fires on
// completion with the flow statistics. The flow id must be unique per
// endpoint pair.
func StartTCPFlow(sim *simnet.Sim, src, dst *Endpoint, flow, size int, opts TCPOpts, done func(FlowStats)) *TCPFlow {
	if opts.MSS <= 0 || size <= 0 {
		panic("transport: bad TCP flow parameters")
	}
	if opts.ReoWndDiv <= 0 {
		opts.ReoWndDiv = 4
	}
	nseg := (size + opts.MSS - 1) / opts.MSS
	r := &tcpReceiver{ep: dst, peerHost: src.host.NodeName(), flow: flow, rcvd: make([]bool, nseg), maxRcvd: -1}
	dst.register(flow, r)
	s := &tcpSender{
		sim:          sim,
		ep:           src,
		peerHost:     dst.host.NodeName(),
		flow:         flow,
		opts:         opts,
		size:         size,
		nseg:         nseg,
		segState:     make([]segState, nseg),
		maxSackedIdx: -1,
		done:         done,
	}
	switch opts.Variant {
	case Cubic:
		s.cc = newCubic(sim, opts.MSS, opts.InitCwndSegs*opts.MSS)
	case BBR:
		s.cc = newBBR(sim, opts.MSS, opts.InitialSRTT)
	default:
		s.cc = newDCTCP(opts.MSS, opts.InitCwndSegs*opts.MSS)
	}
	if opts.InitialSRTT > 0 {
		s.srtt = opts.InitialSRTT
		s.rttvar = opts.InitialSRTT / 2
		s.haveRTT = true
	}
	for i := range s.segState {
		s.segState[i].data = tcpData{seg: i, bytes: s.segBytes(i)}
	}
	src.register(flow, s)
	s.start()
	return &TCPFlow{s: s}
}

type segState struct {
	data     tcpData      // the segment's payload, shared by every copy sent
	sentAt   simtime.Time // most recent transmission
	everSent bool
	sacked   bool
	lost     bool // marked for retransmission
	retx     int  // times retransmitted
}

type tcpSender struct {
	sim      *simnet.Sim
	ep       *Endpoint
	peerHost string
	flow     int
	opts     TCPOpts
	cc       congControl

	size     int
	nseg     int
	segState []segState
	cumSeg   int // all segments below this are cumulatively acked
	sndNxt   int // next never-sent segment

	srtt, rttvar simtime.Duration
	haveRTT      bool
	rtoBackoff   uint

	inRecovery   bool
	recoverPoint int
	maxSackedIdx int // highest SACKed segment index, -1 if none
	reoWndMult   int // RACK reordering-window multiplier (RFC 8985 §7.1)

	rtoTimer, tlpTimer, rackTimer, paceTimer eventq.Timer
	tlpArmed                                 bool
	rackXmit                                 simtime.Time // send time of most recently delivered segment

	pacedNext simtime.Time

	startAt  simtime.Time
	finished bool
	stats    FlowStats
	done     func(FlowStats)
}

func (s *tcpSender) start() {
	s.startAt = s.sim.Now()
	s.stats.Start = s.startAt
	s.stats.Bytes = s.size
	s.trySend()
}

func (s *tcpSender) segBytes(i int) int {
	if i == s.nseg-1 {
		if r := s.size - (s.nseg-1)*s.opts.MSS; r > 0 {
			return r
		}
	}
	return s.opts.MSS
}

// inflight estimates outstanding bytes: sent, not yet cumulatively acked or
// SACKed, and not marked lost.
func (s *tcpSender) inflight() int {
	n := 0
	for i := s.cumSeg; i < s.sndNxt; i++ {
		st := &s.segState[i]
		if st.everSent && !st.sacked && !st.lost {
			n += s.segBytes(i)
		}
	}
	return n
}

// nextToSend picks the next segment: lost-marked holes first (retransmit),
// then new data.
func (s *tcpSender) nextToSend() int {
	for i := s.cumSeg; i < s.sndNxt; i++ {
		st := &s.segState[i]
		if st.lost && !st.sacked {
			return i
		}
	}
	if s.sndNxt < s.nseg {
		return s.sndNxt
	}
	return -1
}

// cwnd is the effective window: the congestion controller's window capped
// by the socket buffer limit.
func (s *tcpSender) cwnd() int {
	c := s.cc.Cwnd()
	if s.opts.MaxCwnd > 0 && c > s.opts.MaxCwnd {
		c = s.opts.MaxCwnd
	}
	return c
}

func (s *tcpSender) trySend() {
	if s.finished {
		return
	}
	rate := s.cc.PacingRate()
	for {
		seg := s.nextToSend()
		if seg < 0 {
			break
		}
		if fl := s.inflight(); fl > 0 && fl+s.segBytes(seg) > s.cwnd() {
			break
		}
		if rate > 0 {
			now := s.sim.Now()
			if now.Before(s.pacedNext) {
				// Exactly one pacing wakeup may be armed at a time, or
				// every ACK would add a self-re-arming event and the
				// queue would melt down.
				if s.paceTimer.Canceled() {
					s.paceTimer = s.sim.AfterCall(s.pacedNext.Sub(now), tcpPaceFire, s, nil)
				}
				break
			}
			s.pacedNext = now.Add(rate.Serialize(s.segBytes(seg) + tcpHeaderBytes))
		}
		s.sendSeg(seg)
	}
	s.armTimers()
}

func (s *tcpSender) sendSeg(seg int) {
	st := &s.segState[seg]
	if st.everSent {
		st.retx++
		s.stats.Retransmits++
	}
	st.everSent = true
	st.lost = false
	st.sentAt = s.sim.Now()
	if seg == s.sndNxt {
		s.sndNxt++
	}
	for c := 0; c <= s.opts.Duplicates; c++ {
		pkt := s.sim.NewPacket(simnet.KindData, tcpHeaderBytes+s.segBytes(seg), s.peerHost)
		pkt.FlowID = s.flow
		pkt.ECNCapable = s.opts.ECN
		pkt.Payload = &st.data
		s.ep.host.Send(pkt)
	}
}

// receive processes an ACK.
func (s *tcpSender) receive(pkt *simnet.Packet) {
	a, ok := pkt.Payload.(*tcpAck)
	if !ok || s.finished {
		return
	}
	now := s.sim.Now()
	newlyAcked := 0
	var rttSample simtime.Duration
	progress := a.cum > s.cumSeg

	for i := s.cumSeg; i < a.cum && i < s.nseg; i++ {
		st := &s.segState[i]
		if !st.sacked {
			newlyAcked += s.segBytes(i)
		}
		if st.retx == 0 { // Karn's rule: sample only never-retransmitted
			if d := now.Sub(st.sentAt); rttSample == 0 || d < rttSample {
				rttSample = d
			}
		}
		if st.sentAt.After(s.rackXmit) {
			s.rackXmit = st.sentAt
		}
	}
	if a.cum > s.cumSeg {
		s.cumSeg = a.cum
	}
	for _, b := range a.sack[:a.nsack] {
		for i := max(b.start, s.cumSeg); i < min(b.end, s.nseg); i++ {
			st := &s.segState[i]
			if !st.sacked {
				if st.lost && st.retx == 0 {
					// A segment we declared lost arrived after all: a
					// spurious RACK mark (the receiver would emit a
					// DSACK). Widen the reordering window (RFC 8985
					// §7.1) — this is what lets LinkGuardianNB's
					// slightly-late retransmissions stop triggering
					// cwnd reductions (§4.4).
					s.growReoWnd()
				}
				st.sacked = true
				st.lost = false
				newlyAcked += s.segBytes(i)
				if i > s.maxSackedIdx {
					s.maxSackedIdx = i
				}
				if st.retx == 0 && st.sentAt.After(s.rackXmit) {
					s.rackXmit = st.sentAt
				}
			}
		}
	}
	if a.nsack > 0 {
		s.stats.EverSACKed = true
		if sb := s.sackedBytes(); sb > s.stats.MaxSackedBytes {
			s.stats.MaxSackedBytes = sb
		}
	}
	if rttSample > 0 {
		s.updateRTT(rttSample)
	}
	if progress {
		s.rtoBackoff = 0
		s.tlpArmed = false
	}
	s.cc.OnAck(newlyAcked, a.ece, rttSample)

	if s.inRecovery && s.cumSeg >= s.recoverPoint {
		s.inRecovery = false
	}
	s.rackMark()

	if s.cumSeg >= s.nseg {
		s.complete()
		return
	}
	s.trySend()
}

func (s *tcpSender) sackedBytes() int {
	n := 0
	for i := s.cumSeg; i < s.sndNxt; i++ {
		if s.segState[i].sacked {
			n += s.segBytes(i)
		}
	}
	return n
}

// reoWnd is RACK's reordering window: SRTT/4 by default, widened by one
// quantum per detected spurious mark up to a full SRTT (RFC 8985 §7.1).
// Retransmissions that arrive within this window of the original never
// trigger a spurious-loss reaction — the property LinkGuardianNB exploits
// (§4.4).
func (s *tcpSender) reoWnd() simtime.Duration {
	if !s.haveRTT {
		return simtime.Millisecond
	}
	w := s.srtt / simtime.Duration(s.opts.ReoWndDiv) * simtime.Duration(1+s.reoWndMult)
	if w > s.srtt {
		w = s.srtt
	}
	return w
}

func (s *tcpSender) growReoWnd() {
	if s.reoWndMult < s.opts.ReoWndDiv {
		s.reoWndMult++
	}
}

// rackMark implements RACK-style loss marking: a segment is lost if a
// segment sent at least reoWnd later has already been delivered. If holes
// exist below delivered data but are still within the window, a reorder
// timer re-checks once the window closes.
func (s *tcpSender) rackMark() {
	if s.rackXmit == 0 {
		return
	}
	reo := s.reoWnd()
	now := s.sim.Now()
	anyMarked := false
	var earliestPending simtime.Duration
	pending := false
	for i := s.cumSeg; i < s.sndNxt; i++ {
		st := &s.segState[i]
		if st.sacked || st.lost || !st.everSent {
			continue
		}
		if !s.sackedAbove(i) {
			continue // no delivered data beyond this hole
		}
		// A hole is lost once data sent reo later was delivered, or —
		// the reorder-timer path — once it has had a full RTT plus the
		// reordering window to show up and has not.
		age := s.rackXmit.Sub(st.sentAt)
		wallAge := now.Sub(st.sentAt)
		wallThresh := s.srtt + reo
		if age >= reo || wallAge >= wallThresh {
			st.lost = true
			anyMarked = true
		} else if wait := wallThresh - wallAge; !pending || wait < earliestPending {
			pending, earliestPending = true, wait
		}
	}
	if anyMarked {
		s.enterRecovery()
	}
	if pending {
		s.armRackTimer(earliestPending)
	}
}

// sackedAbove reports whether any segment beyond i has been delivered.
func (s *tcpSender) sackedAbove(i int) bool { return i < s.maxSackedIdx }

func (s *tcpSender) enterRecovery() {
	if s.inRecovery {
		return
	}
	s.inRecovery = true
	s.recoverPoint = s.sndNxt
	s.cc.OnRecovery()
	s.noteReduction()
}

func (s *tcpSender) noteReduction() {
	s.stats.CwndReduced = true
	pendingTx := 0
	for i := s.sndNxt; i < s.nseg; i++ {
		pendingTx += s.segBytes(i)
	}
	if pendingTx > 0 && !s.stats.ReducedWhilePending {
		s.stats.ReducedWhilePending = true
		s.stats.PendingAtReduce = pendingTx
	}
}

func (s *tcpSender) updateRTT(sample simtime.Duration) {
	if !s.haveRTT {
		s.srtt = sample
		s.rttvar = sample / 2
		s.haveRTT = true
		return
	}
	d := s.srtt - sample
	if d < 0 {
		d = -d
	}
	s.rttvar = (3*s.rttvar + d) / 4
	s.srtt = (7*s.srtt + sample) / 8
}

func (s *tcpSender) rto() simtime.Duration {
	if !s.haveRTT {
		return initialRTOCold
	}
	r := s.srtt + 4*s.rttvar
	if r < s.opts.RTOMin {
		r = s.opts.RTOMin
	}
	return r << s.rtoBackoff
}

// armTimers installs the retransmission timer and, when it would fire
// sooner, a tail-loss probe (RACK-TLP, RFC 8985). Linux widens the PTO by a
// worst-case delayed-ACK allowance when only one segment is in flight,
// which in practice pushes single-packet tail losses onto the RTO path —
// the effect behind the paper's Figure 10 baselines.
func (s *tcpSender) armTimers() {
	if s.finished {
		return
	}
	s.sim.Cancel(s.rtoTimer)
	s.sim.Cancel(s.tlpTimer)
	outstanding := s.cumSeg < s.sndNxt
	if !outstanding {
		return
	}
	rto := s.rto()
	pto := rto
	if s.haveRTT && !s.tlpArmed && !s.inRecovery {
		p := 2 * s.srtt
		if s.inflightSegs() <= 1 {
			wc := 3*s.srtt/2 + 200*simtime.Millisecond // worst-case delayed ACK
			if wc > p {
				p = wc
			}
		}
		if p < pto {
			pto = p
			s.tlpTimer = s.sim.AfterCall(pto, tcpTLPFire, s, nil)
			return
		}
	}
	s.rtoTimer = s.sim.AfterCall(rto, tcpRTOFire, s, nil)
}

// The sender's typed timer events; a0 is the *tcpSender.
func tcpRTOFire(a0, _ any)  { a0.(*tcpSender).fireRTO() }
func tcpTLPFire(a0, _ any)  { a0.(*tcpSender).fireTLP() }
func tcpPaceFire(a0, _ any) { a0.(*tcpSender).trySend() }
func tcpRackFire(a0, _ any) { a0.(*tcpSender).fireRack() }

func (s *tcpSender) inflightSegs() int {
	n := 0
	for i := s.cumSeg; i < s.sndNxt; i++ {
		st := &s.segState[i]
		if st.everSent && !st.sacked && !st.lost {
			n++
		}
	}
	return n
}

// fireTLP retransmits the highest-sequence outstanding segment (or sends
// new data if available) to draw an ACK that exposes any hole via SACK.
func (s *tcpSender) fireTLP() {
	if s.finished {
		return
	}
	s.stats.TLPs++
	s.tlpArmed = true
	if s.sndNxt < s.nseg {
		s.sendSeg(s.sndNxt)
	} else {
		for i := s.sndNxt - 1; i >= s.cumSeg; i-- {
			if !s.segState[i].sacked {
				s.sendSeg(i)
				break
			}
		}
	}
	// After a probe, only the RTO backstop remains until new ACKs arrive.
	s.rtoTimer = s.sim.AfterCall(s.rto(), tcpRTOFire, s, nil)
}

// fireRTO collapses the window and go-back-N's from the first hole.
func (s *tcpSender) fireRTO() {
	if s.finished {
		return
	}
	s.stats.RTOs++
	s.cc.OnRTO()
	s.rtoBackoff++
	s.inRecovery = false
	s.tlpArmed = false
	for i := s.cumSeg; i < s.sndNxt; i++ {
		st := &s.segState[i]
		if !st.sacked {
			st.lost = true
		}
	}
	s.trySend()
}

func (s *tcpSender) armRackTimer(d simtime.Duration) {
	if !s.rackTimer.Canceled() {
		return
	}
	s.rackTimer = s.sim.AfterCall(d, tcpRackFire, s, nil)
}

// fireRack re-checks the holes still inside the reordering window.
func (s *tcpSender) fireRack() {
	if s.finished {
		return
	}
	s.rackMark()
	s.trySend()
}

func (s *tcpSender) complete() {
	s.finished = true
	s.sim.Cancel(s.rtoTimer)
	s.sim.Cancel(s.tlpTimer)
	s.sim.Cancel(s.rackTimer)
	s.sim.Cancel(s.paceTimer)
	s.stats.End = s.sim.Now()
	s.stats.FCT = s.stats.End.Sub(s.startAt)
	s.ep.unregister(s.flow)
	if s.done != nil {
		s.done(s.stats)
	}
}

// tcpReceiver acknowledges every data segment with a cumulative ACK plus up
// to three SACK blocks, echoing the packet's CE mark.
type tcpReceiver struct {
	ep       *Endpoint
	peerHost string
	flow     int
	rcvd     []bool
	cum      int
	maxRcvd  int // highest received segment index, -1 if none
}

func (r *tcpReceiver) receive(pkt *simnet.Packet) {
	d, ok := pkt.Payload.(*tcpData)
	if !ok {
		return
	}
	if d.seg < len(r.rcvd) {
		r.rcvd[d.seg] = true
		if d.seg > r.maxRcvd {
			r.maxRcvd = d.seg
		}
	}
	for r.cum < len(r.rcvd) && r.rcvd[r.cum] {
		r.cum++
	}
	a := r.ep.tcpAcks.next()
	a.cum, a.ece = r.cum, pkt.CE
	r.fillSACK(a)
	ack := ackPacket(r.ep.sim, r.peerHost, r.flow)
	ack.Payload = a
	r.ep.host.Send(ack)
	if r.cum == len(r.rcvd) {
		r.ep.unregister(r.flow)
	}
}

// fillSACK writes up to three received ranges above the cumulative ACK
// into a fresh ACK. The scan is bounded by the highest received segment,
// so it never walks the flow's unreceived tail.
func (r *tcpReceiver) fillSACK(a *tcpAck) {
	i := r.cum
	for i <= r.maxRcvd && a.nsack < maxSACKBlocks {
		for i <= r.maxRcvd && !r.rcvd[i] {
			i++
		}
		if i > r.maxRcvd {
			break
		}
		start := i
		for i <= r.maxRcvd && r.rcvd[i] {
			i++
		}
		a.sack[a.nsack] = sackBlock{start: start, end: i}
		a.nsack++
	}
}

// ackPacket builds a minimum-size acknowledgment frame.
func ackPacket(sim *simnet.Sim, to string, flow int) *simnet.Packet {
	pkt := sim.NewPacket(simnet.KindData, ackFrameBytes, to)
	pkt.FlowID = flow
	return pkt
}
