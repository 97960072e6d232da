package transport

import (
	"linkguardian/internal/eventq"
	"linkguardian/internal/simnet"
	"linkguardian/internal/simtime"
)

// RDMAOpts parameterizes a one-sided RDMA_WRITE over an RC (reliable
// connection) queue pair, as in the paper's RoCEv2 experiments: NIC-based
// reliable delivery with go-back-N recovery, no reordering tolerance, and
// an RTO of about 1ms (§4).
type RDMAOpts struct {
	MTU        int              // payload bytes per packet
	WindowPkts int              // NIC send window, packets
	RTO        simtime.Duration // retransmission timeout
	// SelectiveRepeat enables the newer RoCE selective-repeat recovery
	// (§5, "Reordering tolerance in modern transport protocols") instead
	// of go-back-N.
	SelectiveRepeat bool
}

// DefaultRDMAOpts matches the paper's RoCEv2 setup.
func DefaultRDMAOpts() RDMAOpts {
	return RDMAOpts{MTU: 1448, WindowPkts: 128, RTO: simtime.Millisecond}
}

// RDMAFlow is a live handle on a running (or completed) RDMA write.
type RDMAFlow struct{ s *rdmaSender }

// Stats snapshots the flow's statistics; FCT is zero until completion.
func (f *RDMAFlow) Stats() FlowStats { return f.s.stats }

// StartRDMAWrite posts a one-sided RDMA_WRITE of size bytes from src to
// dst. done (optional) fires when the last packet is acknowledged.
func StartRDMAWrite(sim *simnet.Sim, src, dst *Endpoint, flow, size int, opts RDMAOpts, done func(FlowStats)) *RDMAFlow {
	if opts.MTU <= 0 || size <= 0 {
		panic("transport: bad RDMA parameters")
	}
	if opts.WindowPkts <= 0 {
		opts.WindowPkts = 128
	}
	npkt := (size + opts.MTU - 1) / opts.MTU
	r := &rdmaReceiver{ep: dst, peerHost: src.host.NodeName(), flow: flow, npkt: npkt, opts: opts,
		acks: make([]rdmaAck, 2*(npkt+1))}
	for epsn := 0; epsn <= npkt; epsn++ {
		r.acks[2*epsn] = rdmaAck{epsn: epsn}
		r.acks[2*epsn+1] = rdmaAck{epsn: epsn, nak: true}
	}
	if opts.SelectiveRepeat {
		r.rcvd = make([]bool, npkt)
	}
	dst.register(flow, r)
	s := &rdmaSender{
		sim:      sim,
		ep:       src,
		peerHost: dst.host.NodeName(),
		flow:     flow,
		opts:     opts,
		size:     size,
		npkt:     npkt,
		data:     make([]rdmaData, npkt),
		done:     done,
	}
	for psn := range s.data {
		s.data[psn] = rdmaData{psn: psn, bytes: s.pktBytes(psn)}
	}
	src.register(flow, s)
	s.start()
	return &RDMAFlow{s: s}
}

type rdmaSender struct {
	sim      *simnet.Sim
	ep       *Endpoint
	peerHost string
	flow     int
	opts     RDMAOpts

	size int
	npkt int
	una  int // lowest unacknowledged PSN
	nxt  int // next PSN to transmit

	data      []rdmaData // payload of each PSN
	retxQueue []int      // selective-repeat retransmissions pending

	rtoTimer eventq.Timer
	startAt  simtime.Time
	finished bool
	stats    FlowStats
	done     func(FlowStats)
}

func (s *rdmaSender) start() {
	s.startAt = s.sim.Now()
	s.stats.Start = s.startAt
	s.stats.Bytes = s.size
	s.pump()
}

func (s *rdmaSender) pktBytes(psn int) int {
	if psn == s.npkt-1 {
		if r := s.size - (s.npkt-1)*s.opts.MTU; r > 0 {
			return r
		}
	}
	return s.opts.MTU
}

// pump transmits as permitted by the send window: selective-repeat
// retransmissions first, then new PSNs.
func (s *rdmaSender) pump() {
	if s.finished {
		return
	}
	for _, psn := range s.retxQueue {
		if psn >= s.una {
			s.sendPkt(psn, true)
		}
	}
	s.retxQueue = s.retxQueue[:0]
	for s.nxt < s.npkt && s.nxt-s.una < s.opts.WindowPkts {
		s.sendPkt(s.nxt, false)
		s.nxt++
	}
	s.armRTO()
}

func (s *rdmaSender) sendPkt(psn int, retx bool) {
	if retx {
		s.stats.Retransmits++
	}
	pkt := s.sim.NewPacket(simnet.KindData, rdmaHeaderBytes+s.pktBytes(psn), s.peerHost)
	pkt.FlowID = s.flow
	pkt.Payload = &s.data[psn]
	s.ep.host.Send(pkt)
}

func (s *rdmaSender) receive(pkt *simnet.Packet) {
	var a *rdmaAck
	var missing []int
	switch p := pkt.Payload.(type) {
	case *rdmaAck:
		a = p
	case *rdmaSRNak:
		a, missing = &p.rdmaAck, p.missing
	}
	if a == nil || s.finished {
		return
	}
	if a.epsn > s.una {
		s.una = a.epsn
	}
	if s.una >= s.npkt {
		s.complete()
		return
	}
	switch {
	case a.nak && s.opts.SelectiveRepeat:
		s.retxQueue = append(s.retxQueue, missing...)
	case a.nak:
		// Go-back-N: rewind and retransmit everything from ePSN.
		if a.epsn < s.nxt {
			s.stats.Retransmits += s.nxt - a.epsn
			for psn := a.epsn; psn < min(s.nxt, a.epsn+s.opts.WindowPkts); psn++ {
				s.sendPkt(psn, false)
			}
		}
	}
	s.pump()
}

func (s *rdmaSender) armRTO() {
	s.sim.Cancel(s.rtoTimer)
	if s.una >= s.npkt {
		return
	}
	s.rtoTimer = s.sim.AfterCall(s.opts.RTO, rdmaRTOFire, s, nil)
}

// rdmaRTOFire is the typed RTO event: a0 is the *rdmaSender.
func rdmaRTOFire(a0, _ any) { a0.(*rdmaSender).fireRTO() }

// fireRTO is the NIC's transport timer: retransmit from the first
// unacknowledged PSN (go-back-N semantics).
func (s *rdmaSender) fireRTO() {
	if s.finished {
		return
	}
	s.stats.RTOs++
	end := min(s.nxt, s.una+s.opts.WindowPkts)
	s.stats.Retransmits += end - s.una
	for psn := s.una; psn < end; psn++ {
		s.sendPkt(psn, false)
	}
	s.armRTO()
}

func (s *rdmaSender) complete() {
	s.finished = true
	s.sim.Cancel(s.rtoTimer)
	s.stats.End = s.sim.Now()
	s.stats.FCT = s.stats.End.Sub(s.startAt)
	s.ep.unregister(s.flow)
	if s.done != nil {
		s.done(s.stats)
	}
}

// rdmaReceiver models the responder NIC. With go-back-N it accepts only
// in-sequence PSNs, NAKs once per out-of-sequence episode, and re-ACKs
// duplicates; with selective repeat it buffers out-of-order packets and
// NAKs the specific holes.
type rdmaReceiver struct {
	ep       *Endpoint
	peerHost string
	flow     int
	npkt     int
	opts     RDMAOpts

	acks      []rdmaAck // acks[2*epsn+nak]: the payload of every plain ACK/NAK
	epsn      int
	nakArmed  bool // go-back-N: one NAK per OOO episode
	rcvd      []bool
	nakedUpTo int // selective repeat: highest PSN already NAKed
}

func (r *rdmaReceiver) receive(pkt *simnet.Packet) {
	d, ok := pkt.Payload.(*rdmaData)
	if !ok {
		return
	}
	if r.opts.SelectiveRepeat {
		r.receiveSR(d)
		return
	}
	switch {
	case d.psn == r.epsn:
		r.epsn++
		r.nakArmed = false
		r.sendAck(false, nil)
	case d.psn < r.epsn:
		// Duplicate: re-ACK so the sender can make progress.
		r.sendAck(false, nil)
	default:
		// Out of sequence: drop, NAK once until in-sequence resumes.
		if !r.nakArmed {
			r.nakArmed = true
			r.sendAck(true, nil)
		}
	}
}

func (r *rdmaReceiver) receiveSR(d *rdmaData) {
	if d.psn < r.npkt && !r.rcvd[d.psn] {
		r.rcvd[d.psn] = true
	}
	for r.epsn < r.npkt && r.rcvd[r.epsn] {
		r.epsn++
	}
	if d.psn > r.epsn {
		// Holes below d.psn that have not been NAKed yet.
		var missing []int
		for psn := max(r.epsn, r.nakedUpTo); psn < d.psn; psn++ {
			if !r.rcvd[psn] {
				missing = append(missing, psn)
			}
		}
		if d.psn > r.nakedUpTo {
			r.nakedUpTo = d.psn
		}
		if len(missing) > 0 {
			r.sendAck(true, missing)
			return
		}
	}
	r.sendAck(false, nil)
}

// sendAck acknowledges up to ePSN. A NAK naming missing PSNs (selective
// repeat only) carries a payload of its own; every other ACK or NAK is
// the table slot for its (ePSN, nak).
func (r *rdmaReceiver) sendAck(nak bool, missing []int) {
	ack := ackPacket(r.ep.sim, r.peerHost, r.flow)
	if missing != nil {
		ack.Payload = &rdmaSRNak{rdmaAck{epsn: r.epsn, nak: true}, missing}
	} else if nak {
		ack.Payload = &r.acks[2*r.epsn+1]
	} else {
		ack.Payload = &r.acks[2*r.epsn]
	}
	r.ep.host.Send(ack)
	if r.epsn >= r.npkt {
		r.ep.unregister(r.flow)
	}
}
