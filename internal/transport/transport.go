// Package transport implements the packet-level endpoint transports the
// paper evaluates over LinkGuardian: DCTCP, CUBIC and BBR variants of TCP
// (kernel 5.4-era behavior: SACK, RACK-TLP tail probes, ECN, RTOmin=1ms)
// and RoCEv2-style RDMA reliable connections with go-back-N recovery (plus
// the selective-repeat extension discussed in §5).
//
// The implementations are deliberately packet-granular rather than
// byte-exact: flow completion times in the paper are governed by the
// transports' recovery behavior — SACK windows, reordering tolerance,
// probe timeouts, go-back-N rewinds — which is what these models reproduce.
package transport

import (
	"fmt"

	"linkguardian/internal/simnet"
	"linkguardian/internal/simtime"
)

// Endpoint attaches transport connections to a simulated host and
// demultiplexes received packets to them by flow ID.
type Endpoint struct {
	sim     *simnet.Sim
	host    *simnet.Host
	conns   map[int]conn
	tcpAcks ackSlab // payloads of the ACKs this endpoint's TCP receivers send
}

// conn is one side of a transport connection. receive must not keep pkt:
// the endpoint's host releases it to the Sim's free list as soon as
// receive returns. Keeping pkt.Payload is safe, since the pool never
// touches it.
type conn interface {
	receive(pkt *simnet.Packet)
}

// NewEndpoint wraps a host, taking over its OnReceive handler. The host
// becomes a terminal point of the packet pool (simnet.Host.Recycle): every
// delivered packet is released after its conn has read it.
func NewEndpoint(sim *simnet.Sim, host *simnet.Host) *Endpoint {
	e := &Endpoint{sim: sim, host: host, conns: map[int]conn{}}
	host.OnReceive = e.dispatch
	host.Recycle = true
	return e
}

// Host returns the underlying host.
func (e *Endpoint) Host() *simnet.Host { return e.host }

func (e *Endpoint) dispatch(pkt *simnet.Packet) {
	if c, ok := e.conns[pkt.FlowID]; ok {
		c.receive(pkt)
	}
}

func (e *Endpoint) register(flow int, c conn) {
	if _, dup := e.conns[flow]; dup {
		panic(fmt.Sprintf("transport: duplicate flow id %d on %s", flow, e.host.NodeName()))
	}
	e.conns[flow] = c
}

func (e *Endpoint) unregister(flow int) { delete(e.conns, flow) }

// FlowStats records what the paper's flow-level analyses need: completion
// time, recovery activity, and the SACK/cwnd trace features used by the
// Figure 13 classification.
type FlowStats struct {
	Start, End simtime.Time
	FCT        simtime.Duration

	Bytes       int
	Retransmits int // end-to-end retransmitted segments
	RTOs        int
	TLPs        int // tail-loss probes fired

	// Figure 13 classification features (§4.4).
	EverSACKed          bool // at least one SACK received
	MaxSackedBytes      int  // peak outstanding SACKed bytes
	CwndReduced         bool // any loss/ECN-triggered reduction
	ReducedWhilePending bool // reduction arrived with unsent bytes pending
	PendingAtReduce     int  // unsent bytes at first reduction
}

// segment header sizes on the wire.
const (
	tcpHeaderBytes  = simtime.EthHeaderFCS + 40 // Eth+FCS, IPv4, TCP
	rdmaHeaderBytes = simtime.EthHeaderFCS + 44 // Eth+FCS, IPv4, UDP, BTH+iCRC
	ackFrameBytes   = simtime.MinFrame
)

// SegmentInfo is implemented by transport data payloads, exposing the
// segment (or PSN) index within the flow — used by experiments that need to
// observe which packets a lossy link dropped.
type SegmentInfo interface {
	// Index is the zero-based segment/PSN index.
	Index() int
}

// Payloads are not allocated per packet. Every payload a flow can send is
// a slot of a table the flow allocates once (a data segment's slot lives in
// its segState; RDMA has data[psn] and acks[2*epsn+nak]), or, for TCP ACKs,
// a fresh slot of the endpoint's ackSlab. A slot is written before its
// first packet leaves and never rewritten, so every copy of a packet — a
// duplicate, a LinkGuardian retransmission — may share it. Only a
// selective-repeat NAK naming missing PSNs is allocated on its own.

// tcpData is the payload of a TCP data segment.
type tcpData struct {
	seg   int // segment index within the flow
	bytes int // payload length
}

// Index implements SegmentInfo.
func (d *tcpData) Index() int { return d.seg }

// maxSACKBlocks is the number of SACK blocks an ACK carries (the TCP option
// space holds three alongside timestamps).
const maxSACKBlocks = 3

// tcpAck is the payload of a TCP ACK.
type tcpAck struct {
	cum   int                      // next expected segment index (all below received)
	sack  [maxSACKBlocks]sackBlock // out-of-order ranges above cum: sack[:nsack]
	nsack int
	ece   bool // ECN echo for the packet that triggered this ACK
}

// sackBlock is a half-open range of received segment indices.
type sackBlock struct{ start, end int }

// ackSlabSize is the number of TCP ACK payloads one slab allocation holds.
const ackSlabSize = 256

// ackSlab hands out TCP ACK payloads. A TCP ACK's content has no small
// per-flow index, so each ACK takes a fresh slot, carved from a chunk
// allocated ackSlabSize slots at a time. Slots are never reused: a chunk
// is collected once no in-flight packet refers to any of its slots.
type ackSlab []tcpAck

func (s *ackSlab) next() *tcpAck {
	if len(*s) == 0 {
		*s = make(ackSlab, ackSlabSize)
	}
	a := &(*s)[0]
	*s = (*s)[1:]
	return a
}

// rdmaData is the payload of an RoCEv2 RC data packet.
type rdmaData struct {
	psn   int
	bytes int
}

// Index implements SegmentInfo.
func (d *rdmaData) Index() int { return d.psn }

// rdmaAck is the payload of an RC ACK or NAK.
type rdmaAck struct {
	epsn int  // next expected PSN (cumulative)
	nak  bool // out-of-sequence NAK: retransmit from epsn (go-back-N)
}

// rdmaSRNak is a selective-repeat NAK: it names the PSNs to retransmit.
type rdmaSRNak struct {
	rdmaAck
	missing []int
}
