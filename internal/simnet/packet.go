package simnet

import (
	"fmt"

	"linkguardian/internal/seqnum"
	"linkguardian/internal/simtime"
)

// Kind classifies a packet for the dataplane. Transport-level semantics
// (TCP segment vs ACK vs RDMA write) live in the opaque Payload; the
// network only distinguishes the kinds it must treat specially.
type Kind uint8

// Packet kinds.
const (
	KindData      Kind = iota // regular traffic (incl. transport ACKs)
	KindLGAck                 // explicit LinkGuardian ACK (min-size, §3.1)
	KindLossNotif             // LinkGuardian loss notification (App. A.1)
	KindDummy                 // LinkGuardian dummy packet (§3.2)
	KindPause                 // PFC pause frame (§3.5)
	KindResume                // PFC resume frame
	KindTimer                 // switch packet-generator timer packet
)

var kindNames = [...]string{"data", "lg-ack", "loss-notif", "dummy", "pause", "resume", "timer"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Standard egress queue indices; lower index = strictly higher priority
// (Figure 5: ReTx/loss-notifications > normal > dummy/ACK). Dummies and
// explicit ACKs get separate strictly-low classes: each self-replenishing
// stream owns its queue and that queue's dequeue hook, which the idle-link
// control replay checks (core/replay.go), and a port that sends both —
// one protecting each direction of its link — serves dummies first.
const (
	PrioHigh   = 0 // retransmissions, loss notifications, PFC
	PrioNormal = 1 // regular traffic
	PrioLow    = 2 // self-replenishing dummy queue
	PrioAck    = 3 // self-replenishing explicit-ACK queue
	NumPrios   = 4
)

// LGHeaderBytes is the LinkGuardian data/ACK header size: 16-bit seqNo,
// era bit and packet-type metadata packed into 3 bytes (§3.5).
const LGHeaderBytes = 3

// MaxNotifMissing bounds the missing seqNos one loss notification carries.
// The §3.5 consecutive-loss provisioning bounds the requested run (the
// reTxReqs registers default to 5, Figure 20 sizes 8 registers for six
// nines at 5% loss), so the header holds the run inline: a notification,
// like every other header, costs no allocation on the hot path.
const MaxNotifMissing = 8

// LGData is the LinkGuardian data header the sender switch prepends to each
// protected packet (and to dummy packets). It is carried inline in the
// Packet; Present distinguishes a stamped header from the zero value.
type LGData struct {
	Seq     seqnum.Seq
	Present bool // header stamped on this packet
	Retx    bool // retransmitted copy, not the original
	Dummy   bool // dummy packet: carries LastTx, consumes no seqNo
	// LastTx is meaningful only on dummy packets: the seqNo of the last
	// protected packet actually transmitted, letting the receiver detect a
	// tail loss without a new sequence number.
	LastTx seqnum.Seq
}

// LGAck is the LinkGuardian ACK header: the receiver's cumulative
// latestRxSeqNo, piggybacked on reverse traffic or carried by an explicit
// ACK packet. Present marks the header as carried on the packet; Valid
// marks the ACK value as stamped (an explicit-ACK packet waits in its
// self-replenishing queue with Present set and Valid clear until wire-time
// stamping fills in LatestRx).
type LGAck struct {
	LatestRx seqnum.Seq
	Present  bool
	Valid    bool
}

// LossNotif is the payload of a loss-notification packet: the missing
// sequence numbers (bounded inline by the consecutive-loss provisioning of
// §3.5) plus the post-gap latestRxSeqNo.
type LossNotif struct {
	Missing  [MaxNotifMissing]seqnum.Seq
	Count    int // live prefix of Missing
	LatestRx seqnum.Seq
	Present  bool
}

// MissingSeqs returns the live missing seqNos (aliasing the inline array).
func (n *LossNotif) MissingSeqs() []seqnum.Seq { return n.Missing[:n.Count] }

// Packet is the unit of simulation. Size is the L2 frame length in bytes
// including all headers; wire-time overheads (preamble, IFG, minimum frame)
// are applied by the transmitter.
//
// Packets are recycled through a per-Sim free list: terminal points hand
// exhausted packets back with Sim.Release and allocation points draw from
// the pool (NewPacket, NewCtrlPacket, Clone). See DESIGN.md §9 for the
// ownership discipline.
type Packet struct {
	ID   uint64
	Kind Kind
	Size int
	Prio int

	// ECN bits.
	ECNCapable bool
	CE         bool

	// PFC pause/resume frames carry the priority class they pause.
	PauseClass int

	// PauseQuanta, on pause frames, bounds how long the pause holds
	// without a refresh (real PFC pause-quanta semantics). Zero means the
	// pause holds until an explicit resume.
	PauseQuanta simtime.Duration

	// LinkGuardian headers, carried inline (Present clear when the feature
	// is inactive on the path) so stamping and Clone never allocate.
	LG    LGData
	LGAck LGAck
	Notif LossNotif

	// FlowID routes the packet and demultiplexes it at hosts.
	FlowID int
	// ToHost is the destination host name used by static routes.
	ToHost string

	// Payload carries transport state (segment metadata); opaque here.
	Payload any

	// SentAt is stamped when the packet first leaves its source, for
	// latency accounting.
	SentAt simtime.Time

	// RxBuffered marks a packet currently held in the receiver-side
	// reordering buffer (Algorithm 1's mark_pkt_as_rx_buffered).
	RxBuffered bool

	// Pool bookkeeping. gen is bumped every Release, so any observation of
	// a packet across a Release sees the generation change — the chaos
	// checker's use-after-release detector keys on it. pooled marks a
	// packet currently sitting in the free list.
	gen    uint32
	pooled bool
	next   *Packet // free-list link
}

// PoolGen returns the packet's pool generation: the number of times this
// Packet instance has been released back to its Sim's free list.
func (p *Packet) PoolGen() uint32 { return p.gen }

// Released reports whether the packet is currently in the free list. A
// released packet observed anywhere in the dataplane is a use-after-release
// bug; the chaos invariant checker asserts this never happens.
func (p *Packet) Released() bool { return p.pooled }

// Clone returns a copy of the packet with a fresh ID. The LinkGuardian
// headers are inline values, so the copy is one struct assignment — used by
// egress mirroring and multicast on the hot path, it draws from the packet
// pool and performs no allocation in steady state. The transport payload is
// shared: the network never mutates it.
func (p *Packet) Clone(s *Sim) *Packet {
	c := s.alloc()
	gen := c.gen
	*c = *p
	c.gen = gen
	c.pooled = false
	c.next = nil
	c.ID = s.pktID()
	return c
}

// NewPacket allocates a data packet of the given size destined to a host,
// drawing from the Sim's packet free list.
func (s *Sim) NewPacket(kind Kind, size int, toHost string) *Packet {
	p := s.alloc()
	p.ID = s.pktID()
	p.Kind = kind
	p.Size = size
	p.Prio = PrioNormal
	p.ToHost = toHost
	return p
}

// alloc pops a zeroed packet off the free list (its generation counter
// survives recycling), or heap-allocates when the pool is dry.
func (s *Sim) alloc() *Packet {
	p := s.pktFree
	if p == nil {
		return &Packet{}
	}
	s.pktFree = p.next
	p.next = nil
	p.pooled = false
	return p
}

// Release hands an exhausted packet back to the free list. Only terminal
// points may call it — the points where the dataplane is done with the
// packet and no other reference exists: the corruption drop at the
// receiving MAC, tail drops, routeless drops, absorbed control frames
// (PFC, explicit ACKs, loss notifications, dummies), duplicate absorption,
// reordering-buffer overflow, Tx-buffer entry retirement, and hosts that
// opted in via Host.Recycle. Releasing the same packet twice panics: it
// always indicates an ownership bug, and silently recycling would corrupt
// an unrelated future packet.
func (s *Sim) Release(p *Packet) {
	if p.pooled {
		panic(fmt.Sprintf("simnet: double release of packet %d (kind %v)", p.ID, p.Kind))
	}
	if s.OnRelease != nil {
		s.OnRelease(p)
	}
	*p = Packet{gen: p.gen + 1, pooled: true, next: s.pktFree}
	s.pktFree = p
}
