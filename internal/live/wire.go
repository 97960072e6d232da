package live

import (
	"errors"
	"syscall"
	"time"

	"linkguardian/internal/simnet"
)

// WireStats counts one link's transport activity (see MuxWire.Counters).
// Its datagrams are the link's frames, one bundle record each.
type WireStats struct {
	TxDatagrams uint64 // frames encoded and written to the socket
	RxDatagrams uint64 // frames decoded and injected into the ingress MAC
	TxErrors    uint64 // non-transient socket write failures (frame lost — wire loss)
	SendRetries uint64 // transient write failures retried after backoff
	SendDrops   uint64 // frames dropped after exhausting transient retries
	DecodeDrops uint64 // datagrams rejected by the codec (corrupt frame)
	EncodeDrops uint64 // frames the codec refused to emit (config bug)
}

// Bundle framing: the mux sends one UDP datagram per peer per flush, a
// bundle of records in batch order, each record one link datagram
// (simnet.AppendLinkDatagram: link id, then the LG datagram) behind its
// own length:
//
//	bytes 0–1  record length n (uint16 LE), excluding these two bytes
//	bytes 2…   n bytes of link datagram
//
// The length prefix belongs to the mux; the link-datagram codec is
// simnet's.
const recordHdrBytes = 2

// nextRecord splits the first record off bundle b, returning its link
// datagram and the rest of the bundle. A length prefix that is incomplete
// or runs past the end of b makes the whole remainder one malformed
// record: ok is false, rec nil and rest empty, so a walk always consumes
// its bundle exactly.
func nextRecord(b []byte) (rec, rest []byte, ok bool) {
	if len(b) < recordHdrBytes {
		return nil, nil, false
	}
	end := recordHdrBytes + (int(b[0]) | int(b[1])<<8)
	if end > len(b) {
		return nil, nil, false
	}
	return b[recordHdrBytes:end], b[end:], true
}

// Transient send-error policy: a full kernel socket buffer (ENOBUFS, or
// EAGAIN from a non-blocking path) drains in microseconds, so a short
// bounded backoff usually saves the frame. Anything longer would stall the
// flush goroutine — past maxSendAttempts the frame is surrendered to the
// protocol's own loss recovery, which treats it as a wire loss.
const maxSendAttempts = 3

var sendBackoff = [maxSendAttempts - 1]time.Duration{50 * time.Microsecond, 200 * time.Microsecond}

// transientSendErr reports whether a socket write error is worth retrying.
func transientSendErr(err error) bool {
	return errors.Is(err, syscall.ENOBUFS) || errors.Is(err, syscall.EAGAIN) ||
		errors.Is(err, syscall.EWOULDBLOCK)
}

// portal is the stub node on the far end of the wire-facing link. With the
// Carrier installed it never sees a packet; if one arrives anyway (carrier
// not yet attached), it is released rather than leaked.
type portal struct {
	loop *Loop
	name string
}

func (p *portal) HandlePacket(pkt *simnet.Packet, in *simnet.Ifc) { p.loop.Release(pkt) }
func (p *portal) NodeName() string                                { return p.name }
