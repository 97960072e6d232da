package simnet

import (
	"errors"
	"fmt"

	"linkguardian/internal/seqnum"
	"linkguardian/internal/simtime"
)

// On-wire packing of the 3-byte LinkGuardian headers (§3.5: 16-bit seqNo,
// era bit and packet-type metadata in LGHeaderBytes = 3 bytes). The
// simulator carries headers parsed (Packet.LG / Packet.LGAck) and accounts
// only their size; this file defines the bit layout a hardware dataplane
// would emit, and the fuzz tests hold encode/decode to an exact bijection
// on the data header's 24 bits.
//
// Data header layout:
//
//	byte 0: seqNo bits 0–7      (LastTx on dummy packets, which carry no
//	byte 1: seqNo bits 8–15      own seqNo — §3.2)
//	byte 2: bit 0 era, bit 1 retx, bit 2 dummy, bits 3–7 channel (0–31)
//
// ACK header layout:
//
//	byte 0: latestRxSeqNo bits 0–7
//	byte 1: latestRxSeqNo bits 8–15
//	byte 2: bit 0 era, bit 1 valid, bit 2 spare, bits 3–7 channel
const (
	lgEraBit    = 1 << 0
	lgRetxBit   = 1 << 1
	lgDummyBit  = 1 << 2
	lgChanMask  = 0x1f
	lgChanShift = 3
)

// EncodeLGData packs a data header into its 3-byte wire form. Channels
// above 31 are truncated to the 5 wire bits (per-class protection uses one
// channel per traffic class; 32 classes is far beyond any deployment).
func EncodeLGData(h *LGData) [LGHeaderBytes]byte {
	seq := h.Seq
	if h.Dummy {
		seq = h.LastTx
	}
	var b [LGHeaderBytes]byte
	b[0] = byte(seq.N)
	b[1] = byte(seq.N >> 8)
	b[2] = (h.Chan & lgChanMask) << lgChanShift
	if seq.Era&1 != 0 {
		b[2] |= lgEraBit
	}
	if h.Retx {
		b[2] |= lgRetxBit
	}
	if h.Dummy {
		b[2] |= lgDummyBit
	}
	return b
}

// DecodeLGData unpacks a 3-byte wire header. Decode∘Encode is the identity
// on canonical headers (era and channel within wire range, the unused seq
// field zero), and Encode∘Decode is the identity on all 2^24 byte patterns.
func DecodeLGData(b [LGHeaderBytes]byte) LGData {
	seq := seqnum.Seq{
		N:   uint16(b[0]) | uint16(b[1])<<8,
		Era: b[2] & lgEraBit,
	}
	h := LGData{
		Chan:  (b[2] >> lgChanShift) & lgChanMask,
		Retx:  b[2]&lgRetxBit != 0,
		Dummy: b[2]&lgDummyBit != 0,
	}
	if h.Dummy {
		h.LastTx = seq
	} else {
		h.Seq = seq
	}
	return h
}

const (
	ackEraBit   = 1 << 0
	ackValidBit = 1 << 1
	ackSpareBit = 1 << 2
)

// EncodeLGAck packs an ACK header into its 3-byte wire form.
func EncodeLGAck(h *LGAck) [LGHeaderBytes]byte {
	var b [LGHeaderBytes]byte
	b[0] = byte(h.LatestRx.N)
	b[1] = byte(h.LatestRx.N >> 8)
	b[2] = (h.Chan & lgChanMask) << lgChanShift
	if h.LatestRx.Era&1 != 0 {
		b[2] |= ackEraBit
	}
	if h.Valid {
		b[2] |= ackValidBit
	}
	return b
}

// DecodeLGAck unpacks a 3-byte ACK wire header. The spare bit is ignored,
// so Encode∘Decode is the identity on every byte pattern with the spare
// bit clear.
func DecodeLGAck(b [LGHeaderBytes]byte) LGAck {
	return LGAck{
		LatestRx: seqnum.Seq{
			N:   uint16(b[0]) | uint16(b[1])<<8,
			Era: b[2] & ackEraBit,
		},
		Chan:  (b[2] >> lgChanShift) & lgChanMask,
		Valid: b[2]&ackValidBit != 0,
	}
}

// LG datagram framing: one simulated L2 frame per UDP datagram, carrying
// the 3-byte LinkGuardian headers above plus the frame metadata a remote
// dataplane needs to reconstruct the Packet. This is the live transport's
// wire format (internal/live); the discrete-event simulator never touches
// it. The layout is length-delimited and strictly validated: a decoder
// accepts a buffer only if every field is canonical and no byte is left
// over, and on everything it accepts, Append∘Decode is the identity — the
// FuzzLGDatagram bijection.
//
//	byte 0     magic 'G'
//	byte 1     version (1)
//	byte 2     kind (KindData..KindResume; KindTimer never crosses a wire)
//	byte 3     flags: bit0 LG header, bit1 ACK header, bit2 notif block;
//	           bits 3–7 must be zero
//	bytes 4–5  frame Size, uint16 LE (simulated L2 length for rate pacing)
//	[3 bytes]  LG data header       (flag bit0; EncodeLGData layout)
//	[3 bytes]  piggybacked/explicit ACK header (flag bit1; EncodeLGAck)
//	[var]      loss-notification block (flag bit2):
//	             3 bytes latestRx in the ACK layout with bits 1–2 clear,
//	             1 byte count (≤ MaxNotifMissing),
//	             1 byte per-seq era bits (bit i = Missing[i].Era; bits ≥
//	             count must be zero),
//	             count × 2 bytes missing seqNo, uint16 LE
//	[5 bytes]  PFC block, only on KindPause/KindResume: 1 byte class
//	           (< NumPrios), 4 bytes pause quanta in ns, uint32 LE
//	bytes n…   payload: 2-byte length, uint16 LE, then that many bytes;
//	           only KindData may carry one
const (
	lgDatagramMagic   = 'G'
	lgDatagramVersion = 1

	// MaxDatagramPayload caps the app payload of one datagram — a jumbo
	// frame's worth, far under the 64 KiB UDP limit.
	MaxDatagramPayload = 9216

	// MaxLGDatagramBytes is the largest buffer AppendLGDatagram can produce:
	// fixed preamble, all three optional LG blocks, the PFC block and a
	// maximal payload. Receive buffers of this size never truncate.
	MaxLGDatagramBytes = 6 + 3 + 3 + (3 + 1 + 1 + 2*MaxNotifMissing) + 5 + 2 + MaxDatagramPayload

	dgFlagLG    = 1 << 0
	dgFlagAck   = 1 << 1
	dgFlagNotif = 1 << 2
	dgFlagMask  = dgFlagLG | dgFlagAck | dgFlagNotif
)

// Datagram codec errors. Decode failures are per-datagram: the live
// transport counts and drops the offending datagram, exactly as a MAC
// drops a frame with a bad FCS.
var (
	ErrDatagramMagic     = errors.New("simnet: datagram magic/version mismatch")
	ErrDatagramTruncated = errors.New("simnet: truncated datagram")
	ErrDatagramTrailing  = errors.New("simnet: trailing bytes after datagram")
	ErrDatagramKind      = errors.New("simnet: datagram kind not valid on the wire")
	ErrDatagramFlags     = errors.New("simnet: datagram flags inconsistent with kind")
	ErrDatagramHeader    = errors.New("simnet: non-canonical LG header bits")
	ErrDatagramNotif     = errors.New("simnet: malformed loss-notification block")
	ErrDatagramPFC       = errors.New("simnet: malformed PFC block")
	ErrDatagramPayload   = errors.New("simnet: datagram payload invalid")
)

// wireKind reports whether a packet kind may appear in a datagram:
// everything a real link carries. KindTimer is a switch-internal
// packet-generator artifact and never leaves its pipeline.
func wireKind(k Kind) bool { return k <= KindResume && k != KindTimer }

// AppendLGDatagram encodes one frame and its payload bytes onto dst and
// returns the extended slice. The header blocks are taken from the
// packet's Present bits; payload must be empty unless the frame is
// KindData. Everything AppendLGDatagram emits is accepted by
// DecodeLGDatagram and round-trips byte-identically.
func AppendLGDatagram(dst []byte, p *Packet, payload []byte) ([]byte, error) {
	if !wireKind(p.Kind) {
		return dst, fmt.Errorf("%w: %v", ErrDatagramKind, p.Kind)
	}
	if p.Size < 0 || p.Size > 0xffff {
		return dst, fmt.Errorf("%w: frame size %d", ErrDatagramPayload, p.Size)
	}
	if len(payload) > MaxDatagramPayload {
		return dst, fmt.Errorf("%w: %d bytes", ErrDatagramPayload, len(payload))
	}
	if len(payload) > 0 && p.Kind != KindData {
		return dst, fmt.Errorf("%w: payload on %v frame", ErrDatagramPayload, p.Kind)
	}
	var flags byte
	if p.LG.Present {
		flags |= dgFlagLG
	}
	if p.LGAck.Present {
		flags |= dgFlagAck
	}
	if p.Notif.Present {
		flags |= dgFlagNotif
	}
	if err := kindFlagsConsistent(p.Kind, flags, p.LG.Dummy); err != nil {
		return dst, err
	}
	dst = append(dst, lgDatagramMagic, lgDatagramVersion, byte(p.Kind), flags,
		byte(p.Size), byte(p.Size>>8))
	if p.LG.Present {
		h := EncodeLGData(&p.LG)
		dst = append(dst, h[0], h[1], h[2])
	}
	if p.LGAck.Present {
		h := EncodeLGAck(&p.LGAck)
		dst = append(dst, h[0], h[1], h[2])
	}
	if p.Notif.Present {
		n := &p.Notif
		if n.Count < 0 || n.Count > MaxNotifMissing {
			return dst, fmt.Errorf("%w: count %d", ErrDatagramNotif, n.Count)
		}
		hdr := (n.Chan & lgChanMask) << lgChanShift
		hdr |= n.LatestRx.Era & 1
		dst = append(dst, byte(n.LatestRx.N), byte(n.LatestRx.N>>8), hdr, byte(n.Count))
		var eras byte
		for i := 0; i < n.Count; i++ {
			eras |= (n.Missing[i].Era & 1) << i
		}
		dst = append(dst, eras)
		for i := 0; i < n.Count; i++ {
			dst = append(dst, byte(n.Missing[i].N), byte(n.Missing[i].N>>8))
		}
	}
	if p.Kind == KindPause || p.Kind == KindResume {
		if p.PauseClass < 0 || p.PauseClass >= NumPrios {
			return dst, fmt.Errorf("%w: class %d", ErrDatagramPFC, p.PauseClass)
		}
		q := int64(p.PauseQuanta)
		if q < 0 || q > int64(^uint32(0)) {
			return dst, fmt.Errorf("%w: quanta %v", ErrDatagramPFC, p.PauseQuanta)
		}
		dst = append(dst, byte(p.PauseClass),
			byte(q), byte(q>>8), byte(q>>16), byte(q>>24))
	}
	dst = append(dst, byte(len(payload)), byte(len(payload)>>8))
	return append(dst, payload...), nil
}

// kindFlagsConsistent enforces the kind↔header invariants a well-formed
// frame satisfies: control kinds carry their defining header, and the LG
// dummy bit agrees with KindDummy.
func kindFlagsConsistent(k Kind, flags byte, dummy bool) error {
	switch k {
	case KindLGAck:
		if flags&dgFlagAck == 0 {
			return fmt.Errorf("%w: lg-ack frame without ACK header", ErrDatagramFlags)
		}
	case KindLossNotif:
		if flags&dgFlagNotif == 0 {
			return fmt.Errorf("%w: loss-notif frame without notif block", ErrDatagramFlags)
		}
	case KindDummy:
		if flags&dgFlagLG == 0 {
			return fmt.Errorf("%w: dummy frame without LG header", ErrDatagramFlags)
		}
	}
	if flags&dgFlagLG != 0 && dummy != (k == KindDummy) {
		return fmt.Errorf("%w: dummy bit disagrees with kind %v", ErrDatagramFlags, k)
	}
	return nil
}

// DecodeLGDatagram parses one datagram into p (which must be freshly drawn
// — its header fields are overwritten, not merged) and returns the payload
// as a subslice of b; the caller copies it before b is reused. Every
// violation of the layout — truncation, oversize, non-canonical header
// bits, trailing garbage — is an error, and every accepted buffer
// re-encodes byte-identically via AppendLGDatagram.
func DecodeLGDatagram(b []byte, p *Packet) ([]byte, error) {
	if len(b) < 6 {
		return nil, fmt.Errorf("%w: %d bytes", ErrDatagramTruncated, len(b))
	}
	if b[0] != lgDatagramMagic || b[1] != lgDatagramVersion {
		return nil, fmt.Errorf("%w: %#02x/%d", ErrDatagramMagic, b[0], b[1])
	}
	kind := Kind(b[2])
	if !wireKind(kind) {
		return nil, fmt.Errorf("%w: %v", ErrDatagramKind, kind)
	}
	flags := b[3]
	if flags&^byte(dgFlagMask) != 0 {
		return nil, fmt.Errorf("%w: flags %#02x", ErrDatagramFlags, flags)
	}
	p.Kind = kind
	p.Size = int(b[4]) | int(b[5])<<8
	off := 6
	if flags&dgFlagLG != 0 {
		if len(b) < off+LGHeaderBytes {
			return nil, fmt.Errorf("%w: in LG header", ErrDatagramTruncated)
		}
		p.LG = DecodeLGData([LGHeaderBytes]byte{b[off], b[off+1], b[off+2]})
		p.LG.Present = true
		off += LGHeaderBytes
	}
	if err := kindFlagsConsistent(kind, flags, p.LG.Dummy); err != nil {
		return nil, err
	}
	if flags&dgFlagAck != 0 {
		if len(b) < off+LGHeaderBytes {
			return nil, fmt.Errorf("%w: in ACK header", ErrDatagramTruncated)
		}
		if b[off+2]&ackSpareBit != 0 {
			return nil, fmt.Errorf("%w: ACK spare bit set", ErrDatagramHeader)
		}
		p.LGAck = DecodeLGAck([LGHeaderBytes]byte{b[off], b[off+1], b[off+2]})
		p.LGAck.Present = true
		off += LGHeaderBytes
	}
	if flags&dgFlagNotif != 0 {
		if len(b) < off+5 {
			return nil, fmt.Errorf("%w: in notif block", ErrDatagramTruncated)
		}
		hdr := b[off+2]
		if hdr&(ackValidBit|ackSpareBit) != 0 {
			return nil, fmt.Errorf("%w: latestRx control bits %#02x", ErrDatagramNotif, hdr)
		}
		count := int(b[off+3])
		if count > MaxNotifMissing {
			return nil, fmt.Errorf("%w: count %d", ErrDatagramNotif, count)
		}
		eras := b[off+4]
		if count < 8 && eras>>count != 0 {
			return nil, fmt.Errorf("%w: era bits beyond count", ErrDatagramNotif)
		}
		n := &p.Notif
		n.Present = true
		n.LatestRx = seqnum.Seq{N: uint16(b[off]) | uint16(b[off+1])<<8, Era: hdr & ackEraBit}
		n.Chan = (hdr >> lgChanShift) & lgChanMask
		n.Count = count
		off += 5
		if len(b) < off+2*count {
			return nil, fmt.Errorf("%w: in missing seqNos", ErrDatagramTruncated)
		}
		for i := 0; i < count; i++ {
			n.Missing[i] = seqnum.Seq{
				N:   uint16(b[off]) | uint16(b[off+1])<<8,
				Era: (eras >> i) & 1,
			}
			off += 2
		}
	}
	if kind == KindPause || kind == KindResume {
		if len(b) < off+5 {
			return nil, fmt.Errorf("%w: in PFC block", ErrDatagramTruncated)
		}
		class := int(b[off])
		if class >= NumPrios {
			return nil, fmt.Errorf("%w: class %d", ErrDatagramPFC, class)
		}
		p.PauseClass = class
		p.PauseQuanta = simtime.Duration(uint32(b[off+1]) | uint32(b[off+2])<<8 |
			uint32(b[off+3])<<16 | uint32(b[off+4])<<24)
		off += 5
	}
	if len(b) < off+2 {
		return nil, fmt.Errorf("%w: in payload length", ErrDatagramTruncated)
	}
	plen := int(b[off]) | int(b[off+1])<<8
	off += 2
	if plen > MaxDatagramPayload {
		return nil, fmt.Errorf("%w: %d bytes", ErrDatagramPayload, plen)
	}
	if plen > 0 && kind != KindData {
		return nil, fmt.Errorf("%w: payload on %v frame", ErrDatagramPayload, kind)
	}
	if len(b) < off+plen {
		return nil, fmt.Errorf("%w: in payload", ErrDatagramTruncated)
	}
	payload := b[off : off+plen : off+plen]
	off += plen
	if off != len(b) {
		return nil, fmt.Errorf("%w: %d bytes", ErrDatagramTrailing, len(b)-off)
	}
	return payload, nil
}

// Link-id multiplexed framing: the shared-socket transport of the live
// dataplane (live.Mux) carries many protected links over one UDP socket,
// so each frame (one record of a bundled UDP datagram) is prefixed with
// its link's 16-bit id. The prefix is deliberately outside the LG datagram
// proper — the receiving mux routes on it without touching the inner
// codec, and hands the frame to that link's topology, whose own fault
// layer (Ifc.Receive) rules on it — nothing else is parsed or trusted.
//
//	bytes 0–1  link id, uint16 LE
//	bytes 2…   one LG datagram in the AppendLGDatagram layout
const LinkIDBytes = 2

// MaxLinkDatagramBytes is the largest buffer AppendLinkDatagram can
// produce: the link-id prefix plus a maximal LG datagram.
const MaxLinkDatagramBytes = LinkIDBytes + MaxLGDatagramBytes

// ErrDatagramLinkID reports a datagram too short to carry the link-id
// prefix of the multiplexed framing.
var ErrDatagramLinkID = errors.New("simnet: datagram shorter than link-id prefix")

// AppendLinkDatagram encodes the link-id prefix followed by one LG
// datagram onto dst and returns the extended slice. Decoding splits the
// prefix with SplitLinkDatagram, then parses the remainder with
// DecodeLGDatagram; the composition round-trips byte-identically.
func AppendLinkDatagram(dst []byte, link uint16, p *Packet, payload []byte) ([]byte, error) {
	dst = append(dst, byte(link), byte(link>>8))
	return AppendLGDatagram(dst, p, payload)
}

// SplitLinkDatagram peels the link-id prefix off a multiplexed datagram,
// returning the link id and the inner LG datagram (a subslice of b). A
// buffer shorter than the prefix is rejected; validating the remainder is
// the inner decoder's job.
func SplitLinkDatagram(b []byte) (uint16, []byte, error) {
	if len(b) < LinkIDBytes {
		return 0, nil, fmt.Errorf("%w: %d bytes", ErrDatagramLinkID, len(b))
	}
	return uint16(b[0]) | uint16(b[1])<<8, b[LinkIDBytes:], nil
}
