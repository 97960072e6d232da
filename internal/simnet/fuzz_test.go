package simnet

import (
	"strings"
	"testing"

	"linkguardian/internal/seqnum"
	"linkguardian/internal/simtime"
)

// FuzzLGDataWire holds the 3-byte data-header codec to an exact bijection
// on the 2^19 patterns with the reserved bits clear: each decodes to a
// header that re-encodes to the same bytes, and decoding is stable
// (Decode∘Encode∘Decode = Decode). Decoding ignores the reserved bits; the
// datagram decoder is what rejects a header that sets them.
func FuzzLGDataWire(f *testing.F) {
	f.Add(byte(0), byte(0), byte(0))
	f.Add(byte(0xff), byte(0xff), byte(0xff))
	f.Add(byte(1), byte(0), byte(0b0000_0101)) // era + dummy
	f.Add(byte(0x34), byte(0x12), byte(0b1111_1010))
	f.Fuzz(func(t *testing.T, b0, b1, b2 byte) {
		b := [LGHeaderBytes]byte{b0, b1, b2 &^ lgReserved}
		h := DecodeLGData(b)
		if got := EncodeLGData(&h); got != b {
			t.Fatalf("Encode(Decode(%v)) = %v, not a bijection (header %+v)", b, got, h)
		}
		if h2 := DecodeLGData(EncodeLGData(&h)); h2 != h {
			t.Fatalf("decode not stable: %+v vs %+v", h, h2)
		}
		if raw := DecodeLGData([LGHeaderBytes]byte{b0, b1, b2}); raw != h {
			t.Fatalf("reserved bits %#02x changed the header: %+v vs %+v", b2&lgReserved, raw, h)
		}
		// Structural invariants of the layout.
		if h.Dummy && h.Seq != (seqnum.Seq{}) {
			t.Fatalf("dummy header decoded a data seqNo: %+v", h)
		}
		if !h.Dummy && h.LastTx != (seqnum.Seq{}) {
			t.Fatalf("data header decoded a LastTx: %+v", h)
		}
	})
}

// FuzzLGAckWire holds the 3-byte ACK-header codec to an exact bijection on
// the 2^18 patterns with the spare and reserved bits clear, as
// FuzzLGDataWire does for the data header.
func FuzzLGAckWire(f *testing.F) {
	f.Add(byte(0), byte(0), byte(0))
	f.Add(byte(0xff), byte(0xff), byte(0b0000_0011)) // era + valid
	f.Add(byte(7), byte(0), byte(0xff))
	f.Fuzz(func(t *testing.T, b0, b1, b2 byte) {
		b := [LGHeaderBytes]byte{b0, b1, b2 &^ (ackSpareBit | lgReserved)}
		h := DecodeLGAck(b)
		if got := EncodeLGAck(&h); got != b {
			t.Fatalf("Encode(Decode(%v)) = %v, not a bijection (header %+v)", b, got, h)
		}
		if h2 := DecodeLGAck(EncodeLGAck(&h)); h2 != h {
			t.Fatalf("decode not stable: %+v vs %+v", h, h2)
		}
		if raw := DecodeLGAck([LGHeaderBytes]byte{b0, b1, b2}); raw != h {
			t.Fatalf("spare or reserved bits %#02x changed the header: %+v vs %+v", b2&(ackSpareBit|lgReserved), raw, h)
		}
	})
}

// FuzzTraceEventString holds the trace event formatter total: no panics on
// any field combination, and the compact rendering keeps its diagnostic
// markers in sync with the fields.
func FuzzTraceEventString(f *testing.F) {
	f.Add(int64(0), "sw2->sw6", byte(0), 1500, 7, false, true, uint16(99), byte(1), true, false, true, uint16(98), 3)
	f.Add(int64(1e12), "", byte(200), -5, 0, true, false, uint16(0), byte(0), false, true, false, uint16(0), 0)
	f.Fuzz(func(t *testing.T, at int64, link string, kind byte, size, flow int,
		corrupted, hasLG bool, seq uint16, era byte, retx, dummy, ackValid bool, ackSeq uint16, notif int) {
		// Free-form fields (the link name, and kind names such as KindDummy's
		// "dummy" preceded by its column separator) may alias a marker; skip
		// those inputs rather than asserting on ambiguous renderings.
		kindName := " " + Kind(kind).String()
		for _, marker := range []string{"CORRUPTED", " retx", " dummy", " ack=", " notif["} {
			if strings.Contains(link, marker) || strings.Contains(kindName, marker) {
				t.Skip()
			}
		}
		e := TraceEvent{
			At: simtime.Time(at), Link: link, Kind: Kind(kind), Size: size, FlowID: flow,
			Corrupted: corrupted, HasLG: hasLG, Seq: seq, Era: era, Retx: retx,
			Dummy: dummy, AckValid: ackValid, AckSeq: ackSeq, NotifCount: notif,
		}
		s := e.String()
		if s == "" {
			t.Fatal("empty rendering")
		}
		if corrupted != strings.Contains(s, "CORRUPTED") {
			t.Fatalf("corrupted=%v but rendering %q", corrupted, s)
		}
		if hasLG && retx != strings.Contains(s, " retx") {
			t.Fatalf("retx=%v but rendering %q", retx, s)
		}
		if hasLG && dummy != strings.Contains(s, " dummy") {
			t.Fatalf("dummy=%v but rendering %q", dummy, s)
		}
		if ackValid != strings.Contains(s, " ack=") {
			t.Fatalf("ackValid=%v but rendering %q", ackValid, s)
		}
		if (notif > 0) != strings.Contains(s, " notif[") {
			t.Fatalf("notif=%d but rendering %q", notif, s)
		}
	})
}
