package simnet

import (
	"bytes"
	"errors"
	"testing"

	"linkguardian/internal/seqnum"
	"linkguardian/internal/simtime"
)

// mustAppend encodes p/payload or fails the test.
func mustAppend(t *testing.T, p *Packet, payload []byte) []byte {
	t.Helper()
	b, err := AppendLGDatagram(nil, p, payload)
	if err != nil {
		t.Fatalf("AppendLGDatagram(%+v): %v", p, err)
	}
	return b
}

// sampleFrames covers every wire kind with representative header blocks.
func sampleFrames() []struct {
	name    string
	pkt     Packet
	payload []byte
} {
	return []struct {
		name    string
		pkt     Packet
		payload []byte
	}{
		{"data+lg+ack+payload", Packet{
			Kind: KindData, Size: 1003,
			LG:    LGData{Present: true, Seq: seqnum.Seq{N: 0x1234, Era: 1}},
			LGAck: LGAck{Present: true, Valid: true, LatestRx: seqnum.Seq{N: 0x1230}},
		}, []byte("hello, protected link")},
		{"bare-data", Packet{Kind: KindData, Size: 64}, nil},
		{"retx-copy", Packet{
			Kind: KindData, Size: 1003,
			LG: LGData{Present: true, Seq: seqnum.Seq{N: 9}, Retx: true},
		}, []byte{0, 1, 2, 3, 4, 5, 6, 7}},
		{"explicit-ack", Packet{
			Kind: KindLGAck, Size: 64,
			LGAck: LGAck{Present: true, Valid: true, LatestRx: seqnum.Seq{N: 0xffff, Era: 1}},
		}, nil},
		{"dummy", Packet{
			Kind: KindDummy, Size: 64,
			LG: LGData{Present: true, Dummy: true, LastTx: seqnum.Seq{N: 77, Era: 1}},
		}, nil},
		{"loss-notif", Packet{
			Kind: KindLossNotif, Size: 64,
			Notif: LossNotif{
				Present: true, Count: 3,
				LatestRx: seqnum.Seq{N: 100, Era: 1},
				Missing: [MaxNotifMissing]seqnum.Seq{
					{N: 101, Era: 1}, {N: 102, Era: 0}, {N: 103, Era: 1},
				},
			},
		}, nil},
		{"pause", Packet{
			Kind: KindPause, Size: 64, PauseClass: PrioNormal,
			PauseQuanta: 50 * simtime.Microsecond,
		}, nil},
		{"resume", Packet{Kind: KindResume, Size: 64, PauseClass: PrioNormal}, nil},
	}
}

// TestLGDatagramRoundTrip holds Decode∘Append to the identity on every
// frame shape the live dataplane emits.
func TestLGDatagramRoundTrip(t *testing.T) {
	for _, tc := range sampleFrames() {
		t.Run(tc.name, func(t *testing.T) {
			b := mustAppend(t, &tc.pkt, tc.payload)
			if len(b) > MaxLGDatagramBytes {
				t.Fatalf("encoded %d bytes, above MaxLGDatagramBytes", len(b))
			}
			var got Packet
			payload, err := DecodeLGDatagram(b, &got)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !bytes.Equal(payload, tc.payload) {
				t.Fatalf("payload %q, want %q", payload, tc.payload)
			}
			if got.Kind != tc.pkt.Kind || got.Size != tc.pkt.Size ||
				got.LG != tc.pkt.LG || got.LGAck != tc.pkt.LGAck ||
				got.Notif != tc.pkt.Notif || got.PauseClass != tc.pkt.PauseClass ||
				got.PauseQuanta != tc.pkt.PauseQuanta {
				t.Fatalf("fields diverged:\n got %+v\nwant %+v", got, tc.pkt)
			}
			again, err := AppendLGDatagram(nil, &got, payload)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(again, b) {
				t.Fatalf("re-encode not byte-identical:\n got %x\nwant %x", again, b)
			}
		})
	}
}

// TestLGDatagramRejects drives the decoder through every malformed-input
// class and asserts it reports the right sentinel error — truncated,
// oversized and trailing-garbage datagrams must never parse.
func TestLGDatagramRejects(t *testing.T) {
	valid := mustAppend(t, &Packet{
		Kind: KindData, Size: 1003,
		LG:    LGData{Present: true, Seq: seqnum.Seq{N: 7}},
		LGAck: LGAck{Present: true, Valid: true, LatestRx: seqnum.Seq{N: 6}},
	}, []byte("payload"))

	mutate := func(b []byte, off int, v byte) []byte {
		c := append([]byte(nil), b...)
		c[off] = v
		return c
	}
	notif := mustAppend(t, &Packet{
		Kind: KindLossNotif, Size: 64,
		Notif: LossNotif{Present: true, Count: 2, LatestRx: seqnum.Seq{N: 5}, Missing: [MaxNotifMissing]seqnum.Seq{{N: 6}, {N: 7}}},
	}, nil)
	pause := mustAppend(t, &Packet{Kind: KindPause, Size: 64, PauseClass: 1}, nil)

	cases := []struct {
		name string
		b    []byte
		want error
	}{
		{"empty", nil, ErrDatagramTruncated},
		{"short-preamble", valid[:5], ErrDatagramTruncated},
		{"bad-magic", mutate(valid, 0, 'X'), ErrDatagramMagic},
		{"bad-version", mutate(valid, 1, 9), ErrDatagramMagic},
		{"timer-kind", mutate(valid, 2, byte(KindTimer)), ErrDatagramKind},
		{"unknown-kind", mutate(valid, 2, 200), ErrDatagramKind},
		{"reserved-flags", mutate(valid, 3, 0x80), ErrDatagramFlags},
		{"cut-lg-header", valid[:7], ErrDatagramTruncated},
		{"cut-ack-header", valid[:10], ErrDatagramTruncated},
		{"lg-reserved-bit", mutate(valid, 8, valid[8]|1<<3), ErrDatagramHeader},
		{"ack-spare-bit", mutate(valid, 11, valid[11]|ackSpareBit), ErrDatagramHeader},
		{"ack-reserved-bit", mutate(valid, 11, valid[11]|1<<7), ErrDatagramHeader},
		{"cut-payload-len", valid[:13], ErrDatagramTruncated},
		{"cut-payload", valid[:len(valid)-3], ErrDatagramTruncated},
		{"trailing-garbage", append(append([]byte(nil), valid...), 0xee), ErrDatagramTrailing},
		{"payload-overdeclared", mutate(valid, 12, 0xff), ErrDatagramTruncated},
		{"ack-frame-without-ack", mustAppendRaw(KindLGAck), ErrDatagramFlags},
		{"dummy-frame-without-lg", mustAppendRaw(KindDummy), ErrDatagramFlags},
		{"notif-frame-without-block", mustAppendRaw(KindLossNotif), ErrDatagramFlags},
		{"dummy-bit-on-data", func() []byte {
			b := mustAppendRaw(KindData)
			b[3] |= dgFlagLG // claim an LG header...
			h := EncodeLGData(&LGData{Dummy: true})
			// ...whose dummy bit disagrees with KindData.
			return append(b[:6], append(h[:], b[6:]...)...)
		}(), ErrDatagramFlags},
		{"notif-count-overflow", mutate(notif, 9, MaxNotifMissing+1), ErrDatagramNotif},
		{"notif-count-huge", mutate(notif, 9, 0xff), ErrDatagramNotif},
		{"notif-era-beyond-count", mutate(notif, 10, 0x80), ErrDatagramNotif},
		{"notif-control-bits", mutate(notif, 8, notif[8]|ackValidBit), ErrDatagramNotif},
		{"notif-reserved-bit", mutate(notif, 8, notif[8]|1<<5), ErrDatagramNotif},
		{"pfc-class-range", mutate(pause, 6, NumPrios), ErrDatagramPFC},
		{"cut-pfc-block", pause[:8], ErrDatagramTruncated},
		{"payload-on-control", func() []byte {
			// Hand-build a pause frame declaring one payload byte.
			b := append([]byte(nil), pause[:len(pause)-2]...)
			return append(b, 1, 0, 0xaa)
		}(), ErrDatagramPayload},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var p Packet
			_, err := DecodeLGDatagram(tc.b, &p)
			if !errors.Is(err, tc.want) {
				t.Fatalf("error %v, want %v", err, tc.want)
			}
		})
	}
}

// mustAppendRaw builds the 8-byte minimal datagram (no optional blocks,
// empty payload) for a kind, bypassing AppendLGDatagram's consistency
// checks — the decoder must apply the same checks independently.
func mustAppendRaw(k Kind) []byte {
	return []byte{lgDatagramMagic, lgDatagramVersion, byte(k), 0, 64, 0, 0, 0}
}

// TestLGDatagramEncodeRejects exercises the encoder's own validation: the
// live transport must fail loudly on an unencodable packet rather than
// emit a frame its peer will drop.
func TestLGDatagramEncodeRejects(t *testing.T) {
	cases := []struct {
		name    string
		pkt     Packet
		payload []byte
		want    error
	}{
		{"timer-kind", Packet{Kind: KindTimer}, nil, ErrDatagramKind},
		{"size-overflow", Packet{Kind: KindData, Size: 1 << 16}, nil, ErrDatagramPayload},
		{"payload-overflow", Packet{Kind: KindData, Size: 64}, make([]byte, MaxDatagramPayload+1), ErrDatagramPayload},
		{"payload-on-ack", Packet{Kind: KindLGAck, LGAck: LGAck{Present: true}}, []byte{1}, ErrDatagramPayload},
		{"ack-without-header", Packet{Kind: KindLGAck}, nil, ErrDatagramFlags},
		{"notif-count-overflow", Packet{Kind: KindLossNotif, Notif: LossNotif{Present: true, Count: MaxNotifMissing + 1}}, nil, ErrDatagramNotif},
		{"pfc-class", Packet{Kind: KindPause, PauseClass: NumPrios}, nil, ErrDatagramPFC},
		{"pfc-quanta-overflow", Packet{Kind: KindPause, PauseQuanta: 5 * simtime.Second}, nil, ErrDatagramPFC},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := AppendLGDatagram(nil, &tc.pkt, tc.payload); !errors.Is(err, tc.want) {
				t.Fatalf("error %v, want %v", err, tc.want)
			}
		})
	}
}

// FuzzLGDatagram holds the datagram codec to its contract on arbitrary
// bytes: the decoder never panics, rejects with one of the declared
// sentinel errors, and on every buffer it accepts, Append∘Decode is the
// byte-identical identity (so nothing non-canonical sneaks through) and
// Decode is stable.
func FuzzLGDatagram(f *testing.F) {
	for _, tc := range sampleFrames() {
		pkt := tc.pkt
		b, err := AppendLGDatagram(nil, &pkt, tc.payload)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{lgDatagramMagic, lgDatagramVersion, 0, 0, 0})
	f.Add(append([]byte{lgDatagramMagic, lgDatagramVersion, 0, 7, 1, 2}, make([]byte, 32)...))
	sentinels := []error{
		ErrDatagramMagic, ErrDatagramTruncated, ErrDatagramTrailing,
		ErrDatagramKind, ErrDatagramFlags, ErrDatagramHeader,
		ErrDatagramNotif, ErrDatagramPFC, ErrDatagramPayload,
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var p Packet
		payload, err := DecodeLGDatagram(b, &p)
		if err != nil {
			known := false
			for _, s := range sentinels {
				if errors.Is(err, s) {
					known = true
					break
				}
			}
			if !known {
				t.Fatalf("undeclared decode error: %v", err)
			}
			return
		}
		again, err := AppendLGDatagram(nil, &p, payload)
		if err != nil {
			t.Fatalf("accepted buffer does not re-encode: %v", err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("Append(Decode(b)) diverged:\n got %x\nwant %x", again, b)
		}
		var p2 Packet
		payload2, err := DecodeLGDatagram(again, &p2)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !bytes.Equal(payload2, payload) || p2.Kind != p.Kind || p2.Size != p.Size ||
			p2.LG != p.LG || p2.LGAck != p.LGAck || p2.Notif != p.Notif ||
			p2.PauseClass != p.PauseClass || p2.PauseQuanta != p.PauseQuanta {
			t.Fatal("decode not stable across a round trip")
		}
	})
}

// The multiplexed framing is a pure prefix: splitting recovers the link id
// and the untouched inner datagram for every sample frame, and a buffer
// too short for the prefix is rejected.
func TestLinkDatagramRoundTrip(t *testing.T) {
	for _, tc := range sampleFrames() {
		inner := mustAppend(t, &tc.pkt, tc.payload)
		for _, link := range []uint16{0, 1, 7, 255, 0xbeef, 0xffff} {
			b, err := AppendLinkDatagram(nil, link, &tc.pkt, tc.payload)
			if err != nil {
				t.Fatalf("%s: AppendLinkDatagram: %v", tc.name, err)
			}
			gotLink, rest, err := SplitLinkDatagram(b)
			if err != nil {
				t.Fatalf("%s: SplitLinkDatagram: %v", tc.name, err)
			}
			if gotLink != link {
				t.Fatalf("%s: link id %d, want %d", tc.name, gotLink, link)
			}
			if !bytes.Equal(rest, inner) {
				t.Fatalf("%s: inner datagram differs after prefix split", tc.name)
			}
		}
	}
	for _, short := range [][]byte{nil, {}, {0x01}} {
		if _, _, err := SplitLinkDatagram(short); !errors.Is(err, ErrDatagramLinkID) {
			t.Fatalf("SplitLinkDatagram(%v) = %v, want ErrDatagramLinkID", short, err)
		}
	}
}

// OnRelease observes each packet exactly once, before the wipe, and the
// hook sees the fields the dataplane released the packet with.
func TestSimOnReleaseHook(t *testing.T) {
	s := NewSim(1)
	var seen []uint64
	s.OnRelease = func(p *Packet) {
		if p.Released() {
			t.Fatal("OnRelease ran after the wipe")
		}
		seen = append(seen, p.ID)
	}
	a := s.NewPacket(KindData, 100, "h")
	b := s.NewPacket(KindLGAck, 64, "")
	aID, bID := a.ID, b.ID
	s.Release(a)
	s.Release(b)
	if len(seen) != 2 || seen[0] != aID || seen[1] != bID {
		t.Fatalf("OnRelease saw %v, want [%d %d]", seen, aID, bID)
	}
	s.OnRelease = nil
	s.Release(s.NewPacket(KindData, 1, "h")) // no hook: must not panic
	if len(seen) != 2 {
		t.Fatalf("hook ran while unset: %v", seen)
	}
}
