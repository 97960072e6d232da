package simnet

import (
	"math/rand"
	"testing"
	"testing/quick"

	"linkguardian/internal/simtime"
)

// Direct Queue-level tests covering the ring-compaction and accounting
// paths that the integration tests only exercise incidentally.

func TestQueueFIFOAndBytes(t *testing.T) {
	var q Queue
	s := NewSim(1)
	for i := 0; i < 100; i++ {
		p := s.NewPacket(KindData, 100+i, "x")
		p.FlowID = i
		if !q.push(p) {
			t.Fatal("unbounded queue rejected a push")
		}
	}
	wantBytes := 0
	for i := 0; i < 100; i++ {
		wantBytes += 100 + i
	}
	if q.Bytes() != wantBytes || q.Len() != 100 {
		t.Fatalf("bytes=%d len=%d", q.Bytes(), q.Len())
	}
	for i := 0; i < 100; i++ {
		p := q.pop()
		if p.FlowID != i {
			t.Fatalf("FIFO broken at %d: got %d", i, p.FlowID)
		}
	}
	if q.Bytes() != 0 || q.Len() != 0 {
		t.Fatalf("drained queue: bytes=%d len=%d", q.Bytes(), q.Len())
	}
}

// Property: any interleaving of pushes and pops preserves FIFO order and
// exact byte accounting, across the head-compaction threshold.
func TestQueueInterleavingProperty(t *testing.T) {
	f := func(ops []bool, seed int64) bool {
		var q Queue
		s := NewSim(seed)
		rng := rand.New(rand.NewSource(seed))
		next, expect := 0, 0
		bytes := 0
		for _, push := range ops {
			if push || q.Len() == 0 {
				size := 64 + rng.Intn(1400)
				p := s.NewPacket(KindData, size, "x")
				p.FlowID = next
				next++
				q.push(p)
				bytes += size
			} else {
				p := q.pop()
				if p.FlowID != expect {
					return false
				}
				expect++
				bytes -= p.Size
			}
			if q.Bytes() != bytes {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQueueCompaction(t *testing.T) {
	// Push enough and pop past the head>64 compaction threshold while the
	// queue stays non-empty, then verify continuity.
	var q Queue
	s := NewSim(1)
	for i := 0; i < 200; i++ {
		p := s.NewPacket(KindData, 64, "x")
		p.FlowID = i
		q.push(p)
	}
	for i := 0; i < 150; i++ {
		if got := q.pop().FlowID; got != i {
			t.Fatalf("pop %d got %d", i, got)
		}
	}
	// Interleave more pushes after compaction.
	for i := 200; i < 260; i++ {
		p := s.NewPacket(KindData, 64, "x")
		p.FlowID = i
		q.push(p)
	}
	for i := 150; i < 260; i++ {
		if got := q.pop().FlowID; got != i {
			t.Fatalf("post-compaction pop %d got %d", i, got)
		}
	}
}

func TestPauseUnknownClassIgnored(t *testing.T) {
	s := NewSim(1)
	h1 := NewHost(s, "h1")
	h2 := NewHost(s, "h2")
	h1.StackDelay, h2.StackDelay = 0, 0
	l := Connect(s, h1, h2, simtime.Rate25G, 0)
	// Pausing PrioHigh must not block PrioNormal.
	l.A().Port.Pause(PrioHigh, true)
	n := 0
	h2.OnReceive = func(p *Packet) { n++ }
	l.A().Send(s.NewPacket(KindData, 500, "h2"))
	s.RunFor(simtime.Millisecond)
	if n != 1 {
		t.Fatalf("normal traffic blocked by unrelated pause class")
	}
}
