package live

import (
	"sync"

	"linkguardian/internal/simnet"
)

// frame is one link frame in flight through the mux: a bundle record
// (length prefix, link id, LG datagram), sized so no datagram the codec
// can produce is ever truncated. Frames recycle through an arena exactly
// like packets recycle through the Sim free list (DESIGN.md §9): every
// frame has one owner at a time, and the owner either hands it on or puts
// it back.
//
// Ownership chain, outbound: the loop goroutine draws a frame in carry,
// encodes into it and enqueues it on the mux send queue; the flush
// goroutine owns it from dequeue through the sendmmsg completion, which
// gathers it into its peer's bundle, and puts it back. Inbound: the read
// goroutine copies each record of a received bundle into a frame drawn
// for the batch and stamps it with its link's wire; the frames are handed
// to the mux's inbox, the loop goroutine decodes each one, and either puts
// it back immediately (no payload) or parks it until the decoded packet's
// release proves the payload dead (Mux.reclaim via Sim.OnRelease).
type frame struct {
	data [recordHdrBytes + simnet.MaxLinkDatagramBytes]byte
	n    int      // live prefix of data
	wire *MuxWire // owning link: tx accounting and destination, rx injection

	// payload is the decoded packet's view of data; the packet's Payload
	// points here, so handing it over boxes no slice (loop goroutine only).
	payload []byte
}

// arena is the frame free pool shared by one mux's goroutines: a stack of
// pointers, so get/put never touch the frames themselves (a linked free
// list would cost one cold cache line per recycled frame). A frame's n
// and wire fields are stamped by each new owner, never cleaned on return.
// Fill allocates when the pool is dry, so the population grows to the
// steady-state in-flight high-water mark and then stays put — after
// warmup, the wire path performs no allocation.
type arena struct {
	mu    sync.Mutex
	free  []*frame
	alloc uint64 // frames ever created (population high-water mark)
}

// fill replaces every slot of dst with a fresh frame under one lock: the
// read loop's batch refill, paying the mutex once per batch instead of
// once per frame.
func (a *arena) fill(dst []*frame) {
	a.mu.Lock()
	n := len(a.free)
	for i := range dst {
		if n == 0 {
			a.alloc++
			dst[i] = &frame{}
			continue
		}
		n--
		dst[i] = a.free[n]
		a.free[n] = nil
	}
	a.free = a.free[:n]
	a.mu.Unlock()
}

// putAll returns a batch of frames under one lock (flush-side counterpart
// of fill).
func (a *arena) putAll(fs []*frame) {
	a.mu.Lock()
	a.free = append(a.free, fs...)
	a.mu.Unlock()
}

// frames returns the arena's population high-water mark.
func (a *arena) frames() uint64 {
	a.mu.Lock()
	n := a.alloc
	a.mu.Unlock()
	return n
}

// prealloc seeds the free pool so the first batches draw warm frames.
func (a *arena) prealloc(n int) {
	a.mu.Lock()
	for i := 0; i < n; i++ {
		a.alloc++
		a.free = append(a.free, &frame{})
	}
	a.mu.Unlock()
}
