package live

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"linkguardian/internal/simnet"
)

// BenchmarkLiveWire_PktsPerSec measures the raw live wire path — encode,
// mux, batched syscalls, demux, decode, ingress injection — without the
// protocol state machines, so the number isolates what the transport
// itself can move: one link (a standalone protected link) and eight links
// multiplexed over one socket pair, each moving up to 4×DefaultBatch
// datagrams per sendmmsg/recvmmsg call through the frame arena. It is a
// developer tool; TestMuxWireZeroAlloc gates the same rig's steady state
// at zero allocations.
//
// Both subbenchmarks drive the sender's Carrier hook directly from the
// bench goroutine and count deliveries in the receiver's OnIngress hook,
// after the full decode path. The sender mux runs its read and flush
// goroutines but never its loop: the bench goroutine stands in for that
// loop, so it is the one goroutine touching the sender's loop-owned state
// (packet pool, frame cache). The receiver mux runs normally, its loop the
// one goroutine touching the receiver's. A send window keeps the
// in-flight count far below every queue bound, so no frame is shed and
// delivery is deterministic; the drain tolerates a shortfall anyway
// (reporting it) rather than hanging the benchmark on a lost datagram.
func BenchmarkLiveWire_PktsPerSec(b *testing.B) {
	b.Run("batched-1", func(b *testing.B) { benchBatchedMuxWire(b, 1) })
	b.Run("batched-8", func(b *testing.B) { benchBatchedMuxWire(b, 8) })
}

// benchWindow bounds sender-ahead-of-receiver. It must stay well under
// sendQueueDepth (no mux shed) and under the kernel socket buffers at
// benchmark datagram sizes (no kernel drop).
const benchWindow = 1024

// benchUDPPair opens the two loopback sockets of a benchmark wire.
func benchUDPPair(tb testing.TB) (sconn, rconn *net.UDPConn, saddr, raddr *net.UDPAddr) {
	tb.Helper()
	lo := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0}
	sconn, err := net.ListenUDP("udp", lo)
	if err != nil {
		tb.Fatalf("listen: %v", err)
	}
	rconn, err = net.ListenUDP("udp", lo)
	if err != nil {
		tb.Fatalf("listen: %v", err)
	}
	return sconn, rconn, sconn.LocalAddr().(*net.UDPAddr), rconn.LocalAddr().(*net.UDPAddr)
}

// benchCountIngress counts every packet surviving decode at the receiver's
// wire interface, consuming it before node processing — the benchmark's
// measurement point.
func benchCountIngress(ep *Endpoint, rx *atomic.Uint64) {
	ep.wifc.OnIngress = func(p *simnet.Packet) bool {
		ep.Loop.Release(p)
		rx.Add(1)
		return true
	}
}

// benchDrain waits for rx to reach target, bailing out (and reporting how
// far it got) if delivery plateaus — a benchmark must not hang on a freak
// loopback drop.
func benchDrain(tb testing.TB, rx *atomic.Uint64, target uint64) uint64 {
	tb.Helper()
	last, lastRise := rx.Load(), time.Now()
	for {
		cur := rx.Load()
		if cur >= target {
			return cur
		}
		if cur != last {
			last, lastRise = cur, time.Now()
		} else if time.Since(lastRise) > time.Second {
			tb.Logf("drain plateaued at %d of %d delivered", cur, target)
			return cur
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// muxRig is the benchmark rig: links protected links sharing one batched
// mux socket pair over loopback, warmed to steady state.
type muxRig struct {
	smux, rmux *Mux
	senders    []*Endpoint
	rx         atomic.Uint64
	tx         uint64
}

func newMuxRig(tb testing.TB, links int) *muxRig {
	sconn, rconn, saddr, raddr := benchUDPPair(tb)
	smux, err := NewMux(sconn, 4*DefaultBatch)
	if err != nil {
		tb.Fatal(err)
	}
	rmux, err := NewMux(rconn, 4*DefaultBatch)
	if err != nil {
		tb.Fatal(err)
	}
	w := &muxRig{smux: smux, rmux: rmux, senders: make([]*Endpoint, links)}
	for i := 0; i < links; i++ {
		sep, err := newEndpoint(EndpointConfig{}, smux, uint16(i), raddr)
		if err != nil {
			tb.Fatal(err)
		}
		rep, err := newEndpoint(EndpointConfig{}, rmux, uint16(i), saddr)
		if err != nil {
			tb.Fatal(err)
		}
		benchCountIngress(rep, &w.rx)
		w.senders[i] = sep
	}
	smux.startIO() // the sender loop stays stopped; see above
	rmux.Start()
	tb.Cleanup(func() {
		rmux.loop.Stop()
		smux.Close()
		rmux.Close()
	})

	// The warmup grows the packet pools, the inbox buffers and the arena
	// to the in-flight high-water mark — after this, a steady-state
	// datagram allocates nothing anywhere in the pipeline.
	w.send(4096)
	w.drain(tb)
	return w
}

// send carries n datagrams round-robin across the links, holding the
// in-flight count under benchWindow.
func (w *muxRig) send(n int) {
	for i := 0; i < n; i++ {
		for w.tx-w.rx.Load() >= benchWindow {
			time.Sleep(20 * time.Microsecond)
		}
		sep := w.senders[int(w.tx)%len(w.senders)]
		pkt := sep.Loop.NewPacket(simnet.KindData, 0, "")
		sep.Wire.carry(pkt, sep.Wire.ifc)
		w.tx++
	}
}

// drain waits until every datagram sent so far is delivered and returns
// the delivered count.
func (w *muxRig) drain(tb testing.TB) uint64 {
	tb.Helper()
	return benchDrain(tb, &w.rx, w.tx)
}

func benchBatchedMuxWire(b *testing.B, links int) {
	w := newMuxRig(b, links)
	warm := w.rx.Load()
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	w.send(b.N)
	got := w.drain(b) - warm
	elapsed := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(got)/elapsed.Seconds(), "pkts/sec")
	ss, rs := w.smux.Stats(), w.rmux.Stats()
	b.Logf("batched=%v tx %d datagrams / %d sendmmsg (%.1f per call), rx %d / %d recvmmsg (%.1f per call)",
		w.smux.Batched(), ss.TxDatagrams, ss.TxBatches, float64(ss.TxDatagrams)/float64(max(ss.TxBatches, 1)),
		rs.RxDatagrams, rs.RxBatches, float64(rs.RxDatagrams)/float64(max(rs.RxBatches, 1)))
}

// muxAllocRun is the datagram count of one measured run of
// TestMuxWireZeroAlloc: a per-datagram allocation anywhere in the pipeline
// reads as at least this many allocs per run.
const muxAllocRun = 256

// TestMuxWireZeroAlloc is the allocation gate of the live wire path, one
// link and eight on one mux socket pair: after warmup, carrying a run of
// datagrams end to end — encode, arena, batched sendmmsg/recvmmsg, demux,
// decode, ingress — must not allocate. The count covers every goroutine
// (mux readers and writers, the receiver loop), not just the sending one.
// A fraction of an alloc per run is tolerated for runtime noise.
func TestMuxWireZeroAlloc(t *testing.T) {
	for _, links := range []int{1, 8} {
		t.Run(fmt.Sprintf("links-%d", links), func(t *testing.T) {
			w := newMuxRig(t, links)
			avg := testing.AllocsPerRun(20, func() {
				w.send(muxAllocRun)
				w.drain(t)
			})
			if avg >= 1 {
				t.Fatalf("live wire path allocates: %.2f allocs per run of %d datagrams", avg, muxAllocRun)
			}
		})
	}
}
