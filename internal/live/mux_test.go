package live

import (
	"errors"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"linkguardian/internal/parallel"
	"linkguardian/internal/simnet"
)

func newTestMux(t *testing.T, batch int) *Mux {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMux(conn, batch)
	if err != nil {
		_ = conn.Close()
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// testWireIfc builds a minimal topology on the mux's loop — a switch and
// its wire-facing link, no protocol instance — enough to exercise the
// transport alone.
func testWireIfc(m *Mux, name string) *simnet.Ifc {
	sw := simnet.NewSwitch(m.loop.Sim, name)
	return simnet.Connect(m.loop.Sim, sw, &portal{loop: m.loop, name: "wire"}, 0, 0).A()
}

// attachTestWire attaches a minimal topology to link id link of the mux.
func attachTestWire(t *testing.T, m *Mux, link uint16) *MuxWire {
	t.Helper()
	w, err := m.Attach(link, testWireIfc(m, "sw"), m.conn.LocalAddr().(*net.UDPAddr), "app")
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Datagrams carrying an unknown link id or no complete link-id prefix
// must be counted and shed without disturbing the attached links.
func TestMuxUnknownLinkAndShortDatagram(t *testing.T) {
	m := newTestMux(t, 4)
	w := attachTestWire(t, m, 3)
	m.Start()

	src, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst := m.conn.LocalAddr().(*net.UDPAddr)

	// Unknown link id 9 (no wire there), valid-length prefix.
	if _, err := src.WriteToUDP([]byte{9, 0, 1, 2, 3}, dst); err != nil {
		t.Fatal(err)
	}
	// Truncated tail: shorter than the link-id prefix itself.
	if _, err := src.WriteToUDP([]byte{7}, dst); err != nil {
		t.Fatal(err)
	}
	// Known link id but garbage inner datagram: reaches the wire, is
	// rejected by the codec on the loop goroutine.
	if _, err := src.WriteToUDP([]byte{3, 0, 0xff, 0xfe}, dst); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "unknown-link count", func() bool { return m.Stats().UnknownLink == 1 })
	waitFor(t, "short-datagram count", func() bool { return m.Stats().ShortDatagrams == 1 })
	waitFor(t, "decode drop", func() bool {
		var drops uint64
		if !m.loop.Call(func() { drops = w.decodeDrops }) {
			return false
		}
		return drops == 1
	})
	if got := m.Stats().RxDatagrams; got != 3 {
		t.Fatalf("RxDatagrams = %d, want 3", got)
	}
}

func TestMuxAttachErrors(t *testing.T) {
	m := newTestMux(t, 4)
	attachTestWire(t, m, 0)
	ifc := testWireIfc(m, "sw2")
	peer := m.conn.LocalAddr().(*net.UDPAddr)
	if _, err := m.Attach(0, ifc, peer, "app"); err == nil {
		t.Fatal("duplicate link id attach succeeded")
	}
	m.Start()
	if _, err := m.Attach(1, ifc, peer, "app"); err == nil {
		t.Fatal("attach after Start succeeded")
	}
}

// testFrames builds n owned frames carrying distinguishable payloads.
func testFrames(m *Mux, w *MuxWire, n int) []*frame {
	frames := make([]*frame, n)
	for i := range frames {
		f := m.arena.get()
		f.data[0] = byte(i)
		f.n = 4
		f.wire = w
		frames[i] = f
	}
	return frames
}

// A sendmmsg completion of k < n messages is normal backpressure: the
// batch must continue from where the kernel stopped, every frame exactly
// once, with the partial completion counted.
func TestMuxSendBatchPartialCompletion(t *testing.T) {
	m := newTestMux(t, 8)
	w := &MuxWire{mux: m}
	var calls [][]int
	m.writeBatch = func(frames []*frame) (int, error) {
		sizes := make([]int, len(frames))
		for i, f := range frames {
			sizes[i] = int(f.data[0])
		}
		calls = append(calls, sizes)
		if len(calls) == 1 {
			return 3, nil // kernel accepted 3 of 8
		}
		return len(frames), nil
	}
	batch := testFrames(m, w, 8)
	m.sendBatch(batch)
	if got := w.txDatagrams.Load(); got != 8 {
		t.Fatalf("txDatagrams = %d, want 8", got)
	}
	if got := m.Stats().PartialSends; got != 1 {
		t.Fatalf("PartialSends = %d, want 1", got)
	}
	if len(calls) != 2 {
		t.Fatalf("writeBatch called %d times, want 2", len(calls))
	}
	if calls[1][0] != 3 || len(calls[1]) != 5 {
		t.Fatalf("second call resumed at %v, want frames 3..7", calls[1])
	}
}

// A burst of ENOBUFS that clears within the retry budget costs retries but
// loses nothing; a burst that outlasts it surrenders the rest of the batch
// to the protocol's loss recovery as counted send drops, never as hard tx
// errors; a hard error is not retried at all.
func TestMuxSendBatchTransientRetry(t *testing.T) {
	m := newTestMux(t, 8)
	w := &MuxWire{mux: m}
	calls := 0
	m.writeBatch = func(frames []*frame) (int, error) {
		calls++
		if calls < maxSendAttempts {
			return 0, syscall.ENOBUFS
		}
		return len(frames), nil
	}
	m.sendBatch(testFrames(m, w, 4))
	if got := w.txDatagrams.Load(); got != 4 {
		t.Fatalf("txDatagrams = %d, want 4", got)
	}
	retries := uint64(4 * (maxSendAttempts - 1)) // per queued frame, per failed attempt
	if got := w.sendRetries.Load(); calls != maxSendAttempts || got != retries {
		t.Fatalf("recovered send: calls=%d sendRetries=%d, want %d/%d", calls, got, maxSendAttempts, retries)
	}
	if d, e := w.sendDrops.Load(), w.txErrors.Load(); d != 0 || e != 0 {
		t.Fatalf("recovered send: sendDrops=%d txErrors=%d, want 0/0", d, e)
	}

	// Persistent ENOBUFS: retries exhaust, frames surrender as drops.
	calls = 0
	m.writeBatch = func(frames []*frame) (int, error) { calls++; return 0, syscall.ENOBUFS }
	m.sendBatch(testFrames(m, w, 2))
	if got := w.sendDrops.Load(); calls != maxSendAttempts || got != 2 {
		t.Fatalf("exhausted send: calls=%d sendDrops=%d, want %d/2", calls, got, maxSendAttempts)
	}
	retries += 2 * (maxSendAttempts - 1)
	if got := w.sendRetries.Load(); got != retries {
		t.Fatalf("exhausted send: sendRetries=%d, want %d", got, retries)
	}
	if got := w.txErrors.Load(); got != 0 {
		t.Fatalf("transient exhaustion misfiled as %d hard tx errors", got)
	}

	// Hard error: no retry, counted as tx errors.
	calls = 0
	m.writeBatch = func(frames []*frame) (int, error) { calls++; return 0, errors.New("efault") }
	m.sendBatch(testFrames(m, w, 3))
	if got := w.txErrors.Load(); calls != 1 || got != 3 {
		t.Fatalf("hard error: calls=%d txErrors=%d, want 1/3", calls, got)
	}
	if r, d := w.sendRetries.Load(), w.sendDrops.Load(); r != retries || d != 2 {
		t.Fatalf("hard error retried: sendRetries=%d sendDrops=%d, want %d/2", r, d, retries)
	}
}

// The full multi-link stack under loss: N protected links on two shared
// mux sockets, per-link seeded corruption at each receiver's ingress MAC,
// the flow-scale load generator — and zero app-visible loss, duplication
// or reordering on every link.
// Run under -race by the race CI job, this is also the multi-link
// concurrency test for the mux's three-goroutine handoffs.
func TestMultiLinkLoopback(t *testing.T) {
	links, flows, count, pps := 4, 32, uint64(4000), 20000.0
	if testing.Short() || raceEnabled {
		// Race instrumentation costs ~10× on these tight loops; a 1-CPU
		// runner can't sustain the full rate on the two loops plus the mux
		// goroutines, so shrink the load, not the link count.
		links, flows, count, pps = 3, 12, 1200, 6000
	}
	const seed, loss = 7, 1e-3
	var receivers []*Endpoint
	rep, err := RunMulti(MultiConfig{
		Seed:     seed,
		Links:    links,
		Flows:    flows,
		Count:    count,
		Size:     512,
		PPS:      pps,
		LossRate: loss,
		OnStart:  func(_, r []*Endpoint) { receivers = r },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("%v\n%s", err, rep)
	}
	if rep.Delivered != count {
		t.Fatalf("delivered %d, want %d", rep.Delivered, count)
	}
	var dropped uint64
	for i := range rep.Links {
		lr := &rep.Links[i]
		if lr.Flows == 0 {
			t.Fatalf("link %d saw no flows", i)
		}
		if lr.ReceiverWire.RxDatagrams == 0 {
			t.Fatalf("link %d: receiver wire decoded no datagrams", i)
		}
		// The drop count is the receiving MAC's own corruption counter,
		// and it replays exactly from the link's seeded stream: one draw
		// per frame the receiver's wire took in, none from the loop's Sim.
		in := &receivers[i].wifc.In
		if lr.ProxyDropped != in.RxBad {
			t.Fatalf("link %d: ProxyDropped %d, receiver wire RxBad %d", i, lr.ProxyDropped, in.RxBad)
		}
		m, rng := NewLossModel(loss, 0), rand.New(rand.NewSource(parallel.SeedFor(seed, i)))
		want := uint64(0)
		for n := uint64(0); n < in.RxAll; n++ {
			if m.Drops(rng) {
				want++
			}
		}
		if in.RxBad != want {
			t.Fatalf("link %d: %d drops over %d frames, its seeded stream draws %d", i, in.RxBad, in.RxAll, want)
		}
		dropped += lr.ProxyDropped
	}
	if dropped == 0 || rep.Dropped != dropped || rep.Masked != dropped {
		t.Fatalf("report: dropped %d, masked %d; links dropped %d", rep.Dropped, rep.Masked, dropped)
	}
	s, r := rep.SenderMux, rep.ReceiverMux
	if s.RxDatagrams == 0 || s.TxDatagrams == 0 || r.RxDatagrams == 0 || r.TxDatagrams == 0 {
		t.Fatalf("mux datagram counters empty: sender=%+v receiver=%+v", s, r)
	}
	if s.UnknownLink != 0 || r.UnknownLink != 0 || s.ShortDatagrams != 0 || r.ShortDatagrams != 0 {
		t.Fatalf("demux errors on a clean run: sender=%+v receiver=%+v", s, r)
	}
	if rep.Batched {
		if s.RxBatches == 0 || r.RxBatches == 0 {
			t.Fatalf("batched platform but no rx batches: sender=%+v receiver=%+v", s, r)
		}
	}
	if rep.P999 <= 0 {
		t.Fatalf("latency quantiles not measured: %s", rep)
	}
}

// settledGoroutines returns the goroutine count once it has held still
// for a few samples, so goroutines of an earlier test that are still
// exiting do not skew a baseline.
func settledGoroutines() int {
	n, still := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(time.Second); still < 5 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, 0
		} else {
			still++
		}
	}
	return n
}

// runGoroutines runs a small, lossy links-link RunMulti and returns how
// many goroutines it added while running. It fails the test unless the
// count falls back to the pre-run baseline within a second of RunMulti
// returning: no loop or mux goroutine may outlive the run.
func runGoroutines(t *testing.T, links int) int {
	t.Helper()
	base, running := settledGoroutines(), 0
	rep, err := RunMulti(MultiConfig{
		Seed: 5, Links: links, Count: uint64(50 * links), PPS: 5000, Size: 128, LossRate: 1e-3,
		OnStart: func(_, _ []*Endpoint) { running = runtime.NumGoroutine() },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d-link run left %d goroutines behind", links, runtime.NumGoroutine()-base)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return running - base
}

// A multi-link run has one event loop per mux socket, not one per link,
// and corrupts the forward path inside the receiver's topology rather than
// in a relay: an extra link costs no goroutine, and nothing outlives the
// run.
func TestRunMultiGoroutines(t *testing.T) {
	one := runGoroutines(t, 1)
	four := runGoroutines(t, 4)
	if four != one {
		t.Fatalf("1 link ran %d goroutines, 4 links %d: want the same count whatever N", one, four)
	}
}

// proxyDropPattern pushes count numbered datagrams through a fresh proxy
// seeded for one link shard and returns which indices survived — the
// link's fault pattern. Jitter and Reorder are off and the proxy consumes
// one RNG decision per arriving datagram, so the pattern is a pure function
// of the seed. The datagrams go in lock-step: each is sent only after the
// proxy has ruled on the previous one and its survivor has been read, so at
// most one datagram is ever queued in a kernel buffer and an overflow there
// cannot masquerade as a proxy drop.
func proxyDropPattern(t *testing.T, master int64, link, count int) string {
	t.Helper()
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	imp := ProxyImpair{Model: simnet.IIDLoss{P: 0.05}}
	p, err := NewProxy("127.0.0.1:0", sink.LocalAddr().String(), imp, parallel.SeedFor(master, link))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	src, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	pat := make([]byte, count)
	buf := make([]byte, 16)
	for i := 0; i < count; i++ {
		forwarded := p.Forwarded()
		var b [2]byte
		b[0], b[1] = byte(i), byte(i>>8)
		if _, err := src.WriteToUDP(b[:], p.Addr()); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(2 * time.Second)
		for p.Forwarded()+p.Dropped() != uint64(i+1) {
			if time.Now().After(deadline) {
				t.Fatalf("datagram %d: proxy gave no verdict (forwarded %d, dropped %d)", i, p.Forwarded(), p.Dropped())
			}
			time.Sleep(20 * time.Microsecond)
		}
		pat[i] = '0'
		if p.Forwarded() == forwarded {
			continue
		}
		_ = sink.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, _, err := sink.ReadFromUDP(buf)
		if err != nil {
			t.Fatalf("datagram %d: forwarded but not received: %v", i, err)
		}
		if n != 2 || int(buf[0])|int(buf[1])<<8 != i {
			t.Fatalf("datagram %d: received % x instead", i, buf[:n])
		}
		pat[i] = '1'
	}
	return string(pat)
}

// Per-link fault seeding: the same (seed, link) pair must reproduce the
// same drop pattern, and different links of one run must draw
// decorrelated patterns — the reproducibility contract behind
// MultiConfig.Seed and parallel.SeedFor.
func TestProxyPerLinkSeedingReproducible(t *testing.T) {
	const n = 800
	link0 := proxyDropPattern(t, 21, 0, n)
	if again := proxyDropPattern(t, 21, 0, n); again != link0 {
		t.Fatalf("same (seed, link) produced different fault patterns:\n%s\n%s", link0, again)
	}
	link1 := proxyDropPattern(t, 21, 1, n)
	if link1 == link0 {
		t.Fatal("links 0 and 1 drew identical fault patterns: per-link seeds not applied")
	}
	if !strings.Contains(link0, "0") || !strings.Contains(link1, "0") {
		t.Fatalf("no drops at 5%% over %d datagrams: pattern suspect", n)
	}
}
