package live

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"runtime"
	"syscall"
	"testing"
	"time"

	"linkguardian/internal/parallel"
	"linkguardian/internal/simnet"
)

func newTestMux(t testing.TB, batch int) *Mux {
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
func attachTestWire(t testing.TB, m *Mux, link uint16) *MuxWire {
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

// appendRecord appends one bundle record carrying rec to b.
func appendRecord(b []byte, rec ...byte) []byte {
	return append(append(b, byte(len(rec)), byte(len(rec)>>8)), rec...)
}

// Bundle records carrying an unknown link id, a garbage inner datagram or
// a length past the end of the bundle must be counted and shed without
// disturbing the attached links.
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

	// Unknown link id 9 (no wire there); then known link id 3 with a
	// garbage inner datagram, which reaches the wire and is rejected by the
	// codec on the loop goroutine; then a length of 50 with 3 bytes left.
	b := appendRecord(nil, 9, 0, 1, 2, 3)
	b = appendRecord(b, 3, 0, 0xff, 0xfe)
	b = append(b, 50, 0, 3, 0, 1)
	if _, err := src.WriteToUDP(b, dst); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "unknown-link count", func() bool { return m.Stats().UnknownLink == 1 })
	waitFor(t, "short-record count", func() bool { return m.Stats().ShortDatagrams == 1 })
	waitFor(t, "decode drop", func() bool {
		var drops uint64
		if !m.loop.Call(func() { drops = w.decodeDrops }) {
			return false
		}
		return drops == 1
	})
	if s := m.Stats(); s.RxBundles != 1 || s.RxDatagrams != 3 {
		t.Fatalf("RxBundles = %d, RxDatagrams = %d, want 1 and 3", s.RxBundles, s.RxDatagrams)
	}
}

// FuzzMuxBundle feeds arbitrary bytes to the read path as one received
// bundle. The records must cover the input exactly; every record with an
// attached link id must reach that link's wire, byte for byte and in
// order, every other one must be counted as unknown or malformed; and
// decoding every delivered frame must never panic.
func FuzzMuxBundle(f *testing.F) {
	m := newTestMux(f, 4)
	for _, link := range []uint16{0, 2} {
		w := attachTestWire(f, m, link)
		w.ifc.OnIngress = func(p *simnet.Packet) bool {
			m.loop.Release(p) // releases the frame a payload aliases
			return true
		}
	}
	m.arena.fill(m.rx.stash) // the read goroutine's start, without its socket
	data, _ := simnet.AppendLinkDatagram(nil, 0, m.loop.NewPacket(simnet.KindData, 64, ""), []byte("payload"))
	dummy, _ := simnet.AppendLinkDatagram(nil, 2, m.loop.NewPacket(simnet.KindDummy, 64, ""), nil)
	f.Add(appendRecord(appendRecord(nil, data...), dummy...))
	f.Add(appendRecord(appendRecord(appendRecord(nil, 9, 0, 1), 1, 0, 7), 2, 0, 0xff))
	f.Add([]byte{40, 0, 0, 0, 1})
	f.Add([]byte{1, 0, 7, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		var want [][]byte
		var units, bad, unknown uint64
		for rest := b; len(rest) > 0; units++ {
			rec, next, ok := nextRecord(rest)
			unit := rest[:len(rest)-len(next)]
			n := len(unit) - recordHdrBytes
			if ok && (n < 0 || int(unit[0])|int(unit[1])<<8 != n || !bytes.Equal(unit[recordHdrBytes:], rec)) {
				t.Fatalf("record % x does not match its length prefix", unit)
			}
			if !ok && len(next) != 0 {
				t.Fatalf("malformed record left % x unconsumed", next)
			}
			rest = next
			switch {
			case !ok || len(rec) < simnet.LinkIDBytes || len(rec) > simnet.MaxLinkDatagramBytes:
				bad++
			case int(rec[0])|int(rec[1])<<8 >= len(m.wires) || m.wires[int(rec[0])|int(rec[1])<<8] == nil:
				unknown++
			default:
				want = append(want, unit)
			}
		}
		before := m.Stats()
		m.unbundle(b)
		m.flushRx()
		after := m.Stats()
		if got := after.RxDatagrams - before.RxDatagrams; got != units {
			t.Fatalf("counted %d records, the bundle holds %d", got, units)
		}
		if s, u := after.ShortDatagrams-before.ShortDatagrams, after.UnknownLink-before.UnknownLink; s != bad || u != unknown {
			t.Fatalf("malformed/unknown = %d/%d, want %d/%d", s, u, bad, unknown)
		}
		q := m.inbox.q
		if len(q) != len(want) {
			t.Fatalf("%d frames dispatched, want %d", len(q), len(want))
		}
		for i, fr := range q {
			link := uint16(want[i][2]) | uint16(want[i][3])<<8
			if fr.wire != m.wires[link] || !bytes.Equal(fr.data[:fr.n], want[i]) {
				t.Fatalf("frame %d: link %d, % x; want link %d, % x", i, fr.wire.linkID, fr.data[:fr.n], link, want[i])
			}
		}
		decoded := func() (n uint64) {
			for _, w := range m.wires {
				if w != nil {
					n += w.rxDatagrams + w.decodeDrops
				}
			}
			return n
		}
		d0 := decoded()
		m.pump() // the loop is not running: decode here, on its behalf
		for len(m.loop.do) > 0 {
			<-m.loop.do // the wakeup dispatch queued for the loop
		}
		if got := decoded() - d0; got != uint64(len(want)) {
			t.Fatalf("%d frames decoded or rejected, want %d", got, len(want))
		}
	})
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
	m.arena.fill(frames)
	for i, f := range frames {
		f.data[0] = byte(i)
		f.n = 4
		f.wire = w
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

// seededDrops replays an i.i.d. ingress loss stream: how many of n frames
// CorruptIngress(NewLossModel(rate, 0), seed) drops.
func seededDrops(rate float64, seed int64, n uint64) uint64 {
	m, rng := NewLossModel(rate, 0), rand.New(rand.NewSource(seed))
	drops := uint64(0)
	for ; n > 0; n-- {
		if m.Drops(rng) {
			drops++
		}
	}
	return drops
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
		if want := seededDrops(loss, parallel.SeedFor(seed, i), in.RxAll); in.RxBad != want {
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
	// Each mux has one peer, so a flush is one bundle: one datagram per
	// sendmmsg at most, carrying the batch's frames.
	for side, ms := range map[string]MuxStats{"sender": s, "receiver": r} {
		var frames uint64
		for i := range rep.Links {
			if side == "sender" {
				frames += rep.Links[i].SenderWire.TxDatagrams
			} else {
				frames += rep.Links[i].ReceiverWire.TxDatagrams
			}
		}
		switch {
		case ms.TxDatagrams != frames:
			t.Errorf("%s mux wrote %d frames, its wires %d", side, ms.TxDatagrams, frames)
		case rep.Batched && ms.TxBundles > ms.TxBatches:
			t.Errorf("%s mux: %d bundles in %d sendmmsg calls to one peer", side, ms.TxBundles, ms.TxBatches)
		case ms.TxDatagrams <= ms.TxBundles:
			t.Errorf("%s mux: %d frames in %d bundles, want several per bundle", side, ms.TxDatagrams, ms.TxBundles)
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
