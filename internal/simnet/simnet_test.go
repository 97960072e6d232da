package simnet

import (
	"math"
	"testing"

	"linkguardian/internal/seqnum"
	"linkguardian/internal/simtime"
)

// lineTopo builds h1 - sw1 - sw2 - h2 with the given link rate and delay.
func lineTopo(s *Sim, rate simtime.Rate, delay simtime.Duration) (h1, h2 *Host, sw1, sw2 *Switch, mid *Link) {
	h1 = NewHost(s, "h1")
	h2 = NewHost(s, "h2")
	sw1 = NewSwitch(s, "sw1")
	sw2 = NewSwitch(s, "sw2")
	l1 := Connect(s, h1, sw1, rate, delay)
	mid = Connect(s, sw1, sw2, rate, delay)
	l2 := Connect(s, sw2, h2, rate, delay)
	sw1.AddRoute("h2", mid.A())
	sw1.AddRoute("h1", l1.B())
	sw2.AddRoute("h2", l2.A())
	sw2.AddRoute("h1", mid.B())
	return
}

func TestEndToEndDelivery(t *testing.T) {
	s := NewSim(1)
	h1, h2, _, _, _ := lineTopo(s, simtime.Rate100G, 100*simtime.Nanosecond)
	var got *Packet
	var at simtime.Time
	h2.OnReceive = func(p *Packet) { got, at = p, s.Now() }
	pkt := s.NewPacket(KindData, 1500, "h2")
	h1.Send(pkt)
	s.RunFor(simtime.Millisecond)
	if got == nil {
		t.Fatal("packet not delivered")
	}
	if got.ID != pkt.ID {
		t.Fatal("wrong packet delivered")
	}
	// Latency: 2 stack delays (4µs each) + 3 serializations (~122ns each)
	// + 3 props (100ns) + 2 pipeline latencies (1µs each) ≈ 10.7µs.
	if at < simtime.Time(10*simtime.Microsecond) || at > simtime.Time(12*simtime.Microsecond) {
		t.Fatalf("delivery at %v, want ~10.7µs", at)
	}
}

func TestStrictPriority(t *testing.T) {
	s := NewSim(1)
	h1 := NewHost(s, "h1")
	h2 := NewHost(s, "h2")
	l := Connect(s, h1, h2, simtime.Rate10G, 0)
	var order []int
	h2.OnReceive = func(p *Packet) { order = append(order, p.Prio) }
	// Fill the port while it is busy with a first packet, then check that
	// high priority jumps the normal queue.
	first := s.NewPacket(KindData, 1500, "h2")
	l.A().Send(first)
	for i := 0; i < 3; i++ {
		p := s.NewPacket(KindData, 1500, "h2")
		p.Prio = PrioNormal
		l.A().Send(p)
	}
	hi := s.NewPacket(KindData, 500, "h2")
	hi.Prio = PrioHigh
	l.A().Send(hi)
	lo := s.NewPacket(KindData, 500, "h2")
	lo.Prio = PrioLow
	l.A().Send(lo)
	s.RunFor(simtime.Millisecond)
	// first is in flight; then PrioHigh, then the normals, then low.
	want := []int{PrioNormal, PrioHigh, PrioNormal, PrioNormal, PrioNormal, PrioLow}
	if len(order) != len(want) {
		t.Fatalf("delivered %d packets, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("priority order = %v, want %v", order, want)
		}
	}
}

func TestPFCPauseResume(t *testing.T) {
	s := NewSim(1)
	h1 := NewHost(s, "h1")
	h2 := NewHost(s, "h2")
	h1.StackDelay, h2.StackDelay = 0, 0
	l := Connect(s, h1, h2, simtime.Rate10G, 0)
	var n int
	h2.OnReceive = func(p *Packet) { n++ }
	// Pause the normal class on h1's egress before sending.
	l.A().Port.Pause(PrioNormal, true)
	for i := 0; i < 5; i++ {
		l.A().Send(s.NewPacket(KindData, 1500, "h2"))
	}
	s.RunFor(100 * simtime.Microsecond)
	if n != 0 {
		t.Fatalf("paused queue transmitted %d packets", n)
	}
	if got := l.A().Port.Q(PrioNormal).Bytes(); got != 5*1500 {
		t.Fatalf("paused queue holds %d bytes, want 7500", got)
	}
	l.A().Port.Pause(PrioNormal, false)
	s.RunFor(100 * simtime.Microsecond)
	if n != 5 {
		t.Fatalf("after resume delivered %d, want 5", n)
	}
}

func TestPauseFrameAbsorbedByMAC(t *testing.T) {
	s := NewSim(1)
	h1 := NewHost(s, "h1")
	h2 := NewHost(s, "h2")
	h1.StackDelay, h2.StackDelay = 0, 0
	l := Connect(s, h1, h2, simtime.Rate10G, 0)
	received := 0
	h1.OnReceive = func(p *Packet) { received++ }
	// h2 sends a PFC pause for the normal class; it must pause h1's egress
	// normal queue and never reach h1's stack.
	pause := s.NewPacket(KindPause, 64, "h1")
	pause.PauseClass = PrioNormal
	pause.Prio = PrioHigh
	l.B().Send(pause)
	s.RunFor(10 * simtime.Microsecond)
	if received != 0 {
		t.Fatal("PFC frame leaked past the MAC")
	}
	if !l.A().Port.Q(PrioNormal).Paused() {
		t.Fatal("pause frame did not pause the egress queue")
	}
	resume := s.NewPacket(KindResume, 64, "h1")
	resume.PauseClass = PrioNormal
	resume.Prio = PrioHigh
	l.B().Send(resume)
	s.RunFor(10 * simtime.Microsecond)
	if l.A().Port.Q(PrioNormal).Paused() {
		t.Fatal("resume frame did not unpause the egress queue")
	}
}

func TestECNMarking(t *testing.T) {
	s := NewSim(1)
	h1 := NewHost(s, "h1")
	h2 := NewHost(s, "h2")
	h1.StackDelay, h2.StackDelay = 0, 0
	l := Connect(s, h1, h2, simtime.Rate10G, 0)
	q := l.A().Port.Q(PrioNormal)
	q.ECNThreshold = 3000
	var marked, unmarked int
	h2.OnReceive = func(p *Packet) {
		if p.CE {
			marked++
		} else {
			unmarked++
		}
	}
	for i := 0; i < 10; i++ {
		p := s.NewPacket(KindData, 1500, "h2")
		p.ECNCapable = true
		l.A().Send(p)
	}
	s.RunFor(simtime.Millisecond)
	// Packet 1 goes straight to the wire; packets 2-4 enqueue at 0, 1500
	// and 3000 queued bytes (not strictly above the threshold); packets
	// 5-10 see >3000 queued bytes and get marked.
	if unmarked != 4 || marked != 6 {
		t.Fatalf("marked=%d unmarked=%d, want 6/4", marked, unmarked)
	}
}

func TestTailDrop(t *testing.T) {
	s := NewSim(1)
	h1 := NewHost(s, "h1")
	h2 := NewHost(s, "h2")
	h1.StackDelay, h2.StackDelay = 0, 0
	l := Connect(s, h1, h2, simtime.Rate10G, 0)
	q := l.A().Port.Q(PrioNormal)
	q.MaxBytes = 4000
	n := 0
	h2.OnReceive = func(p *Packet) { n++ }
	for i := 0; i < 10; i++ {
		l.A().Send(s.NewPacket(KindData, 1500, "h2"))
	}
	s.RunFor(simtime.Millisecond)
	// 1 in flight + 2 queued (3000B < 4000) fit; the rest drop.
	if n != 3 {
		t.Fatalf("delivered %d, want 3", n)
	}
	if q.Drops != 7 {
		t.Fatalf("Drops = %d, want 7", q.Drops)
	}
}

func TestCorruptionCountersAndRate(t *testing.T) {
	s := NewSim(42)
	h1 := NewHost(s, "h1")
	h2 := NewHost(s, "h2")
	h1.StackDelay, h2.StackDelay = 0, 0
	l := Connect(s, h1, h2, simtime.Rate100G, 0)
	l.SetLoss(l.A(), IIDLoss{P: 0.01})
	delivered := 0
	h2.OnReceive = func(p *Packet) { delivered++ }
	const N = 100000
	for i := 0; i < N; i++ {
		l.A().Send(s.NewPacket(KindData, 1500, "h2"))
	}
	// 100K MTU frames at 100G take ~12.3ms of wire time.
	s.RunFor(20 * simtime.Millisecond)
	in := &l.B().In
	if in.RxAll != N {
		t.Fatalf("RxAll = %d, want %d", in.RxAll, N)
	}
	if in.RxOk+in.RxBad != in.RxAll {
		t.Fatal("counter identity violated")
	}
	got := float64(in.RxBad) / float64(in.RxAll)
	if math.Abs(got-0.01) > 0.002 {
		t.Fatalf("observed loss %v, want ~0.01", got)
	}
	if uint64(delivered) != in.RxOk {
		t.Fatalf("delivered %d != RxOk %d", delivered, in.RxOk)
	}
	// Reverse direction stays lossless (unidirectional corruption, §3).
	for i := 0; i < 1000; i++ {
		l.B().Send(s.NewPacket(KindData, 1500, "h1"))
	}
	s.RunFor(20 * simtime.Millisecond)
	if l.A().In.RxBad != 0 {
		t.Fatal("reverse direction saw corruption")
	}
}

// Ifc.Receive, the live transport's ingress, runs the same fault layer as
// simulated propagation — flap state, FaultFn, DropFn and the loss model
// of the peer→ifc direction only — drops condemned frames at this MAC
// (RxAll/RxBad), and shows each frame to the link's taps with its verdict.
func TestIfcReceiveRunsLinkVerdict(t *testing.T) {
	s := NewSim(1)
	h1, h2 := NewHost(s, "h1"), NewHost(s, "h2")
	h1.StackDelay, h2.StackDelay = 0, 0
	l := Connect(s, h1, h2, simtime.Rate100G, 0)
	delivered := map[*Host]int{}
	h1.OnReceive = func(*Packet) { delivered[h1]++ }
	h2.OnReceive = func(*Packet) { delivered[h2]++ }
	h1.Recycle, h2.Recycle = true, true
	type tapped struct {
		from      *Ifc
		corrupted bool
	}
	var taps []tapped
	l.TapDeliver(func(_ *Packet, from *Ifc, corrupted bool) { taps = append(taps, tapped{from, corrupted}) })

	// inject hands one frame to ifc's ingress and reports whether its node
	// got it; the tap must have seen it from the peer with that verdict.
	inject := func(ifc *Ifc, to *Host) bool {
		t.Helper()
		before, all, bad := delivered[to], ifc.In.RxAll, ifc.In.RxBad
		taps = taps[:0]
		ifc.Receive(s.NewPacket(KindData, 100, to.NodeName()))
		s.RunFor(simtime.Microsecond)
		ok := delivered[to] == before+1
		switch {
		case ifc.In.RxAll != all+1:
			t.Fatalf("RxAll moved %d, want 1", ifc.In.RxAll-all)
		case ok == (ifc.In.RxBad != bad):
			t.Fatalf("delivered=%v but RxBad moved %d", ok, ifc.In.RxBad-bad)
		case len(taps) != 1 || taps[0].from != ifc.Peer() || taps[0].corrupted == ok:
			t.Fatalf("taps saw %+v for a frame from %s (delivered=%v)", taps, ifc.Peer().Name, ok)
		}
		return ok
	}
	ab, ba := l.B(), l.A() // ingress of the a→b and of the b→a direction

	if !inject(ab, h2) || !inject(ba, h1) {
		t.Fatal("clean link dropped a frame")
	}
	l.SetDown(true)
	if inject(ab, h2) || inject(ba, h1) {
		t.Fatal("a downed link delivered a frame")
	}
	l.SetDown(false)

	l.SetLoss(l.A(), IIDLoss{P: 1})
	if inject(ab, h2) {
		t.Fatal("the a→b loss model did not drop at b's ingress")
	}
	if !inject(ba, h1) {
		t.Fatal("the a→b loss model dropped a b→a frame")
	}
	l.SetLoss(l.A(), nil)

	l.DropFn = func(_ *Packet, from *Ifc) bool { return from == l.B() }
	if !inject(ab, h2) || inject(ba, h1) {
		t.Fatal("DropFn not honoured per direction")
	}
	l.FaultFn = func(_ *Packet, from *Ifc) Verdict {
		if from == l.B() {
			return VerdictDeliver
		}
		return VerdictDrop
	}
	if inject(ab, h2) || !inject(ba, h1) {
		t.Fatal("FaultFn does not take precedence over DropFn")
	}
}

func TestGilbertElliottBursts(t *testing.T) {
	s := NewSim(7)
	ge := NewGilbertElliott(0.01, 3)
	if math.Abs(ge.Rate()-0.01) > 1e-9 {
		t.Fatalf("GE stationary rate = %v, want 0.01", ge.Rate())
	}
	// Measure burst-length distribution directly.
	drops, bursts, cur := 0, 0, 0
	const N = 2_000_000
	for i := 0; i < N; i++ {
		if ge.Drops(s.Rng) {
			drops++
			cur++
		} else if cur > 0 {
			bursts++
			cur = 0
		}
	}
	rate := float64(drops) / N
	if math.Abs(rate-0.01) > 0.003 {
		t.Fatalf("GE observed rate %v, want ~0.01", rate)
	}
	meanBurst := float64(drops) / float64(bursts)
	if meanBurst < 2 || meanBurst > 4.5 {
		t.Fatalf("mean burst length %v, want ~3", meanBurst)
	}
}

func TestCloneDeepCopies(t *testing.T) {
	s := NewSim(1)
	p := s.NewPacket(KindData, 100, "h2")
	p.LG = LGData{Present: true, Retx: false}
	p.Notif = LossNotif{Present: true, Count: 1}
	c := p.Clone(s)
	if c.ID == p.ID {
		t.Fatal("clone shares ID")
	}
	c.LG.Retx = true
	if p.LG.Retx {
		t.Fatal("clone shares LG header")
	}
	c.Notif.Missing[0] = seqnum.Seq{N: 9}
	if p.Notif.Missing[0] == c.Notif.Missing[0] {
		t.Fatal("clone shares Notif missing array")
	}
}

func TestSwitchDropsUnroutable(t *testing.T) {
	s := NewSim(1)
	h1, _, sw1, _, _ := lineTopo(s, simtime.Rate25G, 0)
	h1.Send(s.NewPacket(KindData, 100, "nowhere"))
	s.RunFor(simtime.Millisecond)
	if sw1.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", sw1.Dropped)
	}
}

func TestPortUtilizationCounters(t *testing.T) {
	s := NewSim(1)
	h1 := NewHost(s, "h1")
	h2 := NewHost(s, "h2")
	h1.StackDelay = 0
	l := Connect(s, h1, h2, simtime.Rate25G, 0)
	for i := 0; i < 100; i++ {
		l.A().Send(s.NewPacket(KindData, 1500, "h2"))
	}
	s.RunFor(simtime.Millisecond)
	p := l.A().Port
	if p.TxFrames != 100 || p.TxBytes != 150000 {
		t.Fatalf("TxFrames=%d TxBytes=%d", p.TxFrames, p.TxBytes)
	}
	want := simtime.Rate25G.Serialize(simtime.WireBytes(1500)) * 100
	if p.BusyTime != want {
		t.Fatalf("BusyTime = %v, want %v", p.BusyTime, want)
	}
}
