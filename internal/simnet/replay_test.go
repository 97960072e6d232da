package simnet

import (
	"testing"

	"linkguardian/internal/simtime"
)

// Replay leaves a link exactly as carrying the same frames one at a time
// would: port and MAC counters, packet IDs and loss-model draws.
func TestLinkReplayMatchesCarriedFrames(t *testing.T) {
	const frames = 200
	build := func() (*Sim, *Link) {
		s := NewSim(3)
		h1, h2 := NewHost(s, "h1"), NewHost(s, "h2")
		h1.StackDelay, h2.StackDelay = 0, 0
		h2.Recycle = true
		l := Connect(s, h1, h2, simtime.Rate100G, 100*simtime.Nanosecond)
		l.SetLoss(l.A(), IIDLoss{P: 0.3})
		return s, l
	}
	carried, cl := build()
	for range frames {
		cl.A().Port.Enqueue(carried.NewPacket(KindData, simtime.MinFrame, "h2"))
		carried.RunFor(simtime.Microsecond)
	}
	replayed, rl := build()
	if !rl.Replayable() || !rl.A().Port.Idle() {
		t.Fatal("a fresh link is not replayable and idle")
	}
	f := Packet{Kind: KindData, Size: simtime.MinFrame, Prio: PrioNormal, ToHost: "h2"}
	bad := 0
	for range frames {
		if rl.Replay(rl.A(), &f) {
			bad++
		}
	}
	if bad == 0 || bad == frames {
		t.Fatalf("%d of %d frames corrupted; the loss model was not consulted", bad, frames)
	}
	for _, side := range []func(*Link) *Ifc{(*Link).A, (*Link).B} {
		c, r := side(cl), side(rl)
		if c.In != r.In || c.Port.TxFrames != r.Port.TxFrames || c.Port.TxBytes != r.Port.TxBytes ||
			c.Port.BusyTime != r.Port.BusyTime {
			t.Errorf("%s: carried %+v tx %d/%d/%v, replayed %+v tx %d/%d/%v", c.Name,
				c.In, c.Port.TxFrames, c.Port.TxBytes, c.Port.BusyTime,
				r.In, r.Port.TxFrames, r.Port.TxBytes, r.Port.BusyTime)
		}
	}
	if c, r := carried.NewPacket(KindData, 64, "").ID, replayed.NewPacket(KindData, 64, "").ID; c != r {
		t.Errorf("next packet ID: carried %d, replayed %d", c, r)
	}
	if c, r := carried.Rng.Int63(), replayed.Rng.Int63(); c != r {
		t.Errorf("next draw: carried %d, replayed %d", c, r)
	}
}

// Anything that observes or intercepts a frame beyond the verdict makes a
// link unfit for replay.
func TestLinkReplayableExcludesObservers(t *testing.T) {
	for name, spoil := range map[string]func(*Sim, *Link){
		"tap":       func(_ *Sim, l *Link) { l.TapDeliver(func(*Packet, *Ifc, bool) {}) },
		"fault":     func(_ *Sim, l *Link) { l.FaultFn = func(*Packet, *Ifc) Verdict { return VerdictDefer } },
		"carrier":   func(_ *Sim, l *Link) { l.Carrier = func(*Packet, *Ifc) {} },
		"onRelease": func(s *Sim, _ *Link) { s.OnRelease = func(*Packet) {} },
	} {
		s := NewSim(1)
		l := Connect(s, NewHost(s, "h1"), NewHost(s, "h2"), simtime.Rate100G, 0)
		spoil(s, l)
		if l.Replayable() {
			t.Errorf("%s: link still replayable", name)
		}
	}
}
