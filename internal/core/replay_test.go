package core

import (
	"cmp"
	"reflect"
	"testing"

	"linkguardian/internal/eventq"
	"linkguardian/internal/simnet"
	"linkguardian/internal/simtime"
)

// An idle protected link replays its control streams only when one
// instance owns both ends, its hooks are the only ones on the streams'
// path, the link has no observer beyond the verdict, and a run window
// bounds the replay.
func TestControlReplayEligibility(t *testing.T) {
	cfg := NewConfig(simtime.Rate100G, 1e-3)
	protect := func(tb *testbed) []*Instance { return []*Instance{Protect(tb.sim, tb.link.A(), cfg)} }
	cases := []struct {
		name   string
		setup  func(tb *testbed) []*Instance
		step   bool // drive with bare Steps instead of RunFor
		replay bool
		delay  simtime.Duration // of the protected link, 100 ns if zero
	}{
		{"protect", protect, false, true, 0},
		{"ack stream only", func(tb *testbed) []*Instance {
			c := cfg
			c.TailLossDetection = false
			return []*Instance{Protect(tb.sim, tb.link.A(), c)}
		}, false, true, 0},
		{"bare steps", protect, true, false, 0},
		{"frames outlive the interval", protect, false, false, 250},
		{"re-enabled at once: two chains per stream", func(tb *testbed) []*Instance {
			g := Protect(tb.sim, tb.link.A(), cfg)
			g.Enable()
			tb.runFor(simtime.Microsecond)
			g.Disable()
			return []*Instance{g}
		}, false, false, 0},
		{"tap", func(tb *testbed) []*Instance {
			tb.link.TapDeliver(func(*simnet.Packet, *simnet.Ifc, bool) {})
			return protect(tb)
		}, false, false, 0},
		{"unequal pacing", func(tb *testbed) []*Instance {
			c := cfg
			c.DummyInterval = 300 * simtime.Nanosecond
			return []*Instance{Protect(tb.sim, tb.link.A(), c)}
		}, false, false, 0},
		{"foreign ingress hook", func(tb *testbed) []*Instance {
			tb.link.B().OnIngress = func(*simnet.Packet) bool { return false }
			return []*Instance{Protect(tb.sim, tb.link.A(), cfg)}
		}, false, false, 0},
		// A dormant instance shares the interface's hooks with the active one.
		{"per-class", func(tb *testbed) []*Instance {
			Protect(tb.sim, tb.link.A(), cfg)
			return protect(tb)
		}, false, false, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tb := newBareTestbed(cmp.Or(c.delay, 100*simtime.Nanosecond))
			gs := c.setup(tb)
			for _, g := range gs {
				g.Enable()
			}
			r0 := tb.sim.Q.Replayed()
			if c.step {
				for range 3000 {
					tb.sim.Q.Step()
				}
			} else {
				tb.runFor(100 * simtime.Microsecond)
			}
			if n := tb.sim.Q.Replayed() - r0; (n > 0) != c.replay {
				t.Fatalf("replayed %d events; want replay %v", n, c.replay)
			}
		})
	}
}

// newBareTestbed is newTestbed's 100G topology with no instance on the
// link, which has the given propagation delay.
func newBareTestbed(delay simtime.Duration) *testbed {
	s := simnet.NewSim(1)
	tb := &testbed{sim: s, h1: simnet.NewHost(s, "h1"), h2: simnet.NewHost(s, "h2"),
		sw2: simnet.NewSwitch(s, "sw2"), sw6: simnet.NewSwitch(s, "sw6")}
	simnet.Connect(s, tb.h1, tb.sw2, simtime.Rate100G, 50*simtime.Nanosecond)
	tb.link = simnet.Connect(s, tb.sw2, tb.sw6, simtime.Rate100G, delay)
	simnet.Connect(s, tb.sw6, tb.h2, simtime.Rate100G, 50*simtime.Nanosecond)
	return tb
}

// replayOutcome is what an idle-link run leaves behind that the replay
// could disturb.
type replayOutcome struct {
	M       Metrics
	Ports   [2][3]uint64
	Ifcs    [2]simnet.Counters
	Events  uint64 // Fired + Replayed
	NextID  uint64
	NextRng int64
	NextSeq eventq.Ticket
}

// runPhase sends two data packets at shift past 10 µs and idles the link
// until 60 µs, with the streams replayed or, under tap, all on the event
// path. The packets delay the next dummy behind them, by more than a
// pacing interval at most, so the two streams leave them in any phase.
func runPhase(delay, shift simtime.Duration, tap bool) (replayOutcome, uint64) {
	tb := newBareTestbed(delay)
	tb.link.SetLoss(tb.link.A(), simnet.IIDLoss{P: 0.2})
	tb.link.SetLoss(tb.link.B(), simnet.IIDLoss{P: 0.1})
	if tap {
		tb.link.TapDeliver(func(*simnet.Packet, *simnet.Ifc, bool) {})
	}
	g := Protect(tb.sim, tb.link.A(), NewConfig(simtime.Rate100G, 0.2))
	g.Enable()
	tb.sim.Run(simtime.Time(10*simtime.Microsecond + shift))
	for range 2 {
		tb.link.A().Send(tb.sim.NewPacket(simnet.KindData, 1500, "h2"))
	}
	for range 50 {
		tb.sim.RunFor(simtime.Microsecond)
	}
	g.Settle()
	q := &tb.sim.Q
	o := replayOutcome{M: g.M, Events: q.Fired() + q.Replayed(), NextRng: tb.sim.Rng.Int63()}
	for i, ifc := range []*simnet.Ifc{tb.link.A(), tb.link.B()} {
		o.Ports[i] = [3]uint64{ifc.Port.TxFrames, ifc.Port.TxBytes, uint64(ifc.Port.BusyTime)}
		o.Ifcs[i] = ifc.In
	}
	p := tb.sim.NewPacket(simnet.KindData, 64, "")
	o.NextID = p.ID
	o.NextSeq = tb.sim.TicketAt(tb.sim.Now())
	return o, q.Replayed()
}

// Whatever phase the streams end up in, the replay leaves exactly what
// the event path does: data sent at offsets across a pacing interval
// pushes the dummy stream to phases all round the ACK stream's, including
// those where the two are never idle at once. On the short link a frame
// lands well within the interval, so a cut can fall between the two
// streams' replenishes of one interval.
func TestControlReplayPhases(t *testing.T) {
	for _, delay := range []simtime.Duration{100, 10} {
		replayed := 0
		for shift := simtime.Duration(0); shift < 200; shift += 3 {
			got, n := runPhase(delay, shift, false)
			want, _ := runPhase(delay, shift, true)
			if n > 0 {
				replayed++
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("delay %v, shift %v: replayed run\n %+v\nevent path\n %+v", delay, shift, got, want)
			}
		}
		if replayed == 0 {
			t.Fatalf("delay %v: no run replayed", delay)
		}
	}
}
