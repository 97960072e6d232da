package core

import (
	"testing"

	"linkguardian/internal/eventq"
	"linkguardian/internal/simnet"
	"linkguardian/internal/simtime"
)

// wrappedRuntime delegates every Runtime method to a *simnet.Sim without
// being one. Running the same scenario through it and through the Sim
// directly proves the state machines depend only on the seam, not on the
// concrete scheduler type — the property the live runtime relies on.
type wrappedRuntime struct{ s *simnet.Sim }

func (w wrappedRuntime) Now() simtime.Time                         { return w.s.Now() }
func (w wrappedRuntime) At(t simtime.Time, fn func()) eventq.Timer { return w.s.At(t, fn) }
func (w wrappedRuntime) AtCall(t simtime.Time, fn func(a0, a1 any), a0, a1 any) eventq.Timer {
	return w.s.AtCall(t, fn, a0, a1)
}
func (w wrappedRuntime) AfterCall(d simtime.Duration, fn func(a0, a1 any), a0, a1 any) eventq.Timer {
	return w.s.AfterCall(d, fn, a0, a1)
}
func (w wrappedRuntime) NewPacket(kind simnet.Kind, size int, toHost string) *simnet.Packet {
	return w.s.NewPacket(kind, size, toHost)
}
func (w wrappedRuntime) TicketAt(t simtime.Time) eventq.Ticket { return w.s.TicketAt(t) }
func (w wrappedRuntime) Due(t eventq.Ticket) bool              { return w.s.Due(t) }
func (w wrappedRuntime) Cancel(t eventq.Timer)                 { w.s.Cancel(t) }
func (w wrappedRuntime) ScheduleCallAt(t eventq.Ticket, fn func(a0, a1 any), a0, a1 any) eventq.Timer {
	return w.s.ScheduleCallAt(t, fn, a0, a1)
}
func (w wrappedRuntime) Horizon(skip eventq.Timer) (simtime.Time, bool) { return w.s.Horizon(skip) }
func (w wrappedRuntime) AddReplayed(events, draws int)                  { w.s.AddReplayed(events, draws) }
func (w wrappedRuntime) ClonePacket(p *simnet.Packet) *simnet.Packet    { return w.s.ClonePacket(p) }
func (w wrappedRuntime) Release(p *simnet.Packet)                       { w.s.Release(p) }

// seamTally is the comparable subset of protocol activity the equivalence
// tests assert on, summed across however many instances a scenario builds.
type seamTally struct {
	protected, retransmits, delivered, duplicates uint64
	lossEvents, unrecovered, acksReceived         uint64
}

// seamScenario is the core_test testbed with the Protect call abstracted so
// the scenario can run over any Runtime construction.
func seamScenario(t *testing.T, build func(s *simnet.Sim, link *simnet.Link) []*Instance) ([]int, seamTally) {
	t.Helper()
	s := simnet.NewSim(7)
	h1 := simnet.NewHost(s, "h1")
	h2 := simnet.NewHost(s, "h2")
	h1.StackDelay, h2.StackDelay = 0, 0
	sw2 := simnet.NewSwitch(s, "sw2")
	sw6 := simnet.NewSwitch(s, "sw6")
	l1 := simnet.Connect(s, h1, sw2, simtime.Rate25G, 50*simtime.Nanosecond)
	link := simnet.Connect(s, sw2, sw6, simtime.Rate25G, 100*simtime.Nanosecond)
	l2 := simnet.Connect(s, sw6, h2, simtime.Rate25G, 50*simtime.Nanosecond)
	sw2.AddRoute("h2", link.A())
	sw2.AddRoute("h1", l1.B())
	sw6.AddRoute("h2", l2.A())
	sw6.AddRoute("h1", link.B())
	var got []int
	h2.OnReceive = func(p *simnet.Packet) { got = append(got, p.FlowID) }
	h2.Recycle = true
	instances := build(s, link)
	link.SetLoss(link.A(), simnet.IIDLoss{P: 1e-2})
	for _, g := range instances {
		g.Enable()
	}
	for i := 0; i < 3000; i++ {
		p := s.NewPacket(simnet.KindData, 1000, "h2")
		p.FlowID = i
		h1.Send(p)
	}
	s.RunFor(2 * simtime.Millisecond)
	var m seamTally
	for _, g := range instances {
		m.protected += g.M.Protected
		m.retransmits += g.M.Retransmits
		m.delivered += g.M.Delivered
		m.duplicates += g.M.Duplicates
		m.lossEvents += g.M.LossEvents
		m.unrecovered += g.M.Unrecovered
		m.acksReceived += g.M.AcksReceived
	}
	return got, m
}

// TestRuntimeSeamBackendEquivalence proves the clock/runtime seam is
// behavior-free: the identical lossy scenario driven through the concrete
// *simnet.Sim and through an opaque delegating Runtime produces the same
// delivery sequence and the same protocol activity, event for event.
func TestRuntimeSeamBackendEquivalence(t *testing.T) {
	direct, dm := seamScenario(t, func(s *simnet.Sim, link *simnet.Link) []*Instance {
		return []*Instance{Protect(s, link.A(), NewConfig(simtime.Rate25G, 1e-2))}
	})
	wrapped, wm := seamScenario(t, func(s *simnet.Sim, link *simnet.Link) []*Instance {
		return []*Instance{Protect(wrappedRuntime{s}, link.A(), NewConfig(simtime.Rate25G, 1e-2))}
	})
	if len(direct) != len(wrapped) {
		t.Fatalf("delivery count diverged: direct %d, wrapped %d", len(direct), len(wrapped))
	}
	for i := range direct {
		if direct[i] != wrapped[i] {
			t.Fatalf("delivery order diverged at %d: direct %d, wrapped %d", i, direct[i], wrapped[i])
		}
	}
	if dm != wm {
		t.Fatalf("metrics diverged:\ndirect  %+v\nwrapped %+v", dm, wm)
	}
	if dm.protected == 0 || dm.retransmits == 0 {
		t.Fatalf("scenario did not exercise the protocol: %+v", dm)
	}
}

// TestSplitRolesMatchCombinedInstance proves that a sender-half instance on
// one end of the link plus a receiver-half instance on the other — the
// live two-process attachment — reproduces the combined RoleBoth instance
// exactly: same deliveries in the same order, same protocol activity. The
// link between the halves is the simulated wire here; internal/live swaps
// it for UDP via Link.Carrier without touching the state machines.
func TestSplitRolesMatchCombinedInstance(t *testing.T) {
	cfg := NewConfig(simtime.Rate25G, 1e-2)
	combined, cm := seamScenario(t, func(s *simnet.Sim, link *simnet.Link) []*Instance {
		return []*Instance{Protect(s, link.A(), cfg)}
	})
	split, sm := seamScenario(t, func(s *simnet.Sim, link *simnet.Link) []*Instance {
		snd := ProtectSender(s, link.A(), cfg)
		rcv := ProtectReceiver(s, link.B(), cfg)
		if snd.Role() != RoleSender || rcv.Role() != RoleReceiver {
			t.Fatal("role accessors disagree with constructors")
		}
		return []*Instance{snd, rcv}
	})
	if len(combined) != len(split) {
		t.Fatalf("delivery count diverged: combined %d, split %d", len(combined), len(split))
	}
	for i := range combined {
		if combined[i] != split[i] {
			t.Fatalf("delivery order diverged at %d: combined %d, split %d", i, combined[i], split[i])
		}
	}
	if cm != sm {
		t.Fatalf("metrics diverged:\ncombined %+v\nsplit    %+v", cm, sm)
	}
}
