// Package simnet is a deterministic, nanosecond-resolution discrete-event
// network simulator: the substrate on which LinkGuardian runs in this
// reproduction, standing in for the Intel Tofino testbed of the paper.
//
// It models exactly the dataplane features LinkGuardian relies on:
//
//   - egress ports with strict-priority queues and per-queue PFC pause,
//   - links with per-direction corruption models (i.i.d. and bursty
//     Gilbert–Elliott losses dropped at the receiving MAC),
//   - switches with a fixed pipeline latency, per-port frame counters
//     (framesRxAll/framesRxOk, as polled by corruptd), ECN marking, and
//     ingress/egress hooks where the LinkGuardian state machines attach,
//   - hosts with a configurable stack delay for realistic end-to-end RTTs.
//
// A Sim owns a single event queue and RNG; a run is single-threaded and
// reproducible from its seed. Independent Sims may run concurrently.
//
// The steady-state per-packet path is allocation-free: packets recycle
// through a per-Sim free list (Sim.Release at the terminal points), the
// LinkGuardian headers are inline Packet fields, and every per-frame event
// is scheduled through the typed eventq ScheduleCall form with pooled
// argument cells instead of a heap-allocated closure. DESIGN.md §9
// documents the discipline.
package simnet

import (
	"math/rand"

	"linkguardian/internal/eventq"
	"linkguardian/internal/simtime"
)

// Sim is one simulation universe: an event queue, a seeded RNG, and the
// topology hung off it. Create with NewSim.
type Sim struct {
	Q   eventq.Queue
	Rng *rand.Rand

	// OnRelease, if set, observes every packet handed back to the free
	// list, before its fields are wiped. The live transport uses it to
	// reclaim the wire frame buffer a packet's payload still aliases —
	// releasing the packet is the moment that payload provably dies. The
	// hook must not retain the packet or release further packets.
	OnRelease func(*Packet)

	nextPktID uint64
	pktFree   *Packet // packet free list; see Sim.Release
}

// NewSim returns a simulator seeded for reproducibility.
func NewSim(seed int64) *Sim {
	return &Sim{Rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (s *Sim) Now() simtime.Time { return simtime.Time(s.Q.Now()) }

// At schedules fn at an absolute simulated time.
func (s *Sim) At(t simtime.Time, fn func()) eventq.Timer {
	return s.Q.Schedule(int64(t), fn)
}

// After schedules fn d after the current time.
func (s *Sim) After(d simtime.Duration, fn func()) eventq.Timer {
	return s.Q.After(int64(d), fn)
}

// AtCall schedules fn(a0, a1) at an absolute simulated time — the typed,
// zero-allocation form: fn must be a static function, a0/a1 pointers.
func (s *Sim) AtCall(t simtime.Time, fn func(a0, a1 any), a0, a1 any) eventq.Timer {
	return s.Q.ScheduleCall(int64(t), fn, a0, a1)
}

// AfterCall schedules fn(a0, a1) d after the current time; typed
// counterpart of After.
func (s *Sim) AfterCall(d simtime.Duration, fn func(a0, a1 any), a0, a1 any) eventq.Timer {
	return s.Q.AfterCall(int64(d), fn, a0, a1)
}

// TicketAt reserves the firing-order place of an event at t without
// scheduling one; see eventq.Queue.TicketAt.
func (s *Sim) TicketAt(t simtime.Time) eventq.Ticket { return s.Q.TicketAt(int64(t)) }

// Due reports whether an event in the ticket's place would have fired by
// now; see eventq.Queue.Due.
func (s *Sim) Due(t eventq.Ticket) bool { return s.Q.Due(t) }

// ScheduleCallAt schedules fn(a0, a1) in the place the ticket reserved; see
// eventq.Queue.ScheduleCallAt.
func (s *Sim) ScheduleCallAt(t eventq.Ticket, fn func(a0, a1 any), a0, a1 any) eventq.Timer {
	return s.Q.ScheduleCallAt(t, fn, a0, a1)
}

// Horizon reports the earliest live event other than skip's, capped by
// the active run's end; ok is false outside RunUntil/RunBefore. See
// eventq.Queue.Horizon.
func (s *Sim) Horizon(skip eventq.Timer) (t simtime.Time, ok bool) {
	at, ok := s.Q.Horizon(skip)
	return simtime.Time(at), ok
}

// AddReplayed records events replayed in closed form and the tie-breaking
// numbers they drew; see eventq.Queue.AddReplayed.
func (s *Sim) AddReplayed(events, draws int) { s.Q.AddReplayed(events, draws) }

// Cancel removes a pending event; safe on zero/fired timers.
func (s *Sim) Cancel(t eventq.Timer) { s.Q.Cancel(t) }

// Run advances the simulation until the given instant.
func (s *Sim) Run(until simtime.Time) { s.Q.RunUntil(int64(until)) }

// RunFor advances the simulation by d.
func (s *Sim) RunFor(d simtime.Duration) { s.Run(s.Now().Add(d)) }

// ticker is the pooled state of one Sim.Every loop: a single allocation at
// setup, then each tick re-schedules through the typed event form.
type ticker struct {
	s        *Sim
	interval simtime.Duration
	fn       func() bool
}

func tickerFire(a0, _ any) {
	t := a0.(*ticker)
	if t.fn() {
		t.s.AfterCall(t.interval, tickerFire, t, nil)
	}
}

// Every invokes fn every interval until it returns false, starting one
// interval from now.
func (s *Sim) Every(interval simtime.Duration, fn func() bool) {
	t := &ticker{s: s, interval: interval, fn: fn}
	s.AfterCall(interval, tickerFire, t, nil)
}

func (s *Sim) pktID() uint64 {
	s.nextPktID++
	return s.nextPktID
}

// ClonePacket is the method form of Packet.Clone, so schedulers exposing the
// core.Runtime seam (this Sim, and the live runtime wrapping it) offer
// cloning without the caller naming the concrete *Sim.
func (s *Sim) ClonePacket(p *Packet) *Packet { return p.Clone(s) }
