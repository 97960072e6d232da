package core

import (
	"linkguardian/internal/eventq"
	"linkguardian/internal/simnet"
	"linkguardian/internal/simtime"
)

// Runtime is the seam between the LinkGuardian state machines and the
// engine that drives them. The protocol code schedules its timers (loss
// sweeps, the ackNoTimeout, pause refreshes, ACK/dummy pacing, reordering-
// buffer wakeups), reserves tickets for its two pure delays, and draws and
// releases pooled packets exclusively through this interface, so the same
// sender/receiver logic compiles against two backends:
//
//   - *simnet.Sim — the discrete-event scheduler. Time is logical, a run is
//     single-threaded and bit-for-bit reproducible from its seed. This is
//     the backend of every experiment, chaos scenario and golden trace, and
//     extracting the seam changed none of its behavior.
//   - *live.Loop (internal/live) — the real-time executor. Time is the wall
//     clock, timers fire off a time.Timer on a dedicated event-loop
//     goroutine, and frames leave and enter the process over real UDP
//     sockets via the simnet Link.Carrier / Ifc.Receive boundary.
//
// The typed AtCall/AfterCall forms are the zero-allocation scheduling path
// (static func plus two pointer-shaped args); both backends preserve the
// eventq guarantee that events scheduled for the same instant fire in
// scheduling order.
//
// A delay that only makes a value visible later — the ACK-stamping view
// trailing latestRx by one pipeline traversal, and an acked Tx-buffer copy
// dropped at its next loop boundary — costs no event: TicketAt reserves
// the firing-order place such an event would take, and the instance applies
// the value at its next read once Due says that place has passed. Both
// backends answer from the one eventq.Queue: on the live backend a ticket
// falls due as the loop's RunUntil passes the wall clock over it.
//
// An idle link's control streams are replayed in closed form (replay.go):
// Horizon bounds the replay, AddReplayed accounts its events and their
// tie-breaking numbers, and ScheduleCallAt re-enters each stream's next
// replenish at a reserved ticket. Only a RoleBoth instance replays, so the
// live backend, whose instances hold one role each, never does.
type Runtime interface {
	// Now returns the current protocol time: simulated time on the sim
	// backend, wall-clock time since loop start on the live backend.
	Now() simtime.Time

	// At schedules fn at an absolute instant (closure form; cold paths).
	At(t simtime.Time, fn func()) eventq.Timer

	// AtCall schedules fn(a0, a1) at an absolute instant — the typed,
	// allocation-free form: fn must be a static function, a0/a1 pointers.
	AtCall(t simtime.Time, fn func(a0, a1 any), a0, a1 any) eventq.Timer

	// AfterCall schedules fn(a0, a1) d after Now.
	AfterCall(d simtime.Duration, fn func(a0, a1 any), a0, a1 any) eventq.Timer

	// TicketAt reserves the firing-order place of an event at t without
	// scheduling one; it draws the same tie-breaking number such an event
	// would, so every other event keeps its order.
	TicketAt(t simtime.Time) eventq.Ticket

	// Due reports whether an event in the ticket's place would have fired
	// by now.
	Due(t eventq.Ticket) bool

	// Cancel removes a pending event; a fired or canceled one is a no-op.
	Cancel(t eventq.Timer)

	// ScheduleCallAt schedules fn(a0, a1) in the place a TicketAt reserved.
	ScheduleCallAt(t eventq.Ticket, fn func(a0, a1 any), a0, a1 any) eventq.Timer

	// Horizon reports the earliest pending event other than skip's,
	// capped by the end of the running window; ok is false when no window
	// bounds a replay (a bare Step or Drain).
	Horizon(skip eventq.Timer) (t simtime.Time, ok bool)

	// AddReplayed counts events replayed in closed form and consumes the
	// tie-breaking numbers their schedulings drew.
	AddReplayed(events, draws int)

	// NewPacket draws a packet from the runtime's pool.
	NewPacket(kind simnet.Kind, size int, toHost string) *simnet.Packet

	// ClonePacket copies a packet (fresh ID, shared payload) from the pool.
	ClonePacket(p *simnet.Packet) *simnet.Packet

	// Release returns an exhausted packet to the pool. Terminal points only;
	// see simnet.Sim.Release for the ownership discipline.
	Release(p *simnet.Packet)
}

// The discrete-event simulator is the reference Runtime; every existing
// call site passes a *simnet.Sim unchanged.
var _ Runtime = (*simnet.Sim)(nil)

// Role selects which half (or both) of the protocol an Instance attaches.
// The classic single-process topology wires one Instance to both ends of a
// simulated link (RoleBoth); a live deployment splits the instance across
// two OS processes, each attaching only its own half to its local switch
// interface while the wire between them is a real network path.
type Role int

// Attachment roles.
const (
	// RoleBoth attaches sender and receiver state machines to the two ends
	// of one in-process link — the original Protect behavior.
	RoleBoth Role = iota
	// RoleSender attaches only the sender half: wire-time stamping, the
	// recirculating Tx buffer, dummy replenishment, and the reverse-path
	// ACK/notification consumer.
	RoleSender
	// RoleReceiver attaches only the receiver half: loss detection,
	// notifications, the reordering buffer with PFC backpressure, and the
	// piggybacked plus self-replenishing ACK streams.
	RoleReceiver
)

// Role returns the instance's attachment role.
func (g *Instance) Role() Role { return g.role }
