package eventq

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
)

// FuzzQueueOrder runs a random program of scheduling, cancellation and
// execution against a Queue and against a reference model that keeps every
// pending event in one slice and always fires its (at, seq) minimum. The
// firing sequence, Now, Len and every return value must match exactly.
//
// The program mixes the cases the per-handler lanes must get right: typed
// events over four static handlers (four lanes) with heavy equal-time
// collisions, deliberately out-of-order ScheduleCalls that take the heap
// path behind a non-empty lane, closure events that are heap-only, handlers
// that re-arm themselves from inside their callback, cancellation of lane
// heads and of events deep inside a lane, and Step, RunUntil, RunBefore and
// NextAt windows.
//
// Tickets ride along: the model treats each TicketAt as a no-op event in
// the same order, fired with the real events around it. After every op,
// and inside every callback, Due must hold for exactly the tickets the
// model has fired. Handlers also reserve tickets for their own instant.
// ScheduleCallAt turns a ticket not yet due into a real event in its
// place, and every callback asks Horizon for the earliest pending event
// other than the two scheduled just before it, capped by the running
// window; outside a window Horizon must decline.
//
// Each op is two bytes: an opcode and an argument. The seed corpus is
// checked in under testdata/fuzz/FuzzQueueOrder.
func FuzzQueueOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		r := &orderRig{}
		m := &orderModel{}
		for pc := 0; pc+1 < len(prog); pc += 2 {
			op, arg := prog[pc]%12, int(prog[pc+1])
			err := r.exec(m, op, arg)
			if err == nil {
				err = r.check(m)
			}
			if err != nil {
				t.Fatalf("after op %d (opcode %d, arg %d): %v", pc/2, op, arg, err)
			}
		}
		r.q.Drain(0)
		for m.step() {
		}
		if err := r.check(m); err != nil {
			t.Fatalf("after final Drain: %v", err)
		}
		if r.q.Len() != 0 {
			t.Fatalf("Len = %d after Drain", r.q.Len())
		}
	})
}

// orderMaxEvents bounds how many events one program may schedule, counting
// the re-arms handlers make from their callbacks.
const orderMaxEvents = 256

// firing is one dispatched event: its scheduling index, the time it ran,
// a fingerprint of the tickets due as it ran, and the Horizon it saw.
type firing struct {
	id   int
	at   int64
	due  uint64
	hz   int64
	hzOK bool
}

// orderHandlers are the static typed handlers of FuzzQueueOrder. Each has
// its own code pointer, so each gets its own lane; handler h re-arms itself
// orderDelays[h] after firing an event whose id is a multiple of three.
var orderHandlers = [...]func(a0, a1 any){orderH0, orderH1, orderH2, orderH3}

var orderDelays = [...]int64{0, 1, 3, 5}

func orderH0(a0, a1 any) { a0.(*orderRig).fired(0, orderH0, a1.(int)) }
func orderH1(a0, a1 any) { a0.(*orderRig).fired(1, orderH1, a1.(int)) }
func orderH2(a0, a1 any) { a0.(*orderRig).fired(2, orderH2, a1.(int)) }
func orderH3(a0, a1 any) { a0.(*orderRig).fired(3, orderH3, a1.(int)) }

func rearms(id int) bool { return id%3 == 0 }

// reservesTicket reports whether a typed handler firing event id reserves a
// ticket for its own instant: one that must not be due until a later event
// at that instant fires.
func reservesTicket(id int) bool { return id%5 == 1 }

// ticketH marks a ticket in the model's id space.
const ticketH = -2

// dueHash fingerprints a set of ticket ids, visited in increasing order.
func dueHash(h uint64, id int) uint64 { return h*1000003 + uint64(id) + 1 }

// orderRig is the Queue under test with the handles and firings of its run.
type orderRig struct {
	q       Queue
	timers  []Timer // by id; the zero Timer for a ticket's id
	tickets []Ticket
	tids    []int // id of each ticket
	got     []firing
}

// record logs the dispatch of event id.
func (r *orderRig) record(id int) {
	var due uint64
	for i, t := range r.tickets {
		if r.q.Due(t) {
			due = dueHash(due, r.tids[i])
		}
	}
	hz, ok := r.q.Horizon(r.timer(id-1), r.timer(id-2))
	r.got = append(r.got, firing{id, r.q.Now(), due, hz, ok})
}

// timer returns the handle of scheduling id, the zero Timer for a ticket or
// an id out of range.
func (r *orderRig) timer(id int) Timer {
	if id < 0 || id >= len(r.timers) {
		return Timer{}
	}
	return r.timers[id]
}

func (r *orderRig) ticketAt(at int64) {
	r.tids = append(r.tids, len(r.timers))
	r.tickets = append(r.tickets, r.q.TicketAt(at))
	r.timers = append(r.timers, Timer{})
}

func (r *orderRig) fired(h int, fn func(a0, a1 any), id int) {
	r.record(id)
	if reservesTicket(id) && len(r.timers) < orderMaxEvents {
		r.ticketAt(r.q.Now())
	}
	if rearms(id) && len(r.timers) < orderMaxEvents {
		r.timers = append(r.timers, r.q.AfterCall(orderDelays[h], fn, r, len(r.timers)))
	}
}

func (r *orderRig) scheduleCall(at int64, h int) {
	r.timers = append(r.timers, r.q.ScheduleCall(at, orderHandlers[h], r, len(r.timers)))
}

// exec applies one op to the rig and the model alike, checking the values
// the op itself returns.
func (r *orderRig) exec(m *orderModel, op byte, arg int) error {
	h := arg % len(orderHandlers)
	full := len(r.timers) >= orderMaxEvents
	switch op {
	case 0: // AfterCall with a tiny delay: equal-time collisions
		if !full {
			d := int64(arg>>2) % 4
			r.timers = append(r.timers, r.q.AfterCall(d, orderHandlers[h], r, len(r.timers)))
			m.schedule(m.now+d, h)
		}
	case 1: // ScheduleCall at or after Now
		if !full {
			at := m.now + int64(arg>>2)%8
			r.scheduleCall(at, h)
			m.schedule(at, h)
		}
	case 2: // ScheduleCall before handler h's latest pending event
		if !full {
			at := m.now
			if tail := m.tail(h); tail > m.now {
				at += int64(arg>>2) % (tail - m.now)
			}
			r.scheduleCall(at, h)
			m.schedule(at, h)
		}
	case 3: // closure form: always the heap
		if !full {
			at := m.now + int64(arg>>2)%8
			id := len(r.timers)
			r.timers = append(r.timers, r.q.Schedule(at, func() { r.record(id) }))
			m.schedule(at, -1)
		}
	case 4: // Cancel the k-th pending event of handler h (k = 0: its earliest)
		id, ok := m.pendingOf(h, arg>>2)
		if !ok && len(r.timers) > 0 {
			// Any handle, often fired or canceled already: then a no-op.
			id, ok = arg%len(r.timers), true
		}
		if ok {
			r.q.Cancel(r.timers[id])
			m.cancel(id)
		}
	case 5:
		if got, want := r.q.Step(), m.step(); got != want {
			return fmt.Errorf("Step = %v, model %v", got, want)
		}
	case 6:
		d := m.now + int64(arg)%16
		r.q.RunUntil(d)
		m.runUntil(d)
	case 7:
		l := m.now + int64(arg)%16
		if got, want := r.q.RunBefore(l), m.runBefore(l); got != want {
			return fmt.Errorf("RunBefore(%d) fired %d, model %d", l, got, want)
		}
	case 8:
		at, ok := r.q.NextAt()
		wantAt, wantOK := m.nextAt()
		if at != wantAt || ok != wantOK {
			return fmt.Errorf("NextAt = (%d, %v), model (%d, %v)", at, ok, wantAt, wantOK)
		}
	case 9: // TicketAt at or after Now
		if !full {
			at := m.now + int64(arg>>2)%8
			r.ticketAt(at)
			m.schedule(at, ticketH)
		}
	case 10: // ScheduleCallAt on a reserved ticket not yet due
		var open []int // indexes into r.tickets
		for i, t := range r.tickets {
			if !r.q.Due(t) {
				open = append(open, i)
			}
		}
		if len(open) > 0 {
			i := open[(arg>>2)%len(open)]
			id := r.tids[i]
			r.timers[id] = r.q.ScheduleCallAt(r.tickets[i], orderHandlers[h], r, id)
			r.tickets = slices.Delete(r.tickets, i, i+1)
			r.tids = slices.Delete(r.tids, i, i+1)
			m.evs[id].h = h
		}
	case 11: // Horizon outside a run window declines
		if _, ok := r.q.Horizon(r.timer(arg % max(len(r.timers), 1))); ok {
			return fmt.Errorf("Horizon outside a run window reported ok")
		}
	}
	return nil
}

// check compares the rig's observable state with the model's.
func (r *orderRig) check(m *orderModel) error {
	if !slices.Equal(r.got, m.got) {
		return fmt.Errorf("fired %v, model %v", r.got, m.got)
	}
	if r.q.Now() != m.now {
		return fmt.Errorf("Now = %d, model %d", r.q.Now(), m.now)
	}
	if r.q.Len() != m.pending() {
		return fmt.Errorf("Len = %d, model %d", r.q.Len(), m.pending())
	}
	for i, t := range r.tickets {
		id := r.tids[i]
		if got, want := r.q.Due(t), !m.evs[id].pending; got != want {
			return fmt.Errorf("Due(ticket %d at %d) = %v, model %v", id, m.evs[id].at, got, want)
		}
	}
	return nil
}

// orderModel is the reference queue: every event ever scheduled, by id,
// fired by a linear scan for the (at, seq) minimum. An event's id is its
// seq. A ticket is an event of handler ticketH that does nothing: it fires
// just before the first real event that follows it, and Len, Step and
// NextAt never see it.
type orderModel struct {
	evs []modelEvent
	now int64
	got []firing
	// stop is the running window's exclusive end while inRun.
	stop  int64
	inRun bool
}

type modelEvent struct {
	at      int64
	h       int // handler index, -1 for a closure, ticketH for a ticket
	pending bool
}

func (m *orderModel) schedule(at int64, h int) {
	m.evs = append(m.evs, modelEvent{at: at, h: h, pending: true})
}

func (m *orderModel) cancel(id int) {
	if m.evs[id].h != ticketH {
		m.evs[id].pending = false
	}
}

func (m *orderModel) pending() int {
	n := 0
	for _, e := range m.evs {
		if e.pending && e.h != ticketH {
			n++
		}
	}
	return n
}

// next returns the id of the earliest pending real event by (at, seq), or
// -1.
func (m *orderModel) next() int {
	best := -1
	for id, e := range m.evs {
		if e.pending && e.h != ticketH && (best < 0 || e.at < m.evs[best].at) {
			best = id
		}
	}
	return best
}

// fireTickets fires every pending ticket before (at, seq) in firing order.
func (m *orderModel) fireTickets(at int64, seq int) {
	for id := range m.evs {
		e := &m.evs[id]
		if e.pending && e.h == ticketH && (e.at < at || e.at == at && id < seq) {
			e.pending = false
		}
	}
}

// tail returns the latest time of handler h's pending events, or -1.
func (m *orderModel) tail(h int) int64 {
	t := int64(-1)
	for _, e := range m.evs {
		if e.pending && e.h == h {
			t = max(t, e.at)
		}
	}
	return t
}

// pendingOf returns the id of the k-th pending event of handler h in firing
// order, wrapping k around the count.
func (m *orderModel) pendingOf(h, k int) (int, bool) {
	var ids []int
	for id, e := range m.evs {
		if e.pending && e.h == h {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return 0, false
	}
	slices.SortStableFunc(ids, func(a, b int) int { return cmp.Compare(m.evs[a].at, m.evs[b].at) })
	return ids[k%len(ids)], true
}

func (m *orderModel) fire(id int) {
	e := &m.evs[id]
	m.fireTickets(e.at, id)
	e.pending = false
	m.now = e.at
	var due uint64
	for tid, t := range m.evs {
		if t.h == ticketH && !t.pending {
			due = dueHash(due, tid)
		}
	}
	hz, ok := m.horizon(id-1, id-2)
	m.got = append(m.got, firing{id, e.at, due, hz, ok})
	if e.h < 0 {
		return
	}
	if reservesTicket(id) && len(m.evs) < orderMaxEvents {
		m.schedule(m.now, ticketH)
	}
	if rearms(id) && len(m.evs) < orderMaxEvents {
		m.schedule(m.now+orderDelays[e.h], e.h)
	}
}

func (m *orderModel) step() bool {
	id := m.next()
	if id < 0 {
		return false
	}
	m.fire(id)
	return true
}

// horizon is Queue.Horizon skipping the events with the given ids: the
// earliest pending real event's time, capped by the window's end.
func (m *orderModel) horizon(skip ...int) (int64, bool) {
	if !m.inRun {
		return 0, false
	}
	best := m.stop
	for id, e := range m.evs {
		if e.pending && e.h != ticketH && !slices.Contains(skip, id) {
			best = min(best, e.at)
		}
	}
	return best, true
}

func (m *orderModel) runUntil(deadline int64) {
	m.stop, m.inRun = deadline+1, true
	defer func() { m.inRun = false }()
	for id := m.next(); id >= 0 && m.evs[id].at <= deadline; id = m.next() {
		m.fire(id)
	}
	m.fireTickets(deadline+1, 0)
	m.now = max(m.now, deadline)
}

func (m *orderModel) runBefore(limit int64) int {
	m.stop, m.inRun = limit, true
	defer func() { m.inRun = false }()
	n := 0
	for id := m.next(); id >= 0 && m.evs[id].at < limit; id = m.next() {
		m.fire(id)
		n++
	}
	m.fireTickets(limit, 0)
	m.now = max(m.now, limit)
	return n
}

func (m *orderModel) nextAt() (int64, bool) {
	if id := m.next(); id >= 0 {
		return m.evs[id].at, true
	}
	return 0, false
}
