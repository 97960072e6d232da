// Package eventq implements the deterministic event scheduler at the heart
// of the discrete-event simulator.
//
// Events are ordered by firing time with a monotonically increasing sequence
// number breaking ties, so two events scheduled for the same instant always
// fire in the order they were scheduled. This makes entire simulation runs
// reproducible from a seed.
//
// The scheduler is built for the simulator's hot loop. Nearly every event is
// created in time order by the handler that scheduled the previous one of its
// kind (a port's next transmission completion, a link's next delivery), so
// each typed handler already produces a sorted run. The queue keeps those
// runs as per-handler FIFO lanes: a ScheduleCall/AfterCall event joins its
// handler's lane when its time is not earlier than the lane's tail, and only
// the lane heads plus the out-of-order events live in an inlined 4-ary heap
// (no container/heap interface boxing). When a lane head fires, its
// successor replaces it at the root with one sift-down. Within a lane time
// never decreases and the sequence number always increases, so the heap
// root is still the global minimum by (time, seq) and the firing order is
// exactly that of a single heap holding every event. The closure form stays
// heap-only.
//
// Event structs are recycled through a per-queue free list (steady-state
// Schedule/Step perform zero allocations), and cancellation is lazy: Cancel
// marks the event dead in place, and its heap slot or lane position is
// reclaimed when it surfaces at the root, avoiding O(log n) mid-heap removal.
// Callers hold Timer handles rather than raw event pointers: a generation
// counter makes handles to fired, canceled, or recycled events permanently
// inert, so the free list can reuse memory without use-after-fire hazards.
//
// Two scheduling forms are offered. Schedule/After take a plain closure and
// are right for cold paths: the closure itself is a caller-side heap
// allocation. ScheduleCall/AfterCall take a two-word payload — a static
// func(a0, a1 any) plus two argument cells stored inline in the recycled
// event struct — so hot paths (one event per frame transmission, one per
// link delivery) schedule bound work with zero allocations, provided the
// arguments are pointers (interface conversion of a pointer does not
// allocate). A lane is keyed by the handler's code pointer, read straight
// from the func value (the word reflect.Value.Pointer returns, without
// reflect).
//
// A pure delay — a value that only becomes visible some time later, with
// nothing to do at that instant — needs no event at all. TicketAt reserves
// the place in the firing order that such an event would take: it draws the
// tie-breaking sequence number exactly as a Schedule would, so every other
// event keeps its order. Due then reports whether an event in that place
// would already have fired, and the owner applies the delayed value lazily
// at its next read.
//
// A run of events whose effects an owner can compute in closed form — a
// periodic stream on an otherwise idle link — need not be dispatched one at
// a time either. Inside a RunUntil or RunBefore window, Horizon reports how
// far the queue holds nothing but the owner's own events; the owner draws
// as many tie-breaking numbers as the replayed events would have
// (AddReplayed), and re-enters the stream's next event at a ticket of its
// own with ScheduleCallAt. Fired counts only dispatched events; Fired plus
// Replayed is the count a run without the replay would have dispatched.
package eventq

import (
	"fmt"
	"math"
	"sort"
	"unsafe"
)

// event is one queue entry. Instances are owned by the queue and recycled
// through its free list; external code only ever sees Timer handles.
type event struct {
	at  int64 // firing time, ns
	seq uint64
	fn  func()
	// Typed form (ScheduleCall): fn2 with its two inline argument cells.
	// Exactly one of fn and fn2 is set on a live event; both nil marks a
	// fired or lazily-canceled entry awaiting recycling.
	fn2    func(a0, a1 any)
	a0, a1 any
	gen    uint64 // bumped on fire/cancel, invalidating outstanding Timers
	lane   *lane  // owning lane, nil for a heap-only event
	next   *event // free-list link
}

// dead reports whether the event has fired or been canceled and is only
// waiting to surface for recycling.
func (e *event) dead() bool { return e.fn == nil && e.fn2 == nil }

// Timer is a handle to a scheduled event, returned by Schedule and After.
// The zero Timer is valid and behaves as already-fired. Timers are values:
// copy them freely, compare to detect the same scheduling, and discard
// without cleanup.
type Timer struct {
	e   *event
	gen uint64
}

// Canceled reports whether the timer's event was canceled or has already
// fired (including the window inside its own callback).
func (t Timer) Canceled() bool { return t.e == nil || t.e.gen != t.gen }

// At returns the event's firing time in nanoseconds, or 0 for a timer that
// is no longer pending.
func (t Timer) At() int64 {
	if t.Canceled() {
		return 0
	}
	return t.e.at
}

// laneBits sizes the per-queue lane table: 64 slots, far more than the
// distinct typed handlers a simulation uses.
const laneBits = 6

const laneSlots = 1 << laneBits

// lane is one handler's sorted run: evs[head:] in (at, seq) order. While the
// lane is non-empty its head, evs[head], is also in the heap; the rest wait
// here until they become the head.
type lane struct {
	key  uintptr // handler code pointer, 0 for a free slot
	evs  []*event
	head int
}

// pop drops the lane's head and returns its successor, or nil once the lane
// is empty. A drained prefix is compacted away once it dominates the slice,
// so steady-state lanes recycle one backing array.
func (l *lane) pop() *event {
	l.evs[l.head] = nil
	l.head++
	if l.head == len(l.evs) {
		l.evs = l.evs[:0]
		l.head = 0
		return nil
	}
	if l.head > 64 && l.head*2 > len(l.evs) {
		n := copy(l.evs, l.evs[l.head:])
		clear(l.evs[n:])
		l.evs = l.evs[:n]
		l.head = 0
	}
	return l.evs[l.head]
}

// Queue is a time-ordered event queue. The zero value is ready to use.
// Queue is not safe for concurrent use; a simulation run is single-threaded
// by design (independent queues may run on concurrent goroutines — the
// sharded engine in internal/simnet runs one Queue per topology shard).
type Queue struct {
	h      []*event // heap: lane heads and out-of-order events
	free   *event
	now    int64
	nexts  uint64
	nfired uint64
	live   int // scheduled and neither canceled nor fired
	// bound is the firing-order boundary at now: a ticket for now is due
	// when its seq is below it. Firing an event sets it to that event's
	// seq; a RunUntil that reaches its deadline sets it to nexts, and a
	// RunBefore that reaches its limit to 0.
	bound uint64

	// shard is the owning shard's id plus one when the queue belongs to a
	// parallel-engine shard (SetShard), zero for a standalone global queue.
	// The Drain-panic diagnostics include it so a panic inside one shard of a
	// parallel run names the shard and its local clock instead of
	// masquerading as a single global queue.
	shard int

	// OnBudgetExceeded, if set, observes the queue diagnostics just before
	// Drain panics on budget exhaustion — the flight-recorder hook, letting
	// a run dump its trace ring and metrics snapshot before dying.
	OnBudgetExceeded func(diag string)

	// stop is the end of the active RunUntil or RunBefore window,
	// exclusive: no event at or after it fires before the run returns.
	// inRun is false under a bare Step or Drain.
	stop  int64
	inRun bool
	// hz is Horizon's reusable search frontier.
	hz        []hzNode
	nreplayed uint64 // events replayed in closed form (AddReplayed)

	// lanes is the per-handler lane table (see laneFor), open-addressed by
	// code pointer. It sits last so the hot fields above share cache lines.
	lanes [laneSlots]lane
}

// SetShard marks the queue as owned by shard id of a parallel engine; the
// id and the shard's local clock then appear in Drain-panic diagnostics.
func (q *Queue) SetShard(id int) { q.shard = id + 1 }

// Shard returns the owning shard id set by SetShard, or -1 for a
// standalone (single global queue) simulation.
func (q *Queue) Shard() int { return q.shard - 1 }

// Now returns the current simulated time in nanoseconds: the firing time of
// the most recently dispatched event.
func (q *Queue) Now() int64 { return q.now }

// Len returns the number of pending (live) events.
func (q *Queue) Len() int { return q.live }

// Fired returns the total number of events dispatched so far. Events an
// owner replayed in closed form are not dispatched; Replayed counts them.
func (q *Queue) Fired() uint64 { return q.nfired }

// Replayed returns the number of events owners reported as replayed in
// closed form instead of dispatched (AddReplayed).
func (q *Queue) Replayed() uint64 { return q.nreplayed }

// AddReplayed records events whose effects the caller applied in closed
// form, and consumes draws tie-breaking numbers as that many TicketAt calls
// would: the numbers the replayed events' own schedulings drew. The numbers
// of the events the caller re-enters with ScheduleCallAt it draws itself
// with TicketAt, after this call, in the order their schedulings would
// have drawn them. Which of the replay's numbers each re-entered event
// holds cannot change the firing order: every event scheduled before the
// replay precedes them all, every one scheduled after follows them all.
func (q *Queue) AddReplayed(events, draws int) {
	q.nreplayed += uint64(events)
	q.nexts += uint64(draws)
}

// Schedule enqueues fn to run at absolute time at (ns). Scheduling in the
// past (before Now) panics: it always indicates a logic error in the caller,
// and silently reordering time would corrupt the simulation.
func (q *Queue) Schedule(at int64, fn func()) Timer {
	e := q.alloc(at)
	e.fn = fn
	q.push(e)
	return Timer{e: e, gen: e.gen}
}

// ScheduleCall enqueues fn(a0, a1) to run at absolute time at (ns). This is
// the zero-allocation form: fn should be a static function (not a closure
// built at the call site) and a0/a1 pointers, so the only state is the two
// inline cells of the recycled event struct. Ordering is identical to
// Schedule: both draw from the same tie-breaking sequence.
func (q *Queue) ScheduleCall(at int64, fn func(a0, a1 any), a0, a1 any) Timer {
	e := q.alloc(at)
	e.fn2 = fn
	e.a0, e.a1 = a0, a1
	if l := q.laneFor(fn); l != nil {
		if n := len(l.evs); n == l.head || at >= l.evs[n-1].at {
			e.lane = l
			l.evs = append(l.evs, e)
			if n > l.head {
				// Behind the tail: the heap sees e only once it heads the lane.
				return Timer{e: e, gen: e.gen}
			}
		}
	}
	q.push(e)
	return Timer{e: e, gen: e.gen}
}

// After enqueues fn to run d nanoseconds after Now.
func (q *Queue) After(d int64, fn func()) Timer {
	if d < 0 {
		panic("eventq: negative delay")
	}
	return q.Schedule(q.now+d, fn)
}

// AfterCall enqueues fn(a0, a1) to run d nanoseconds after Now; the typed,
// zero-allocation counterpart of After.
func (q *Queue) AfterCall(d int64, fn func(a0, a1 any), a0, a1 any) Timer {
	if d < 0 {
		panic("eventq: negative delay")
	}
	return q.ScheduleCall(q.now+d, fn, a0, a1)
}

// Ticket is a place in the firing order, reserved by TicketAt without
// scheduling an event.
type Ticket struct {
	at  int64
	seq uint64
}

// Less reports whether t comes before u in the firing order: earlier time
// first, then earlier reservation.
func (t Ticket) Less(u Ticket) bool {
	if t.at != u.at {
		return t.at < u.at
	}
	return t.seq < u.seq
}

// TicketAt reserves the place an event scheduled at absolute time at (ns)
// would take, drawing its tie-breaking sequence number exactly as Schedule
// does, so every later event keeps the seq it would have had. Reserving in
// the past panics, as scheduling there does.
func (q *Queue) TicketAt(at int64) Ticket {
	if at < q.now {
		panic("eventq: ticket into the past")
	}
	t := Ticket{at: at, seq: q.nexts}
	q.nexts++
	return t
}

// Due reports whether an event scheduled in t's place would have fired by
// now. Inside a callback that means t lies before the dispatched event;
// between Steps, before the last fired one; after RunUntil(d), at or before
// d for any ticket reserved before the call; after RunBefore(l), strictly
// before l.
func (q *Queue) Due(t Ticket) bool {
	return t.at < q.now || t.at == q.now && t.seq < q.bound
}

// ScheduleCallAt enqueues fn(a0, a1) in the place t reserved: the event
// fires exactly where one scheduled by the TicketAt call that drew t would
// have. Its seq is older than any lane tail, so it always takes the heap.
// Each ticket may be used once; one already due panics, since its place in
// the firing order has passed.
func (q *Queue) ScheduleCallAt(t Ticket, fn func(a0, a1 any), a0, a1 any) Timer {
	if q.Due(t) {
		panic("eventq: scheduling at a ticket already due")
	}
	e := q.get()
	e.at, e.seq = t.at, t.seq
	e.fn2 = fn
	e.a0, e.a1 = a0, a1
	q.push(e)
	return Timer{e: e, gen: e.gen}
}

// alloc pops a recycled event (or allocates one) for time at and stamps it
// with the next tie-breaking sequence number; the caller enters it into a
// lane or the heap.
func (q *Queue) alloc(at int64) *event {
	if at < q.now {
		panic("eventq: scheduling into the past")
	}
	e := q.get()
	e.at = at
	e.seq = q.nexts
	q.nexts++
	return e
}

// get pops a recycled event, or allocates one, and counts it live.
func (q *Queue) get() *event {
	e := q.free
	if e != nil {
		q.free = e.next
		e.next = nil
	} else {
		e = &event{}
	}
	q.live++
	return e
}

// laneKey returns fn's code pointer: a func value points at a closure
// record whose first word is the code address. It is the value
// reflect.ValueOf(fn).Pointer() returns, without reflect's cost.
func laneKey(fn func(a0, a1 any)) uintptr {
	return **(**uintptr)(unsafe.Pointer(&fn))
}

// laneFor returns fn's lane, claiming a free slot on first use, or nil when
// the table has no room for it. The key is the handler's code pointer, so
// closures sharing one body share a lane; that is only a performance hint,
// since an event joins a lane solely on the tail check in ScheduleCall.
func (q *Queue) laneFor(fn func(a0, a1 any)) *lane {
	key := laneKey(fn)
	i := uint64(key) * 0x9E3779B97F4A7C15 >> (64 - laneBits)
	for range laneSlots {
		l := &q.lanes[i]
		if l.key == key {
			return l
		}
		if l.key == 0 {
			l.key = key
			return l
		}
		i = (i + 1) & (laneSlots - 1)
	}
	return nil
}

// Cancel removes a pending event. Canceling a fired or already-canceled
// event is a no-op, so callers can cancel unconditionally. Cancellation is
// lazy: the entry stays in its lane or the heap until it surfaces at the
// root, then is recycled without firing.
func (q *Queue) Cancel(t Timer) {
	e := t.e
	if e == nil || e.gen != t.gen {
		return
	}
	e.gen++
	e.fn = nil
	e.fn2 = nil
	e.a0, e.a1 = nil, nil
	q.live--
}

// Step fires the earliest pending event and returns true, or returns false
// if no live events remain.
func (q *Queue) Step() bool {
	e := q.peek()
	if e == nil {
		return false
	}
	q.fire(e)
	return true
}

// RunUntil fires events until the queue is empty or the next event is after
// deadline. Time advances to deadline if the queue drains earlier events
// first; Now never exceeds deadline on return unless it already did.
func (q *Queue) RunUntil(deadline int64) {
	stop, inRun := q.stop, q.inRun
	q.stop, q.inRun = deadline, true
	if deadline < math.MaxInt64 {
		q.stop++
	}
	for e := q.peek(); e != nil && e.at <= deadline; e = q.peek() {
		q.fire(e)
	}
	q.stop, q.inRun = stop, inRun
	if q.now <= deadline {
		q.now = deadline
		q.bound = q.nexts
	}
}

// RunBefore fires every event strictly before limit in one batched pass and
// advances Now to limit. It is the shard-window primitive of the parallel
// engine: a shard executes all events inside its lookahead-safe window
// [Now, limit) with a single tight loop. On return Now == limit (the
// window's end), so the next window's cross-shard arrivals, all stamped at
// or after limit by the lookahead guarantee, can be scheduled without time
// running backwards. It returns the number of events fired.
func (q *Queue) RunBefore(limit int64) int {
	stop, inRun := q.stop, q.inRun
	q.stop, q.inRun = limit, true
	fired := 0
	for e := q.peek(); e != nil && e.at < limit; e = q.peek() {
		q.fire(e)
		fired++
	}
	q.stop, q.inRun = stop, inRun
	if q.now < limit {
		q.now = limit
		q.bound = 0
	}
	return fired
}

// NextAt reports the firing time of the earliest pending event. ok is false
// when no live events remain. Real-time executors (internal/live) use it to
// set their wall-clock wakeup; the discrete-event Run/Drain loops never need
// it. Lazily-canceled entries are purged so the answer is exact.
func (q *Queue) NextAt() (at int64, ok bool) {
	e := q.peek()
	if e == nil {
		return 0, false
	}
	return e.at, true
}

// hzNode is one entry of Horizon's search frontier: heap slot i, or index i
// of lane l's events when l is set.
type hzNode struct {
	e *event
	i int
	l *lane
}

// Horizon reports how far the active run may be replayed past the events in
// skip: the firing time of the earliest live event not in skip, capped by
// the end of the RunUntil or RunBefore window (exclusive: deadline+1 for
// RunUntil, the limit for RunBefore). ok is false outside such a window —
// under a bare Step or Drain — where nothing bounds a replay. The search
// is best-first from the heap root: an entry is expanded into its heap
// children and lane successor only while it is dead or skipped and earlier
// than the best answer so far.
func (q *Queue) Horizon(skip ...Timer) (at int64, ok bool) {
	if !q.inRun {
		return 0, false
	}
	best := q.stop
	e := q.peek()
	if e == nil {
		return best, true
	}
	fr := append(q.hz[:0], hzNode{e: e})
	for len(fr) > 0 {
		m := 0
		for k := 1; k < len(fr); k++ {
			if less(fr[k].e, fr[m].e) {
				m = k
			}
		}
		n := fr[m]
		fr[m] = fr[len(fr)-1]
		fr = fr[:len(fr)-1]
		if n.e.at >= best {
			break
		}
		if !n.e.dead() && !skipped(n.e, skip) {
			best = n.e.at
			break
		}
		if l := n.l; l != nil {
			if n.i+1 < len(l.evs) {
				fr = append(fr, hzNode{e: l.evs[n.i+1], i: n.i + 1, l: l})
			}
			continue
		}
		for c := 4*n.i + 1; c < min(4*n.i+5, len(q.h)); c++ {
			fr = append(fr, hzNode{e: q.h[c], i: c})
		}
		if l := n.e.lane; l != nil && l.head+1 < len(l.evs) {
			// A heap entry in a lane is its head; the rest wait behind it.
			fr = append(fr, hzNode{e: l.evs[l.head+1], i: l.head + 1, l: l})
		}
	}
	clear(fr)
	q.hz = fr[:0]
	return best, true
}

// skipped reports whether e is the pending event of one of the timers.
func skipped(e *event, skip []Timer) bool {
	for _, t := range skip {
		if t.e == e && t.gen == e.gen {
			return true
		}
	}
	return false
}

// Drain fires events until none remain. maxEvents bounds runaway
// simulations: Drain panics if it fires more than maxEvents events
// (use <=0 for no bound). The panic message carries queue diagnostics —
// current sim time, pending event count, the next few deadlines — so a
// non-quiescing run (e.g. a chaos scenario that left a replenishing
// queue alive) can be debugged from the failure alone.
func (q *Queue) Drain(maxEvents int64) {
	var n int64
	for q.Step() {
		n++
		if maxEvents > 0 && n > maxEvents {
			diag := q.diagnose(5)
			if q.OnBudgetExceeded != nil {
				q.OnBudgetExceeded(diag)
			}
			panic(fmt.Sprintf(
				"eventq: event budget %d exceeded; simulation is likely not quiescing (%s)",
				maxEvents, diag))
		}
	}
}

// diagnose summarizes queue state for the Drain panic: the current time,
// how many live events are pending, and the earliest k deadlines across the
// heap and every lane. A queue owned by a parallel-engine shard (SetShard)
// leads with the shard id and labels the time as that shard's local clock —
// under the sharded engine there is no single global queue for the old
// message to describe.
func (q *Queue) diagnose(k int) string {
	next := make([]int64, 0, q.live)
	for _, e := range q.h {
		if e.lane == nil && !e.dead() { // lane heads are counted with their lane
			next = append(next, e.at)
		}
	}
	for i := range q.lanes {
		l := &q.lanes[i]
		for _, e := range l.evs[l.head:] {
			if !e.dead() {
				next = append(next, e.at)
			}
		}
	}
	sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
	if len(next) > k {
		next = next[:k]
	}
	if q.shard > 0 {
		return fmt.Sprintf("shard %d: shard clock=%dns, %d live events, next deadlines (ns): %v",
			q.shard-1, q.now, q.live, next)
	}
	return fmt.Sprintf("now=%dns, %d live events, next deadlines (ns): %v",
		q.now, q.live, next)
}

// peek returns the earliest live event, left in place at the heap root, or
// nil when none remain. Lazily-canceled entries surfacing at the root on the
// way are recycled.
func (q *Queue) peek() *event {
	for len(q.h) > 0 {
		e := q.h[0]
		if !e.dead() {
			return e
		}
		q.popRoot()
		q.recycle(e)
	}
	return nil
}

// fire removes e, the live root returned by peek, advances Now to its time
// and dispatches it.
func (q *Queue) fire(e *event) {
	q.popRoot()
	q.now = e.at
	q.bound = e.seq
	fn, fn2, a0, a1 := e.fn, e.fn2, e.a0, e.a1
	e.fn = nil
	e.fn2 = nil
	e.a0, e.a1 = nil, nil
	e.gen++
	q.live--
	q.nfired++
	// Recycle before dispatch: fn may Schedule and immediately reuse
	// this slot, which is safe now that the generation has advanced.
	q.recycle(e)
	if fn2 != nil {
		fn2(a0, a1)
	} else {
		fn()
	}
}

func (q *Queue) recycle(e *event) {
	e.next = q.free
	q.free = e
}

// ------------------------------------------------- inlined 4-ary heap ----
//
// A 4-ary layout halves the tree depth of a binary heap, trading slightly
// wider sift-down scans for fewer cache-missing levels. Comparisons are
// direct field reads; there is no interface dispatch anywhere on the
// push/pop path.

// less orders events by (at, seq): time first, scheduling order on ties.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push enters e into the heap.
func (q *Queue) push(e *event) {
	q.h = append(q.h, e)
	h := q.h
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !less(e, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// popRoot removes h[0], restoring heap order. A lane head is replaced by its
// lane successor, which can only sift down; any other root is replaced by
// the heap's last element.
func (q *Queue) popRoot() {
	e := q.h[0]
	if l := e.lane; l != nil {
		e.lane = nil
		if next := l.pop(); next != nil {
			q.siftDown(next)
			return
		}
	}
	n := len(q.h) - 1
	last := q.h[n]
	q.h[n] = nil
	q.h = q.h[:n]
	if n > 0 {
		q.siftDown(last)
	}
}

// siftDown places e, the root's replacement, into the heap from the root.
func (q *Queue) siftDown(e *event) {
	h := q.h
	n := len(h)
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		// Smallest of up to four children.
		end := min(c+4, n)
		m := c
		for k := c + 1; k < end; k++ {
			if less(h[k], h[m]) {
				m = k
			}
		}
		if !less(h[m], e) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = e
}
