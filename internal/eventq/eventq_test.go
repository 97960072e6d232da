package eventq

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// drain fires events until none remain.
func drain(q *Queue) {
	for q.Step() {
	}
}

func TestFIFOAtSameInstant(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		q.Schedule(100, func() { got = append(got, i) })
	}
	drain(&q)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events fired out of order: %v", got)
		}
	}
	if q.Now() != 100 {
		t.Fatalf("Now = %d, want 100", q.Now())
	}
}

func TestTimeOrdering(t *testing.T) {
	var q Queue
	rng := rand.New(rand.NewSource(1))
	times := make([]int64, 500)
	for i := range times {
		times[i] = rng.Int63n(10000)
	}
	var fired []int64
	for _, at := range times {
		at := at
		q.Schedule(at, func() { fired = append(fired, at) })
	}
	drain(&q)
	if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
		t.Fatal("events fired out of time order")
	}
	if len(fired) != len(times) {
		t.Fatalf("fired %d events, want %d", len(fired), len(times))
	}
}

func TestCancel(t *testing.T) {
	var q Queue
	fired := false
	e := q.Schedule(10, func() { fired = true })
	q.Cancel(e)
	q.Cancel(e)       // double-cancel is a no-op
	q.Cancel(Timer{}) // zero timer is inert
	drain(&q)
	if fired {
		t.Fatal("canceled event fired")
	}
	if !e.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	var q Queue
	var got []int64
	var evs []Timer
	for i := int64(0); i < 20; i++ {
		i := i
		evs = append(evs, q.Schedule(i, func() { got = append(got, i) }))
	}
	q.Cancel(evs[7])
	q.Cancel(evs[13])
	drain(&q)
	if len(got) != 18 {
		t.Fatalf("fired %d, want 18", len(got))
	}
	for _, v := range got {
		if v == 7 || v == 13 {
			t.Fatalf("canceled event %d fired", v)
		}
	}
}

func TestSchedulingFromCallback(t *testing.T) {
	var q Queue
	var order []string
	q.Schedule(5, func() {
		order = append(order, "a")
		q.After(3, func() { order = append(order, "c") })
		q.Schedule(6, func() { order = append(order, "b") })
	})
	drain(&q)
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if q.Now() != 8 {
		t.Fatalf("Now = %d, want 8", q.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	var q Queue
	q.Schedule(10, func() {})
	q.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling into the past did not panic")
		}
	}()
	q.Schedule(5, func() {})
}

func TestNegativeAfterPanics(t *testing.T) {
	var q Queue
	defer func() {
		if recover() == nil {
			t.Fatal("negative After did not panic")
		}
	}()
	q.After(-1, func() {})
}

func TestRunUntil(t *testing.T) {
	var q Queue
	var fired []int64
	for _, at := range []int64{10, 20, 30, 40} {
		at := at
		q.Schedule(at, func() { fired = append(fired, at) })
	}
	q.RunUntil(25)
	if len(fired) != 2 || q.Now() != 25 {
		t.Fatalf("after RunUntil(25): fired=%v now=%d", fired, q.Now())
	}
	if q.Len() != 2 {
		t.Fatalf("pending = %d, want 2", q.Len())
	}
	q.RunUntil(100)
	if len(fired) != 4 || q.Now() != 100 {
		t.Fatalf("after RunUntil(100): fired=%v now=%d", fired, q.Now())
	}
}

// A stale handle — held across its event's firing and the slot's reuse —
// must never cancel the successor event occupying the recycled slot.
func TestStaleHandleCannotCancelRecycledEvent(t *testing.T) {
	var q Queue
	stale := q.Schedule(1, func() {})
	if !q.Step() {
		t.Fatal("no event fired")
	}
	if !stale.Canceled() {
		t.Fatal("handle still live after firing")
	}
	fired := false
	fresh := q.Schedule(2, func() { fired = true }) // reuses the freed slot
	q.Cancel(stale)                                 // must be a no-op
	if fresh.Canceled() {
		t.Fatal("stale Cancel killed the recycled event")
	}
	drain(&q)
	if !fired {
		t.Fatal("recycled event did not fire")
	}
}

func TestCanceledInsideOwnCallback(t *testing.T) {
	var q Queue
	var tm Timer
	var sawCanceled bool
	tm = q.Schedule(5, func() { sawCanceled = tm.Canceled() })
	drain(&q)
	if !sawCanceled {
		t.Fatal("timer not reported canceled inside its own callback")
	}
}

func TestLenExcludesLazilyCanceled(t *testing.T) {
	var q Queue
	a := q.Schedule(1, func() {})
	q.Schedule(2, func() {})
	q.Cancel(a)
	if q.Len() != 1 {
		t.Fatalf("Len = %d with one live and one canceled event, want 1", q.Len())
	}
	drain(&q)
	if q.Len() != 0 {
		t.Fatalf("Len = %d after drain", q.Len())
	}
}

// RunUntil must not let a lazily-canceled early event pull a live later
// event across the deadline.
func TestRunUntilSkipsCanceledRoot(t *testing.T) {
	var q Queue
	early := q.Schedule(10, func() {})
	fired := false
	q.Schedule(50, func() { fired = true })
	q.Cancel(early)
	q.RunUntil(20)
	if fired {
		t.Fatal("RunUntil(20) fired an event scheduled at 50")
	}
	if q.Now() != 20 {
		t.Fatalf("Now = %d, want 20", q.Now())
	}
	q.RunUntil(60)
	if !fired {
		t.Fatal("event at 50 never fired")
	}
}

// Steady-state Schedule/Step cycles must not allocate: the free list
// recycles event structs and the heap's backing array stops growing.
func TestScheduleStepZeroAllocsSteadyState(t *testing.T) {
	var q Queue
	fn := func() {}
	// Warm up: grow the heap slice and free list to working size.
	for i := 0; i < 64; i++ {
		q.Schedule(q.Now()+int64(i), fn)
	}
	drain(&q)
	allocs := testing.AllocsPerRun(10000, func() {
		q.Schedule(q.Now()+10, fn)
		q.Step()
	})
	if allocs != 0 {
		t.Fatalf("Schedule+Step allocates %.1f objects/op in steady state, want 0", allocs)
	}
}

// Schedule/Cancel churn is likewise allocation-free: lazy cancellation
// recycles entries as they surface.
func TestScheduleCancelZeroAllocsSteadyState(t *testing.T) {
	var q Queue
	fn := func() {}
	for i := 0; i < 64; i++ {
		q.Schedule(q.Now()+int64(i), fn)
	}
	drain(&q)
	allocs := testing.AllocsPerRun(10000, func() {
		tm := q.Schedule(q.Now()+10, fn)
		q.Cancel(tm)
		q.Schedule(q.Now()+5, fn)
		q.Step()
	})
	if allocs != 0 {
		t.Fatalf("Schedule+Cancel churn allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkEventQ measures the scheduler hot loop at a sustained backlog
// typical of a busy simulation (self-replenishing queues keep hundreds of
// events pending). Run with -benchmem; the free list keeps it at 0
// allocs/op.
func BenchmarkEventQ(b *testing.B) {
	var q Queue
	fn := func() {}
	const backlog = 512
	for i := 0; i < backlog; i++ {
		q.Schedule(int64(i), fn)
	}
	rng := rand.New(rand.NewSource(1))
	jitter := make([]int64, 1024)
	for i := range jitter {
		jitter[i] = rng.Int63n(1000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Schedule(q.Now()+jitter[i&1023], fn)
		q.Step()
	}
}

// BenchmarkEventQCancel adds the timer-churn pattern transports generate:
// most scheduled timers are canceled and rescheduled before firing.
func BenchmarkEventQCancel(b *testing.B) {
	var q Queue
	fn := func() {}
	const backlog = 256
	for i := 0; i < backlog; i++ {
		q.Schedule(int64(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var pending Timer
	for i := 0; i < b.N; i++ {
		q.Cancel(pending)
		pending = q.Schedule(q.Now()+500, fn)
		q.Schedule(q.Now()+100, fn)
		q.Step()
	}
}

// mixRig replays the event mix of the sim_clean testbed (one protected 100G
// link at line rate, 1500 B frames): each generated packet walks a chain of
// nine typed handlers with fixed delays, mixDelays[i] before handler i fires,
// so each handler's events arrive in time order and run in its own lane. The
// port stage also completes a short ACK frame after 7 ns for every third
// packet, before the data frames already queued on that handler: those take
// the heap. About 70 events are live in steady state, the rig's depth.
type mixRig struct {
	q    Queue
	fn   [len(mixDelays)]func(a0, a1 any)
	pkts int
}

// mixDelays are the testbed's per-hop delays (ns): generator interval, port
// serialization, link propagation, switch pipeline, the quantized sender
// flush, ACK view, host stack, and the two replenishing queues.
var mixDelays = [...]int64{124, 122, 100, 1000, 1346, 1500, 4000, 200, 200}

// mixAck marks a port completion that ends its chain.
var mixAck = new(int)

func newMixRig() *mixRig {
	r := &mixRig{}
	r.fn = [len(mixDelays)]func(a0, a1 any){
		func(a0, a1 any) { a0.(*mixRig).hop(0, a1) },
		func(a0, a1 any) { a0.(*mixRig).hop(1, a1) },
		func(a0, a1 any) { a0.(*mixRig).hop(2, a1) },
		func(a0, a1 any) { a0.(*mixRig).hop(3, a1) },
		func(a0, a1 any) { a0.(*mixRig).hop(4, a1) },
		func(a0, a1 any) { a0.(*mixRig).hop(5, a1) },
		func(a0, a1 any) { a0.(*mixRig).hop(6, a1) },
		func(a0, a1 any) { a0.(*mixRig).hop(7, a1) },
		func(a0, a1 any) { a0.(*mixRig).hop(8, a1) },
	}
	r.q.AfterCall(0, r.fn[0], r, nil)
	return r
}

// hop fires handler i of the chain and schedules the packet's next hop.
func (r *mixRig) hop(i int, a1 any) {
	if a1 == mixAck || i == len(mixDelays)-1 {
		return
	}
	next := i + 1
	if next == 4 { // the sender's flush is an AtCall quantized to the timer tick
		r.q.ScheduleCall((r.q.Now()+mixDelays[next]+99)/100*100, r.fn[next], r, nil)
	} else {
		r.q.AfterCall(mixDelays[next], r.fn[next], r, nil)
	}
	if i == 0 { // generator: re-arm; every third packet an ACK overtakes it on the port
		r.pkts++
		r.q.AfterCall(mixDelays[0], r.fn[0], r, nil)
		if r.pkts%3 == 0 {
			r.q.AfterCall(7, r.fn[1], r, mixAck)
		}
	}
}

// BenchmarkEventQTestbedMix measures ns per event on the testbed's real
// mix, where most events ride a lane and the heap holds only lane heads and
// the out-of-order ACK completions. BenchmarkEventQ and
// BenchmarkEventQCancel use the closure form, so they measure the heap path.
func BenchmarkEventQTestbedMix(b *testing.B) {
	r := newMixRig()
	r.q.RunUntil(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.q.Step()
	}
}

// Steady state on the testbed mix allocates nothing: lane slices grow
// during warm-up and are then compacted in place, and the heap fallback
// reuses the heap's array.
func TestTestbedMixZeroAllocsSteadyState(t *testing.T) {
	r := newMixRig()
	r.q.RunUntil(100_000)
	allocs := testing.AllocsPerRun(10000, func() { r.q.Step() })
	if allocs != 0 {
		t.Fatalf("testbed mix allocates %.1f objects/event in steady state, want 0", allocs)
	}
	if n, live := len(r.q.h), r.q.Len(); live < 60 || n*4 > live {
		t.Fatalf("%d of %d live events in the heap, want most of ~70 in lanes", n, live)
	}
	for i := range r.q.lanes {
		if l := &r.q.lanes[i]; cap(l.evs) > 256 {
			t.Fatalf("lane %d holds a %d-slot array: compaction is not reclaiming its fired prefix", i, cap(l.evs))
		}
	}
}

// Property: for any multiset of (time, id) insertions, the firing order is a
// stable sort by time.
func TestStableOrderProperty(t *testing.T) {
	f := func(times []uint8) bool {
		var q Queue
		type rec struct {
			at  int64
			seq int
		}
		var fired []rec
		for i, tt := range times {
			at, i := int64(tt), i
			q.Schedule(at, func() { fired = append(fired, rec{at, i}) })
		}
		drain(&q)
		want := make([]rec, len(times))
		for i, tt := range times {
			want[i] = rec{int64(tt), i}
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The typed two-word form must interleave with closure events in exact
// schedule order (both draw from the same tie-breaking sequence), deliver
// its operand cells, and report progress via Fired.
func TestTypedCallEventsOrderAndOperands(t *testing.T) {
	var q Queue
	var got []string
	type op struct{ name string }
	rec := func(a0, _ any) { got = append(got, a0.(*op).name) }
	q.ScheduleCall(10, rec, &op{"typed@10a"}, nil)
	q.Schedule(10, func() { got = append(got, "closure@10") })
	q.ScheduleCall(10, rec, &op{"typed@10b"}, nil)
	q.AfterCall(5, rec, &op{"typed@5"}, nil)
	drain(&q)
	want := []string{"typed@5", "typed@10a", "closure@10", "typed@10b"}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
	if q.Fired() != 4 {
		t.Fatalf("Fired() = %d, want 4", q.Fired())
	}
}

// AfterCall shares After's refusal of negative delays.
func TestNegativeAfterCallPanics(t *testing.T) {
	var q Queue
	defer func() {
		if recover() == nil {
			t.Fatal("AfterCall(-1) did not panic")
		}
	}()
	q.AfterCall(-1, func(a0, a1 any) {}, nil, nil)
}

// Timer.At exposes the pending deadline and zeroes once the event fires or
// is canceled — the introspection the PFC pause-expiry bookkeeping relies on.
func TestTimerAt(t *testing.T) {
	var q Queue
	fn := func(a0, a1 any) {}
	tm := q.ScheduleCall(25, fn, nil, nil)
	if tm.At() != 25 {
		t.Fatalf("pending At() = %d, want 25", tm.At())
	}
	q.Cancel(tm)
	if tm.At() != 0 {
		t.Fatalf("canceled At() = %d, want 0", tm.At())
	}
	tm2 := q.ScheduleCall(30, fn, nil, nil)
	drain(&q)
	if tm2.At() != 0 {
		t.Fatalf("fired At() = %d, want 0", tm2.At())
	}
}

// The typed form is the zero-allocation one: pointer operands convert to
// interface cells without heap escape, and event structs recycle.
func TestScheduleCallZeroAllocsSteadyState(t *testing.T) {
	var q Queue
	type payload struct{ n int }
	p := &payload{}
	fn := func(a0, _ any) { a0.(*payload).n++ }
	for i := 0; i < 64; i++ {
		q.ScheduleCall(q.Now()+int64(i), fn, p, nil)
	}
	drain(&q)
	allocs := testing.AllocsPerRun(10000, func() {
		q.ScheduleCall(q.Now()+10, fn, p, nil)
		q.Step()
	})
	if allocs != 0 {
		t.Fatalf("ScheduleCall+Step allocates %.1f objects/op in steady state, want 0", allocs)
	}
	if p.n == 0 {
		t.Fatal("typed handler never ran")
	}
}

// A ticket is due exactly when an event in its place would have fired: at
// its own instant that depends on its place against the dispatched event,
// on where RunUntil stopped, and on the last Step.
func TestTicketDue(t *testing.T) {
	var q Queue
	var inA, inB [2]bool
	var before, same Ticket
	q.Schedule(10, func() { inA = [2]bool{q.Due(before), q.Due(same)} })
	before = q.TicketAt(5)
	same = q.TicketAt(10) // after A, before B
	q.Schedule(10, func() { inB = [2]bool{q.Due(before), q.Due(same)} })
	q.Step()
	if inA != [2]bool{true, false} {
		t.Fatalf("inside A: Due(before, same) = %v, want [true false]", inA)
	}
	if q.Due(same) {
		t.Fatal("between Steps: a ticket behind the last fired event is due")
	}
	q.Step()
	if inB != [2]bool{true, true} {
		t.Fatalf("inside B: Due(before, same) = %v, want [true true]", inB)
	}

	// After RunUntil(d), every ticket reserved before the call with at <= d
	// is due; one reserved afterwards for d is not, until the next run.
	early, atD := q.TicketAt(15), q.TicketAt(20)
	q.RunUntil(20)
	if !q.Due(early) || !q.Due(atD) {
		t.Fatal("RunUntil(20) left a ticket at or before 20 not due")
	}
	late := q.TicketAt(20)
	if q.Due(late) {
		t.Fatal("a ticket reserved after RunUntil(20) for 20 is already due")
	}
	q.RunUntil(20)
	if !q.Due(late) {
		t.Fatal("a second RunUntil(20) did not pass the ticket reserved for 20")
	}

	edge := q.TicketAt(30)
	q.Schedule(30, func() {})
	q.Step()
	if !q.Due(edge) {
		t.Fatal("the ticket at 30 is not due after an event scheduled behind it fired")
	}
}

// Reserving a ticket draws the tie-breaking seq a Schedule would: events
// scheduled around it fire in the order they would around a real event.
func TestTicketKeepsTieOrder(t *testing.T) {
	var q Queue
	var got []int
	for i := range 4 {
		if i == 2 {
			q.TicketAt(7)
		}
		q.Schedule(7, func() { got = append(got, i) })
	}
	drain(&q)
	if !reflect.DeepEqual(got, []int{0, 1, 2, 3}) || q.Fired() != 4 || q.Len() != 0 {
		t.Fatalf("got %v, fired %d, len %d", got, q.Fired(), q.Len())
	}
}

func TestTicketAtPastPanics(t *testing.T) {
	var q Queue
	q.Schedule(10, func() {})
	q.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("a ticket into the past did not panic")
		}
	}()
	q.TicketAt(9)
}

type laneKeyRecv struct{ n int }

func (r *laneKeyRecv) handle(a0, a1 any) { r.n++ }

// The lane key is the code pointer reflect reports, for every form a typed
// handler can take.
func TestLaneKeyMatchesReflect(t *testing.T) {
	k := 3
	closure := func(a0, a1 any) { k++ }
	fns := map[string]func(a0, a1 any){
		"static":  func(a0, a1 any) {},
		"closure": closure,
		"method":  (&laneKeyRecv{}).handle,
	}
	for name, fn := range fns {
		if got, want := laneKey(fn), reflect.ValueOf(fn).Pointer(); got != want {
			t.Errorf("%s: laneKey = %#x, reflect = %#x", name, got, want)
		}
	}
}

// An event entered at a reserved ticket fires in the ticket's place, ahead
// of events scheduled for its instant after the reservation; a ticket whose
// place has passed is refused.
func TestScheduleCallAtKeepsTicketPlace(t *testing.T) {
	var q Queue
	var got []int
	rec := func(a0, _ any) { got = append(got, a0.(int)) }
	q.ScheduleCall(5, rec, 0, nil)
	tk := q.TicketAt(5)
	q.ScheduleCall(5, rec, 2, nil)
	q.ScheduleCallAt(tk, rec, 1, nil)
	drain(&q)
	if !reflect.DeepEqual(got, []int{0, 1, 2}) || q.Len() != 0 {
		t.Fatalf("fired %v, len %d; want [0 1 2], 0", got, q.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling at a ticket already due did not panic")
		}
	}()
	q.ScheduleCallAt(tk, rec, 3, nil)
}

// AddReplayed counts replayed events apart from dispatched ones, and its
// draws advance the tie-breaking sequence as TicketAt calls would.
func TestAddReplayedDrawsTieBreaks(t *testing.T) {
	var q, ref Queue
	q.AddReplayed(5, 3)
	for range 3 {
		ref.TicketAt(0)
	}
	if q.Replayed() != 5 || q.Fired() != 0 || q.TicketAt(0) != ref.TicketAt(0) {
		t.Fatalf("replayed %d, fired %d, next ticket %v; want 5, 0, %v",
			q.Replayed(), q.Fired(), q.TicketAt(0), ref.TicketAt(0))
	}
}

// Horizon answers only inside a run window: the earliest live event other
// than the skipped ones, or the window's end.
func TestHorizonWindow(t *testing.T) {
	var q Queue
	if _, ok := q.Horizon(); ok {
		t.Fatal("Horizon outside a run reported ok")
	}
	type probe struct {
		at int64
		ok bool
	}
	var got []probe
	var skip Timer
	q.Schedule(1, func() {
		at, ok := q.Horizon(skip)
		got = append(got, probe{at, ok})
	})
	skip = q.Schedule(4, func() {})
	dead := q.Schedule(5, func() {})
	q.Schedule(7, func() {})
	q.Cancel(dead)
	q.RunUntil(10)
	for _, at := range []int64{20, 22} {
		q.Schedule(at, func() {
			at, ok := q.Horizon()
			got = append(got, probe{at, ok})
		})
	}
	q.RunUntil(20)
	q.RunUntil(29)
	want := []probe{{7, true}, {21, true}, {30, true}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("horizons %v, want %v", got, want)
	}
}
