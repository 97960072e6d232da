package simnet

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"

	"linkguardian/internal/parallel"
	"linkguardian/internal/simtime"
)

// This file implements the conservative parallel discrete-event engine
// (DESIGN.md §11). A topology is partitioned into shards, each a complete
// Sim with its own event queue and RNG stream; shards are joined only by
// cross-shard links whose propagation delay bounds how soon one shard can
// affect another — the Chandy–Misra lookahead condition. The engine runs
// all shards through synchronized windows of that lookahead length and
// exchanges frames between shards at window barriers.
//
// Determinism contract (mirrors internal/parallel): the partition — shard
// count, node placement, per-shard seeds — is part of the topology, fixed
// by the scenario builder. The worker count only caps how many shards
// execute concurrently; within a window shards are causally independent,
// and the barrier applies handoffs in a canonical order, so the merged
// output is a function of (topology, seed) alone — byte-identical at any
// worker setting.

// outboxCap bounds an outbox's channel; a window producing more handoffs
// than this spills to an overflow slice on the sending shard's goroutine,
// preserving FIFO order (once the channel is full it stays full until the
// barrier drains it).
const outboxCap = 1024

// xcell is a pooled cross-shard handoff cell: a frame copied out of the
// sending shard's packet pool, stamped with its arrival time on the
// sender's clock. Cells are recycled to their owning outbox's free list at
// the barrier, so steady-state handoffs allocate nothing.
type xcell struct {
	at        int64 // arrival time: sender's clock + link delay
	to        *Ifc  // receiving interface, owned by the destination shard
	corrupted bool
	pkt       Packet  // value copy; pool bookkeeping reset on materialization
	own       *outbox // free list this cell returns to
	next      *xcell  // free-list link
}

// outbox carries frames from one shard to another, one direction of one
// (src, dst) shard pair (shared by all cross links between that pair). The
// sending shard's worker pushes during a window; the single-threaded
// barrier drains, materializes and recycles between windows. The two
// phases alternate under the barrier's happens-before, so only the bounded
// channel needs to be concurrency-safe.
type outbox struct {
	src, dst int
	ch       chan *xcell
	overflow []*xcell
	free     *xcell
}

// send copies pkt into a pooled cell bound for the peer shard and releases
// the original to the sender's pool. Runs on the sending shard's
// goroutine; called from Link.deliver after the corruption verdict and
// taps, so the receiving shard sees exactly what an intra-shard link would
// have delivered.
func (ob *outbox) send(src *Sim, pkt *Packet, to *Ifc, delay int64, corrupted bool) {
	c := ob.free
	if c != nil {
		ob.free = c.next
	} else {
		c = &xcell{own: ob}
	}
	c.at = int64(src.Now()) + delay
	c.to = to
	c.corrupted = corrupted
	c.pkt = *pkt
	c.pkt.next = nil
	c.next = nil
	src.Release(pkt)
	select {
	case ob.ch <- c:
	default:
		ob.overflow = append(ob.overflow, c)
	}
}

// ShardStats are one shard's window-execution counters, exposed for
// obs registration and diagnostics. All fields are written only by the
// shard's own worker or the barrier; read them after Run returns.
type ShardStats struct {
	Windows  uint64 // lookahead windows executed
	Stalls   uint64 // windows that fired no events (lookahead stall)
	Handoffs uint64 // frames sent to other shards
	Recv     uint64 // frames materialized from other shards
	MaxDepth int    // peak event-queue depth at window boundaries
}

// Shard is one partition of the topology: a full Sim plus the engine's
// bookkeeping around it.
type Shard struct {
	Sim *Sim
	id  int

	out []*outbox // outboxes this shard sends on
	in  []*outbox // outboxes targeting this shard, ordered by src id

	scratch []*xcell // barrier staging, reused across windows

	stats     ShardStats
	lastFired uint64 // Q.Fired() at last window boundary
}

// ID returns the shard's index within its engine.
func (s *Shard) ID() int { return s.id }

// Stats returns a snapshot of the shard's execution counters.
func (s *Shard) Stats() ShardStats { return s.stats }

// workerPanic carries a panic out of a shard worker so the coordinator can
// re-raise it with shard context instead of killing the process from a
// bare goroutine.
type workerPanic struct {
	shard int
	val   any
}

type windowCmd struct {
	limit     int64
	inclusive bool
}

// Engine runs a sharded topology. Build one with NewEngine, place nodes by
// constructing them against each shard's Sim, join shards with
// Engine.Connect, then drive simulated time with Engine.Run.
//
// Restrictions on cross-shard links: taps, FaultFn, DropFn and loss models
// are evaluated on the sending side (so chaos fault injection and tracing
// on a cross link would race between the two directions' workers — keep
// faulted and traced links shard-internal); LinkGuardian protection
// (core.Protect) likewise attaches to one side's event queue and must stay
// shard-internal.
type Engine struct {
	shards    []*Shard
	lookahead int64 // min cross-link delay (ns); 0 while no cross links
	now       int64 // committed barrier time; all shard clocks equal it

	workers int
	started bool
	closed  bool
	cmd     []chan windowCmd
	done    chan *workerPanic
}

// NewEngine creates n empty shards. Shard i's Sim is seeded with
// parallel.SeedFor(seed, i), so a 1-shard engine reproduces
// NewSim(parallel.SeedFor(seed, 0)) exactly and an n-shard topology is
// reproducible from (seed, partition) alone.
func NewEngine(seed int64, n int) *Engine {
	if n < 1 {
		n = 1
	}
	e := &Engine{shards: make([]*Shard, n), workers: parallel.Workers()}
	for i := range e.shards {
		s := NewSim(parallel.SeedFor(seed, i))
		s.Q.SetShard(i)
		e.shards[i] = &Shard{Sim: s, id: i}
	}
	return e
}

// SetWorkers caps how many shards execute concurrently. It must be called
// before the first Run. The setting never changes results — only wall
// time. n <= 1 runs every window inline on the caller's goroutine.
func (e *Engine) SetWorkers(n int) {
	if e.started {
		panic("simnet: SetWorkers after Engine.Run")
	}
	e.workers = n
}

// Shards returns the number of shards.
func (e *Engine) Shards() int { return len(e.shards) }

// Shard returns shard i.
func (e *Engine) Shard(i int) *Shard { return e.shards[i] }

// Now returns the committed simulation time (every shard's clock agrees
// between Run calls).
func (e *Engine) Now() simtime.Time { return simtime.Time(e.now) }

// Connect joins node a in shard ai to node b in shard bi. Within one shard
// it is exactly simnet.Connect. Across shards the link's propagation delay
// must be positive — it is the causal gap that makes parallel execution
// safe — and becomes a candidate for the engine's lookahead window.
func (e *Engine) Connect(ai int, a Node, bi int, b Node, rate simtime.Rate, delay simtime.Duration) *Link {
	if ai == bi {
		return Connect(e.shards[ai].Sim, a, b, rate, delay)
	}
	if delay <= 0 {
		panic("simnet: cross-shard link requires positive propagation delay (lookahead bound)")
	}
	l := newLink(e.shards[ai].Sim, e.shards[bi].Sim, a, b, rate, delay)
	l.xab = e.outboxFor(ai, bi)
	l.xba = e.outboxFor(bi, ai)
	if e.lookahead == 0 || int64(delay) < e.lookahead {
		e.lookahead = int64(delay)
	}
	return l
}

// outboxFor returns the (src, dst) outbox, creating it on first use and
// splicing it into dst's inbox list in src-id order — the canonical drain
// order that keeps barriers deterministic.
func (e *Engine) outboxFor(src, dst int) *outbox {
	s := e.shards[src]
	for _, ob := range s.out {
		if ob.dst == dst {
			return ob
		}
	}
	ob := &outbox{src: src, dst: dst, ch: make(chan *xcell, outboxCap)}
	s.out = append(s.out, ob)
	d := e.shards[dst]
	pos := len(d.in)
	for i, x := range d.in {
		if x.src > src {
			pos = i
			break
		}
	}
	d.in = append(d.in, nil)
	copy(d.in[pos+1:], d.in[pos:])
	d.in[pos] = ob
	return ob
}

// Run advances every shard to simulated time until (inclusive, matching
// Sim.Run). Execution proceeds in lookahead windows: all shards fire their
// events in [T, T+L) concurrently — safe because a cross-shard frame sent
// at t arrives at t+delay >= T+L — then a barrier materializes the
// window's handoffs and time commits to T+L.
func (e *Engine) Run(until simtime.Time) {
	if e.closed {
		panic("simnet: Run on closed Engine")
	}
	u := int64(until)
	for e.now < u {
		limit := u
		inclusive := true
		if e.lookahead > 0 && e.now+e.lookahead < u {
			limit = e.now + e.lookahead
			inclusive = false
		}
		e.window(limit, inclusive)
		e.now = limit
	}
	// The final barrier can schedule arrivals at exactly u (a frame sent at
	// u-lookahead on a minimum-delay link). Run's inclusive contract covers
	// them; their own handoffs land strictly after u, so one extra pass per
	// round of arrivals converges.
	for e.pendingAt(u) {
		e.window(u, true)
	}
}

// RunFor advances all shards by d.
func (e *Engine) RunFor(d simtime.Duration) { e.Run(e.Now().Add(d)) }

func (e *Engine) pendingAt(u int64) bool {
	for _, s := range e.shards {
		if at, ok := s.Sim.Q.NextAt(); ok && at <= u {
			return true
		}
	}
	return false
}

// window executes one synchronized window on all shards, then runs the
// handoff barrier.
func (e *Engine) window(limit int64, inclusive bool) {
	w := e.workers
	if w > len(e.shards) {
		w = len(e.shards)
	}
	if w <= 1 || len(e.shards) == 1 {
		for _, s := range e.shards {
			s.runWindow(limit, inclusive)
		}
	} else {
		e.start(w)
		cmd := windowCmd{limit: limit, inclusive: inclusive}
		for i := 0; i < len(e.cmd); i++ {
			e.cmd[i] <- cmd
		}
		var pan *workerPanic
		for range e.cmd {
			if p := <-e.done; p != nil && pan == nil {
				pan = p
			}
		}
		if pan != nil {
			panic(fmt.Sprintf("simnet: shard %d worker: %v", pan.shard, pan.val))
		}
	}
	e.barrier()
}

// runWindow fires one shard's events for the window and updates its
// counters. Runs on the shard's worker (or the coordinator inline).
func (s *Shard) runWindow(limit int64, inclusive bool) {
	s.stats.Windows++
	if inclusive {
		s.Sim.Q.RunUntil(limit)
	} else {
		s.Sim.Q.RunBefore(limit)
	}
	if f := s.Sim.Q.Fired(); f == s.lastFired {
		s.stats.Stalls++
	} else {
		s.lastFired = f
	}
	if d := s.Sim.Q.Len(); d > s.stats.MaxDepth {
		s.stats.MaxDepth = d
	}
}

// start lazily spawns the persistent worker pool. Shards are pinned
// statically — worker w owns shards w, w+n, w+2n, ... — so a shard's
// entire execution stays on one goroutine and profiles attribute cleanly.
func (e *Engine) start(n int) {
	if e.started {
		return
	}
	e.started = true
	e.cmd = make([]chan windowCmd, n)
	e.done = make(chan *workerPanic, n)
	for w := 0; w < n; w++ {
		e.cmd[w] = make(chan windowCmd, 1)
		go e.worker(w, n)
	}
}

// worker is one pinned shard executor. It labels itself for pprof so CPU
// profiles of a parallel run break down per worker and shard set.
func (e *Engine) worker(w, n int) {
	owned := ""
	for s := w; s < len(e.shards); s += n {
		if owned != "" {
			owned += ","
		}
		owned += strconv.Itoa(s)
	}
	labels := pprof.Labels("engine-worker", strconv.Itoa(w), "shards", owned)
	pprof.Do(context.Background(), labels, func(context.Context) {
		for cmd := range e.cmd[w] {
			e.done <- e.runOwned(w, n, cmd)
		}
	})
}

// runOwned executes one window on every shard pinned to worker w,
// converting a panic into a shard-attributed report for the coordinator.
func (e *Engine) runOwned(w, n int, cmd windowCmd) (pan *workerPanic) {
	cur := -1
	defer func() {
		if r := recover(); r != nil {
			pan = &workerPanic{shard: cur, val: r}
		}
	}()
	for s := w; s < len(e.shards); s += n {
		cur = s
		e.shards[s].runWindow(cmd.limit, cmd.inclusive)
	}
	return nil
}

// barrier moves the window's cross-shard frames into their destination
// shards. Single-threaded (workers are quiescent), and canonical: for each
// destination, sources drain in src-id order, then a stable sort by
// arrival time produces the (time, source, FIFO) order an omniscient
// sequential scheduler would have used. Materialized frames come from the
// destination pool; cells return to their owner's free list. Nothing
// allocates in steady state.
func (e *Engine) barrier() {
	for _, d := range e.shards {
		if len(d.in) == 0 {
			continue
		}
		cells := d.scratch[:0]
		for _, ob := range d.in {
			for {
				var c *xcell
				select {
				case c = <-ob.ch:
				default:
				}
				if c == nil {
					break
				}
				cells = append(cells, c)
			}
			cells = append(cells, ob.overflow...)
			ob.overflow = ob.overflow[:0]
		}
		// Stable insertion sort by arrival time: handoff batches are small
		// and nearly sorted, and sort.SliceStable would allocate.
		for i := 1; i < len(cells); i++ {
			c := cells[i]
			j := i - 1
			for j >= 0 && cells[j].at > c.at {
				cells[j+1] = cells[j]
				j--
			}
			cells[j+1] = c
		}
		for _, c := range cells {
			p := d.Sim.alloc()
			gen := p.gen
			*p = c.pkt
			p.gen = gen
			p.pooled = false
			p.next = nil
			p.ID = d.Sim.pktID()
			if c.corrupted {
				d.Sim.Q.ScheduleCall(c.at, deliverCorrupt, c.to, p)
			} else {
				d.Sim.Q.ScheduleCall(c.at, deliverOK, c.to, p)
			}
			d.stats.Recv++
			e.shards[c.own.src].stats.Handoffs++
			c.to = nil
			c.next = c.own.free
			c.own.free = c
		}
		d.scratch = cells[:0]
	}
}

// Close stops the worker pool. The engine must not be Run again. Close is
// idempotent and safe on an engine that never started workers.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	for _, c := range e.cmd {
		close(c)
	}
	e.cmd = nil
}
