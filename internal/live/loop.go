// Package live is the real-time dataplane: it runs the LinkGuardian state
// machines of internal/core — unchanged — over real UDP sockets, so two OS
// processes (or two switch halves inside one process) form a protected
// link on an actual network path.
//
// The discrete-event simulator stays the engine. Each process owns a full
// simnet topology (app host, switch, wire-facing interface) whose event
// queue is pumped in real time by a Loop: the wall clock replaces the
// simulated clock, a time.Timer sleep replaces the run-to-completion
// drain, and the simnet Link.Carrier / Ifc.Receive boundary replaces
// in-sim propagation with datagrams on a socket. Because the protocol code
// reaches its scheduler only through the core.Runtime seam, not a line of
// the sender/receiver state machines differs between sim and live — the
// property the runtime-seam regression tests in internal/core pin down.
//
// Every live run, in one process (RunMulti) or split across two, drops
// corrupted frames where the testbed does, at the receiver's ingress MAC:
// Ifc.Receive runs the wire link's own simnet fault layer with the
// simulator's seeded loss models (Endpoint.CorruptIngress).
package live

import (
	"sync"
	"time"

	"linkguardian/internal/core"
	"linkguardian/internal/simnet"
	"linkguardian/internal/simtime"
)

// Loop drives one simnet topology in real time on a dedicated goroutine.
// Protocol time is nanoseconds of wall clock since Start, anchored with the
// monotonic clock; the queue's pending events fire when the wall clock
// passes their deadline, and between deadlines the loop sleeps on a
// time.Timer or wakes early for work injected by Do/Call.
//
// Concurrency contract: the embedded Sim — topology, packet pool, event
// queue, every core.Instance hung off it — is owned by the loop goroutine
// once Start is called. Build the topology before Start; afterwards, touch
// it only from functions passed to Do or Call. Sockets hand their datagrams
// across this boundary the same way: a Mux owns one Loop, shared by every
// link on its socket, and its read goroutine wakes that loop once per
// received batch.
type Loop struct {
	*simnet.Sim

	epoch time.Time
	do    chan func()
	quit  chan struct{}
	done  chan struct{}
	begin sync.Once
	stop  sync.Once
}

// The live loop satisfies the same runtime seam as the simulator.
var _ core.Runtime = (*Loop)(nil)

// NewLoop returns a stopped real-time loop around a fresh simulator. The
// simulator's RNG is never drawn: the protocol uses no randomness, and a
// live link's loss model draws from its own stream (corruptIngress).
func NewLoop() *Loop {
	return &Loop{
		Sim:  simnet.NewSim(0),
		do:   make(chan func(), 4096),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// Start anchors the clock at the current instant and begins pumping events
// on a new goroutine. Events already scheduled (an enabled instance's
// replenishing queues, a paced generator) fire from t≈0 onward. Later
// calls, and a call after Stop, do nothing.
func (l *Loop) Start() {
	l.begin.Do(func() {
		l.epoch = time.Now()
		go l.run()
	})
}

// Stop terminates the loop and waits for the loop goroutine to exit.
// Pending events do not fire; pending Do thunks are dropped. Safe to call
// more than once, and on a loop that was never started.
func (l *Loop) Stop() {
	l.stop.Do(func() { close(l.quit) })
	l.begin.Do(func() { close(l.done) })
	<-l.done
}

// Do hands fn to the loop goroutine for execution at the next wakeup,
// returning false if the loop has been stopped. This is the only way for
// another goroutine — a socket reader, an HTTP handler — to touch the
// topology.
func (l *Loop) Do(fn func()) bool {
	select {
	case <-l.quit:
		// Checked first: after Stop the buffered channel may still have
		// room, and the enqueue branch must not win that race.
		return false
	default:
	}
	select {
	case l.do <- fn:
		return true
	case <-l.quit:
		return false
	}
}

// Call runs fn on the loop goroutine and waits for it to finish — the
// synchronous form of Do, for reading state out (metrics snapshots, final
// stats). Returns false if the loop stopped before fn ran. Must not be
// called from the loop goroutine itself: it would deadlock.
func (l *Loop) Call(fn func()) bool {
	ran := make(chan struct{})
	if !l.Do(func() { fn(); close(ran) }) {
		return false
	}
	select {
	case <-ran:
		return true
	case <-l.done:
		// The loop exited with fn possibly still queued.
		select {
		case <-ran:
			return true
		default:
			return false
		}
	}
}

// wallNow returns nanoseconds of monotonic wall clock since Start.
func (l *Loop) wallNow() int64 { return int64(time.Since(l.epoch)) }

// run is the loop body: fire everything due, sleep until the next deadline
// or an injected thunk, repeat. All event dispatch and all thunks execute
// here, single-threaded, with the queue clock advanced to the wall clock
// first — so protocol code observes Now() exactly as it does in the
// simulator: monotonic, and never behind an event it is running inside.
func (l *Loop) run() {
	defer close(l.done)
	idle := time.Hour // no deadline pending: sleep until Do or Stop wakes us
	timer := time.NewTimer(idle)
	defer timer.Stop()
	for {
		l.Q.RunUntil(l.wallNow())
		sleep := idle
		if next, ok := l.Q.NextAt(); ok {
			sleep = time.Duration(next - l.wallNow())
			if sleep < 0 {
				sleep = 0
			}
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(sleep)
		select {
		case <-l.quit:
			return
		case fn := <-l.do:
			l.Q.RunUntil(l.wallNow())
			fn()
			// Drain co-arrived thunks before recomputing the sleep, so a
			// burst of datagrams costs one wakeup, not one each.
			l.drainDo()
		case <-timer.C:
		}
	}
}

// drainDo runs queued thunks until the channel is momentarily empty.
func (l *Loop) drainDo() {
	for {
		select {
		case fn := <-l.do:
			fn()
		default:
			return
		}
	}
}

// ProtocolConfig returns the paper's configuration re-based from switch
// time to wall-clock time. The state machines are scale-free — every
// timeout and pacing interval comes from Config — but the values tuned for
// a nanosecond-resolution ASIC pipeline would melt a userspace process:
// a 7.5µs ackNoTimeout is below kernel scheduling jitter, and 200ns ACK
// pacing is five million datagrams per second. The translation keeps every
// ratio meaningful (stall timeout >> RTT >> pacing) at timescales an OS
// timer can honor, and sizes the reordering buffer for the bandwidth-delay
// product of millisecond-scale recovery instead of microsecond-scale.
//
// Under the race detector every event costs roughly an order of magnitude
// more, and the background event rate — timer-wheel polls, ACK pacing,
// dummy probes — scales with link count regardless of traffic, so a
// race-instrumented many-link process drowns at *any* offered rate unless
// the pure pacing stretches. Only pacing stretches: the correctness
// timescales (ackNoTimeout, pause refresh/quanta) already tolerate
// wall-clock hiccups and keep their ordering against the stretched
// intervals.
func ProtocolConfig(linkRate simtime.Rate, lossRate float64) core.Config {
	cfg := core.NewConfig(linkRate, lossRate)
	cfg.TimerQuantum = 100 * time.Microsecond
	cfg.AckInterval = 200 * time.Microsecond
	cfg.DummyInterval = 500 * time.Microsecond
	if raceEnabled {
		cfg.TimerQuantum = 400 * time.Microsecond
		cfg.AckInterval = 1 * time.Millisecond
		cfg.DummyInterval = 2 * time.Millisecond
	}
	// The stall backstop must tolerate wall-clock hiccups a switch pipeline
	// never sees — GC pauses, scheduler preemption, race-detector builds —
	// or a recoverable loss gets declared unrecoverable under load.
	cfg.AckNoTimeout = 100 * time.Millisecond
	cfg.PauseQuanta = 50 * time.Millisecond
	cfg.PauseRefresh = 20 * time.Millisecond
	cfg.PipelineLatency = 10 * time.Microsecond
	// The reordering buffer is re-based to wall time: a live gap lasts a
	// wall-clock RTT, about a thousand times longer than a sim gap. These
	// values were chosen when every held packet cost events on each circuit
	// of a real loopback port, and the ASIC's 100G/500ns loop saturated the
	// loop goroutine. Held packets now cost an event only when released, so
	// only the other constraint remains: a held packet is re-examined at
	// its next loop completion, so loop latency × backlog bounds the
	// reordering buffer's drain rate. Re-tuning the 500µs re-base against
	// that alone is an open follow-up.
	cfg.RecircRate = linkRate
	cfg.RecircLoopLatency = 500 * time.Microsecond
	cfg.RecircBufBytes = 4 << 20
	cfg.ResumeThreshold = 32 << 10
	cfg.PauseThreshold = cfg.ResumeThreshold + (32 << 10)
	// Loopback UDP does lose the occasional datagram under pressure and the
	// smoke tests demand zero app-visible loss over a million packets, so
	// pick N for robustness rather than from the measured rate: 1e-3 loss
	// with 4 copies leaves ~1e-12 per-packet residual before the
	// ackNoTimeout backstop even matters.
	cfg.RetxCopies = 4
	cfg.CtrlCopies = 2
	return cfg
}
