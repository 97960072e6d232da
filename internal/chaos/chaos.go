// Package chaos is a scriptable fault-injection engine and online invariant
// checker for the LinkGuardian protocol. A Scenario describes traffic on the
// Figure 7 testbed plus a timed sequence of composable faults — loss-rate
// spikes, Gilbert–Elliott burst episodes, full link flaps, targeted
// corruption of the protocol's own control frames, reordering-buffer
// back-pressure storms, and sequence-number era-wrap stress — and RunScenario
// executes it with the protocol's safety and liveness invariants asserted
// while it runs, not just at the end. The deterministic Soak sweeps hundreds
// of generated scenarios in parallel with a bit-identical report at any
// worker count.
package chaos

import (
	"fmt"
	"math/rand"
	"strings"

	"linkguardian/internal/core"
	"linkguardian/internal/experiments"
	"linkguardian/internal/obs"
	"linkguardian/internal/simnet"
	"linkguardian/internal/simtime"
)

// Rig is the running testbed a scenario's faults act on.
type Rig struct {
	*experiments.Testbed

	// Protected is the transmitting interface of the protected direction
	// (sw2's egress onto the corrupting link).
	Protected *simnet.Ifc

	// Rng drives the faults' randomized verdicts. It is private to the
	// fault engine — distinct from the simulation's own RNG — so a
	// scenario's fault pattern is a pure function of its seed.
	Rng *rand.Rand
}

// Scenario is one self-contained chaos run: a testbed configuration, an
// offered load, and a timed fault schedule.
type Scenario struct {
	Name string
	Seed int64

	// Family names the composite-fault family that generated the scenario
	// (GenFamilyScenario); empty for curated and plain generated scenarios.
	Family string

	// Rate is the protected link's speed; FrameSize and LoadFrac shape the
	// offered load (MTU frames at LoadFrac of line rate).
	Rate      simtime.Rate
	FrameSize int
	LoadFrac  float64

	// Mode selects Ordered or NonBlocking; CtrlCopies > 1 hardens control
	// frames (0 means the protocol default of 1).
	Mode       core.Mode
	CtrlCopies int

	// BaseLoss is the stationary i.i.d. corruption rate present for the
	// whole run, before any fault steps.
	BaseLoss float64

	// SeqStart/SeqEra re-base the sequence space after Enable, so a short
	// scenario can exercise the 16-bit era wrap without transmitting 65536
	// packets first.
	SeqStart uint16
	SeqEra   uint8

	// DisableTailLoss ablates the dummy-packet queue — used by the
	// regression tests to prove the checker fires when a mechanism the
	// protocol depends on is removed.
	DisableTailLoss bool

	// Window is how long the scenario runs; Steps are clamped inside it.
	// TrafficFrac, if in (0, 1), stops the generator after that fraction of
	// the window while faults keep running to the end — exposing the tail
	// of the traffic to a fault with no later packet to reveal the damage.
	// Zero (the default) keeps traffic flowing for the whole window.
	Window      simtime.Duration
	TrafficFrac float64
	Steps       []Step
}

// InEnvelope reports whether every loss source in the scenario stays inside
// the paper's Table 1 operating envelope. Only in-envelope scenarios are
// held to the effective-loss-rate invariant; out-of-envelope ones still get
// the full set of safety and liveness checks.
func (sc *Scenario) InEnvelope() bool {
	if sc.BaseLoss > EnvelopeLossRate {
		return false
	}
	for _, s := range sc.Steps {
		if !s.Fault.InEnvelope() {
			return false
		}
	}
	return true
}

// provisionLoss is the worst in-envelope stationary loss rate the scenario
// presents — what the monitoring daemon would have measured — feeding
// Equation 2's choice of retransmission copies.
func (sc *Scenario) provisionLoss() float64 {
	p := sc.BaseLoss
	for _, s := range sc.Steps {
		if r := maxSpikeRate(s.Fault); r > p {
			p = r
		}
	}
	return p
}

// maxSpikeRate is the worst in-envelope stationary rate a fault presents,
// unwrapping composites so a spike inside a Compose still feeds Equation 2.
func maxSpikeRate(f Fault) float64 {
	switch x := f.(type) {
	case LossSpike:
		if x.InEnvelope() {
			return x.Rate
		}
	case Compose:
		p := 0.0
		for _, sub := range x.Faults {
			if r := maxSpikeRate(sub); r > p {
				p = r
			}
		}
		return p
	}
	return 0
}

// Report is the outcome of one scenario: the invariant violations (empty on
// a healthy protocol) plus enough counters to reproduce and triage.
type Report struct {
	Scenario   string
	Family     string // composite-fault family, empty otherwise
	Seed       int64
	InEnvelope bool

	TxUnique    uint64 // distinct protected seqNos transmitted
	Forwarded   uint64 // packets handed to the IP layer
	Outstanding int    // transmitted but never forwarded
	Unrecovered uint64 // receiver-accounted abandoned packets
	Overflows   uint64 // reordering-buffer tail drops
	Retx        uint64 // retransmission events
	Timeouts    uint64 // ackNoTimeout firings
	Quiesced    bool   // recovery state fully drained before the deadline

	Violations []Violation

	// Artifact is the flight-recorder directory written for a failed run
	// (empty when the run passed or artifacts were not enabled). It is
	// excluded from String() — paths hold no protocol state, and the soak
	// compares report strings byte-for-byte across worker counts.
	Artifact string

	// Metrics is the run's final obs snapshot (always populated). Trace is
	// the protected link's trace-ring tail, populated only under
	// RunOpts.KeepTrace — a soak holding rings for hundreds of scenarios
	// would dwarf the reports themselves. Neither appears in String().
	Metrics obs.Snapshot
	Trace   []simnet.TraceEvent
}

// Failed reports whether any invariant fired.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

// String renders the report deterministically — the soak compares these
// byte-for-byte across worker counts.
func (r *Report) String() string {
	var b strings.Builder
	env := "out-of-envelope"
	if r.InEnvelope {
		env = "in-envelope"
	}
	fam := ""
	if r.Family != "" {
		fam = " family=" + r.Family
	}
	fmt.Fprintf(&b, "%s%s seed=%d %s tx=%d fwd=%d outstanding=%d unrecovered=%d overflows=%d retx=%d timeouts=%d quiesced=%v",
		r.Scenario, fam, r.Seed, env, r.TxUnique, r.Forwarded, r.Outstanding,
		r.Unrecovered, r.Overflows, r.Retx, r.Timeouts, r.Quiesced)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "\n  %v", v)
	}
	return b.String()
}

// Drain phase bounds: the runner keeps stepping the simulation in short
// rounds after traffic stops until the instance reports no recovery work for
// quiesceStable consecutive rounds, giving up after quiesceRounds (a link
// flap can leave hundreds of timeout recoveries to grind through).
const (
	quiesceRound  = 100 * simtime.Microsecond
	quiesceStable = 3
	quiesceRounds = 400
)

// RunOpts configures the observability side of a scenario run;
// RunOpts{Index: -1} runs without artifacts and keys nothing.
type RunOpts struct {
	// ArtifactDir, when non-empty, arms the flight recorder: a failed run
	// dumps its trace tail, metrics snapshot, and violation summary into a
	// subdirectory keyed by scenario name, Index, and seed.
	ArtifactDir string

	// TraceCap sizes the protected link's trace ring (default 2048 events).
	TraceCap int

	// Index distinguishes generated scenarios sharing a name (the soak's
	// scenario counter); < 0 omits it from the artifact path.
	Index int

	// KeepTrace copies the trace ring into Report.Trace at the end of the
	// run (cmd/chaos -trace).
	KeepTrace bool

	// Sink, when non-nil, arms the flight recorder and routes a failed
	// run's dump into it as content-addressed blobs keyed by
	// scenario-index-seed (the results store) instead of a bare artifact
	// directory; Report.Artifact carries the sink's locator.
	Sink obs.ArtifactSink
}

// armed reports whether the flight recorder should capture artifacts.
func (o RunOpts) armed() bool { return o.ArtifactDir != "" || o.Sink != nil }

// RunScenario executes one scenario and returns its invariant report; opts
// wires the flight recorder.
func RunScenario(sc Scenario, opts RunOpts) *Report {
	tb := experiments.NewTestbed(sc.Seed, sc.Rate, sc.config())
	run := watch(&sc, tb, sc.Seed)
	chk := run.chk

	// Flight recorder: a trace ring on the protected link plus a metrics
	// registry, dumped to an artifact directory if the run fails. The ring
	// and registry are cheap enough to keep live even when artifacts are
	// off — they feed the event-queue diagnostics hook either way.
	traceCap := opts.TraceCap
	if traceCap <= 0 {
		traceCap = 2048
	}
	tracer := simnet.NewTracer(traceCap)
	tracer.Tap(tb.Sim, tb.Link)
	// A second, data-only ring: under a long drain the full ring rotates to
	// pure control frames (self-replenishing ACK traffic), so the frames a
	// liveness violation names would be gone from it.
	dataRing := simnet.NewTracer(traceCap)
	dataRing.TapIf(tb.Sim, tb.Link, func(e simnet.TraceEvent) bool {
		return e.Kind == simnet.KindData && e.HasLG && !e.Dummy
	})
	reg := obs.NewRegistry()
	tb.LG.Register(reg, "lg")
	obs.RegisterLink(reg, "link", tb.Link)
	fr := &obs.FlightRecorder{
		Dir:      opts.ArtifactDir,
		Scenario: sc.Name,
		Index:    opts.Index,
		Seed:     sc.Seed,
		Tracer:   tracer,
		Registry: reg,
		Sink:     opts.Sink,
	}
	if opts.armed() {
		// Snapshot both rings at the instant each rule first fires, while
		// the offending frames are still in them; the end-of-run dump only
		// has the tail of the drain phase.
		chk.OnViolation = func(v Violation) {
			fr.Note("violation."+v.Rule, v.Detail)
			_ = fr.SnapshotTrace("trace-" + v.Rule + ".jsonl")
			_ = fr.SnapshotTracer(dataRing, "trace-"+v.Rule+"-data.jsonl")
		}
	}

	run.start(&sc)
	drive(tb.Sim, &sc, []*linkRun{run}, nil)
	r := run.report(&sc, sc.Name)
	if sc.Family != "" {
		// Per-family fault counters, visible in the report's snapshot and in
		// flight-recorder artifacts.
		reg.Counter("chaos.family." + sc.Family + ".runs").Inc()
		var fired uint64
		for _, v := range r.Violations {
			fired += uint64(v.Count)
		}
		reg.Counter("chaos.family." + sc.Family + ".violations").Add(fired)
	}
	reg.Sample()
	r.Metrics = reg.Snapshot()
	if opts.KeepTrace {
		r.Trace = tracer.Events()
	}
	if r.Failed() && opts.armed() {
		for _, v := range r.Violations {
			// The full bounded occurrence list, not just the first detail —
			// one artifact carries the whole scenario's forensics.
			fr.Note("violation."+v.Rule, v.String())
		}
		if dir, err := fr.Dump(fmt.Sprintf("%d invariant violation(s)", len(r.Violations))); err == nil {
			r.Artifact = dir
		}
	}
	return r
}

// config is the LinkGuardian configuration a scenario runs with: Equation
// 2 provisioned for its worst in-envelope loss rate.
func (sc *Scenario) config() core.Config {
	cfg := core.NewConfig(sc.Rate, sc.provisionLoss())
	cfg.Mode = sc.Mode
	if sc.CtrlCopies > 0 {
		cfg.CtrlCopies = sc.CtrlCopies
	}
	cfg.TailLossDetection = !sc.DisableTailLoss
	return cfg
}

// newEngine builds the fault rig on tb's protected link and installs its
// fault engine as the link's FaultFn. The fault RNG is seeded from seed
// mixed with a constant, so the fault stream and the simulation's own RNG
// never accidentally correlate and a run's fault pattern is a pure function
// of its seed.
func newEngine(tb *experiments.Testbed, seed int64) *engine {
	eng := &engine{rig: &Rig{
		Testbed:   tb,
		Protected: tb.Link.A(),
		Rng:       rand.New(rand.NewSource(seed ^ 0x5eed_c4a0_5f4a7c15)),
	}}
	tb.Link.FaultFn = eng.verdict
	return eng
}

// linkRun is one protected link under a scenario: its fault engine, the
// checker watching it, and its traffic generator. A single-link run has one;
// a fabric run has one per segment.
type linkRun struct {
	eng      *engine
	chk      *Checker
	gen      *experiments.Generator
	quiesced bool
	stable   int
}

// watch is the first half of arming sc on tb: the baseline loss, the fault
// rig with its stream seeded from faultSeed, and the invariant checker —
// whose link tap therefore runs before any tap installed after it.
func watch(sc *Scenario, tb *experiments.Testbed, faultSeed int64) *linkRun {
	tb.SetLoss(sc.BaseLoss)
	eng := newEngine(tb, faultSeed)
	return &linkRun{eng: eng, chk: Watch(tb.Sim, tb.Link, eng.rig.Protected, tb.LG, 5*simtime.Microsecond)}
}

// start is the second half: LinkGuardian enabled at the scenario's sequence
// position, traffic on, and every step scheduled. Stateful faults are
// cloned per run — and so per fabric segment: a CorrelatedGE clone
// reproduces the shared chain from its seed, which is how a correlated
// group spans segments without shared fault state — so a Scenario value can
// be executed repeatedly with identical results. Faults carrying their own
// end-of-run invariants wire them into the checker here.
func (r *linkRun) start(sc *Scenario) {
	tb := r.eng.rig.Testbed
	tb.LG.Enable()
	if sc.SeqStart != 0 || sc.SeqEra != 0 {
		tb.LG.SeedSequence(sc.SeqStart, sc.SeqEra)
	}
	r.gen = tb.StartGeneratorAt(sc.frame(), sc.LoadFrac)
	start := tb.Sim.Now()
	for _, s := range sc.Steps {
		s.Fault = cloneFault(s.Fault)
		if e, ok := s.Fault.(Expecter); ok {
			e.Expectations(r.eng.rig, r.chk)
		}
		r.eng.schedule(tb.Sim, start, sc.Window, s)
	}
}

// frame is the scenario's frame size (MTU by default).
func (sc *Scenario) frame() int {
	if sc.FrameSize <= 0 {
		return simtime.MTUFrame
	}
	return sc.FrameSize
}

// drive runs a scenario's window on sim — a testbed's, or a fabric's
// advancing every segment at once — stopping every generator (then calling
// stop, if non-nil) after the traffic fraction of it. It then drains: every
// in-flight recovery must finish (or time out into the loss accounting)
// before the end-of-run invariants, and a run counts as quiesced once its
// checker holds steady for quiesceStable consecutive rounds.
func drive(sim *simnet.Sim, sc *Scenario, runs []*linkRun, stop func()) {
	genWindow := sc.Window
	if sc.TrafficFrac > 0 && sc.TrafficFrac < 1 {
		genWindow = simtime.Duration(float64(sc.Window) * sc.TrafficFrac)
	}
	sim.RunFor(genWindow)
	for _, r := range runs {
		r.gen.Stop()
	}
	if stop != nil {
		stop()
	}
	sim.RunFor(sc.Window - genWindow)

	for i := 0; i < quiesceRounds; i++ {
		sim.RunFor(quiesceRound)
		all := true
		for _, r := range runs {
			if r.quiesced {
				continue
			}
			if r.chk.Quiesced() {
				r.stable++
				if r.stable >= quiesceStable {
					r.quiesced = true
					continue
				}
			} else {
				r.stable = 0
			}
			all = false
		}
		if all {
			break
		}
	}
}

// report closes the run's checker into its invariant report; a run that
// never quiesced is flagged as a liveness violation first.
func (r *linkRun) report(sc *Scenario, name string) *Report {
	lg := r.eng.rig.LG
	rep := &Report{
		Scenario:    name,
		Family:      sc.Family,
		Seed:        sc.Seed,
		InEnvelope:  sc.InEnvelope(),
		TxUnique:    r.chk.TxUnique(),
		Forwarded:   r.chk.Forwarded(),
		Outstanding: r.chk.Outstanding(),
		Unrecovered: lg.M.Unrecovered,
		Overflows:   lg.M.RxBufOverflows,
		Retx:        lg.M.Retransmits,
		Timeouts:    lg.M.Timeouts,
		Quiesced:    r.quiesced,
	}
	if !r.quiesced {
		r.chk.flag(RuleLiveness, "recovery state failed to quiesce within %v after traffic stopped (missing=%d, rxHeld=%d, txBuf=%d); e.g. undelivered seqs %v",
			quiesceRounds*quiesceRound, lg.MissingCount(), lg.RxHeldBytes(), lg.OutstandingTx(), r.chk.sampleOutstanding(5))
	}
	rep.Violations = r.chk.Finish(rep.InEnvelope, sc.provisionLoss())
	return rep
}
