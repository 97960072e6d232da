package chaos

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"linkguardian/internal/experiments"
	"linkguardian/internal/obs"
	"linkguardian/internal/parallel"
	"linkguardian/internal/simnet"
	"linkguardian/internal/simtime"
)

// This file is the composite-fault layer: faults that overlay several
// failure modes on one scenario (Compose), fault types real fabrics exhibit
// but the paper never tested — per-direction asymmetric corruption,
// congestion concurrent with corruption, correlated multi-link bursts from a
// shared transceiver — and the Family catalog that generates scenarios per
// family with family-specific invariant expectations wired into the Checker.

// Expecter is implemented by faults that carry their own end-of-run
// invariants. RunScenario and RunFabric call Expectations once per run
// (after cloning, before traffic starts) so the fault can register
// Checker.Expect hooks against its own observation counters.
type Expecter interface {
	Expectations(r *Rig, chk *Checker)
}

// cloner is implemented by faults carrying mutable state: the runners clone
// them per run (and per fabric segment) so a Scenario value can be executed
// repeatedly — and on every segment of a fabric concurrently — without
// shared-state races or run-to-run state leakage.
type cloner interface {
	CloneFault() Fault
}

// cloneFault returns a private copy of a stateful fault; stateless value
// faults pass through unchanged.
func cloneFault(f Fault) Fault {
	if c, ok := f.(cloner); ok {
		return c.CloneFault()
	}
	return f
}

// Compose overlays multiple faults as one: all of them activate at the
// step's start and deactivate at its end, and each frame is offered to the
// sub-faults in order, first non-defer verdict winning — corruption and
// congestion striking the same link in the same window.
type Compose struct {
	Label  string
	Faults []Fault
}

// Begin activates every sub-fault in order.
func (c Compose) Begin(r *Rig) {
	for _, f := range c.Faults {
		f.Begin(r)
	}
}

// End deactivates the sub-faults in reverse activation order.
func (c Compose) End(r *Rig) {
	for i := len(c.Faults) - 1; i >= 0; i-- {
		c.Faults[i].End(r)
	}
}

// Verdict offers the frame to each sub-fault; the first non-defer wins.
func (c Compose) Verdict(r *Rig, pkt *simnet.Packet, from *simnet.Ifc) simnet.Verdict {
	for _, f := range c.Faults {
		if v := f.Verdict(r, pkt, from); v != simnet.VerdictDefer {
			return v
		}
	}
	return simnet.VerdictDefer
}

// InEnvelope holds only when every sub-fault stays in the envelope.
func (c Compose) InEnvelope() bool {
	for _, f := range c.Faults {
		if !f.InEnvelope() {
			return false
		}
	}
	return true
}

// CloneFault deep-clones the stateful sub-faults.
func (c Compose) CloneFault() Fault {
	cp := Compose{Label: c.Label, Faults: make([]Fault, len(c.Faults))}
	for i, f := range c.Faults {
		cp.Faults[i] = cloneFault(f)
	}
	return cp
}

// Expectations forwards to every sub-fault that carries its own.
func (c Compose) Expectations(r *Rig, chk *Checker) {
	for _, f := range c.Faults {
		if e, ok := f.(Expecter); ok {
			e.Expectations(r, chk)
		}
	}
}

func (c Compose) String() string {
	parts := make([]string, len(c.Faults))
	for i, f := range c.Faults {
		parts[i] = f.String()
	}
	label := ""
	if c.Label != "" {
		label = c.Label + ":"
	}
	return fmt.Sprintf("compose(%s%s)", label, strings.Join(parts, " + "))
}

// AsymLoss corrupts the two directions of the protected link at different
// rates — the degrading-transceiver failure where one lane's optics decay
// while the other stays clean. Forward is the protected (sw2→sw6) data
// direction; Reverse is the return path carrying the protocol's ACK and
// loss-notification channel. Reverse-direction corruption is outside the
// paper's envelope (it attacks the control channel, like CtrlCorrupt), so
// scenarios with Reverse > 0 are held to the safety and liveness invariants
// but not the effective-loss bound.
type AsymLoss struct {
	Forward float64
	Reverse float64

	framesFwd, framesRev uint64
	dropsFwd, dropsRev   uint64
}

// NewAsymLoss builds the per-direction fault.
func NewAsymLoss(forward, reverse float64) *AsymLoss {
	return &AsymLoss{Forward: forward, Reverse: reverse}
}

// Begin implements Fault.
func (*AsymLoss) Begin(*Rig) {}

// End implements Fault.
func (*AsymLoss) End(*Rig) {}

// Verdict splits on the transmitting interface: the existing FaultFn hook
// already tells the fault which direction a frame travels.
func (f *AsymLoss) Verdict(r *Rig, pkt *simnet.Packet, from *simnet.Ifc) simnet.Verdict {
	if from == r.Protected {
		f.framesFwd++
		if f.Forward > 0 && r.Rng.Float64() < f.Forward {
			f.dropsFwd++
			return simnet.VerdictDrop
		}
		return simnet.VerdictDefer
	}
	f.framesRev++
	if f.Reverse > 0 && r.Rng.Float64() < f.Reverse {
		f.dropsRev++
		return simnet.VerdictDrop
	}
	return simnet.VerdictDefer
}

// InEnvelope: only a pure forward-direction fault at an in-envelope rate
// counts; any reverse corruption attacks the control channel.
func (f *AsymLoss) InEnvelope() bool {
	return f.Forward <= EnvelopeLossRate && f.Reverse == 0
}

// CloneFault returns a copy with fresh counters.
func (f *AsymLoss) CloneFault() Fault { return NewAsymLoss(f.Forward, f.Reverse) }

// Expectations asserts the direction split is real: a direction configured
// clean must never have dropped a frame, and a direction configured lossy
// must have dropped some once enough frames passed to make zero drops
// implausible at any seed (expectation ≥ 20 drops ⇒ P(none) < e⁻²⁰).
func (f *AsymLoss) Expectations(_ *Rig, chk *Checker) {
	chk.Expect("asym-direction-isolation", func() string {
		if f.Forward == 0 && f.dropsFwd > 0 {
			return fmt.Sprintf("forward direction configured clean but dropped %d of %d frames", f.dropsFwd, f.framesFwd)
		}
		if f.Reverse == 0 && f.dropsRev > 0 {
			return fmt.Sprintf("reverse direction configured clean but dropped %d of %d frames", f.dropsRev, f.framesRev)
		}
		return ""
	})
	chk.Expect("asym-loss-bites", func() string {
		if exp := f.Forward * float64(f.framesFwd); exp >= 20 && f.dropsFwd == 0 {
			return fmt.Sprintf("forward rate %g over %d frames dropped nothing", f.Forward, f.framesFwd)
		}
		if exp := f.Reverse * float64(f.framesRev); exp >= 20 && f.dropsRev == 0 {
			return fmt.Sprintf("reverse rate %g over %d frames dropped nothing", f.Reverse, f.framesRev)
		}
		return ""
	})
}

func (f *AsymLoss) String() string {
	return fmt.Sprintf("asym-loss(fwd=%.0e,rev=%.0e)", f.Forward, f.Reverse)
}

// CongestionBurst adds offered load instead of corrupting frames: while
// active, an extra paced generator injects ExtraLoad of line rate at the
// protected egress, driving queue growth and PFC back-pressure concurrently
// with whatever corruption the scenario composes it with. It injects no wire
// loss itself, so it stays inside the corruption envelope — the point of the
// corrupt+congest family is that the effective-loss bound must hold *under*
// congestion.
type CongestionBurst struct {
	// ExtraLoad is the additional offered load as a fraction of line rate.
	ExtraLoad float64
	// Frame sizes the injected frames (default MTU).
	Frame int

	gen    *experiments.Generator
	bursts int
}

// Begin starts the extra load.
func (f *CongestionBurst) Begin(r *Rig) {
	frame := f.Frame
	if frame <= 0 {
		frame = simtime.MTUFrame
	}
	f.gen = r.StartGeneratorAt(frame, f.ExtraLoad)
	f.bursts++
}

// End stops it.
func (f *CongestionBurst) End(r *Rig) {
	if f.gen != nil {
		f.gen.Stop()
	}
}

// Verdict defers: the fault acts purely through offered load.
func (*CongestionBurst) Verdict(*Rig, *simnet.Packet, *simnet.Ifc) simnet.Verdict {
	return simnet.VerdictDefer
}

// InEnvelope: congestion is not corruption; no wire loss is injected.
func (*CongestionBurst) InEnvelope() bool { return true }

// CloneFault returns a copy with no generator attached.
func (f *CongestionBurst) CloneFault() Fault {
	return &CongestionBurst{ExtraLoad: f.ExtraLoad, Frame: f.Frame}
}

// Expectations asserts the burst actually pressured the link.
func (f *CongestionBurst) Expectations(_ *Rig, chk *Checker) {
	chk.Expect("congestion-load-injected", func() string {
		if f.bursts == 0 {
			return "congestion burst never activated"
		}
		if f.gen == nil || f.gen.Sent() == 0 {
			return "congestion burst activated but injected no frames"
		}
		return ""
	})
}

func (f *CongestionBurst) String() string {
	return fmt.Sprintf("congestion-burst(load=%.2f)", f.ExtraLoad)
}

// CorrelatedGE derives a link's Gilbert–Elliott burst state from a *shared*
// transceiver RNG: every member fault constructed with the same SharedSeed
// computes the identical good/bad chain, advancing it one step per Epoch of
// simulated time. Instances on different fabric segments therefore go bad
// in the same windows — the correlated multi-link failure of a shared optics
// module — without any cross-shard state: the chain is a pure function of
// (SharedSeed, elapsed time), computed independently wherever a member runs,
// which is what keeps sharded fabric runs byte-identical at any worker
// count. While the chain is bad, every protected-direction frame drops.
type CorrelatedGE struct {
	SharedSeed int64
	AvgLoss    float64
	MeanBurst  float64 // mean bad-stretch length, in epochs
	Epoch      simtime.Duration

	ge     *simnet.GilbertElliott
	rng    *rand.Rand
	base   simtime.Time
	next   int64
	bad    bool
	epochs uint64
	drops  uint64
}

// NewCorrelatedGE builds a member of the correlated group. All members share
// sharedSeed; epoch <= 0 defaults to 2µs.
func NewCorrelatedGE(sharedSeed int64, avgLoss, meanBurst float64, epoch simtime.Duration) *CorrelatedGE {
	if epoch <= 0 {
		epoch = 2 * simtime.Microsecond
	}
	return &CorrelatedGE{SharedSeed: sharedSeed, AvgLoss: avgLoss, MeanBurst: meanBurst, Epoch: epoch}
}

// Begin seeds the shared chain. The chain RNG comes from SharedSeed alone —
// never from the rig's fault RNG — so every member reproduces the same
// state sequence.
func (f *CorrelatedGE) Begin(r *Rig) {
	f.ge = simnet.NewGilbertElliott(f.AvgLoss, f.MeanBurst)
	f.rng = rand.New(rand.NewSource(f.SharedSeed))
	f.base = r.Sim.Now()
	f.next, f.bad = 0, false
}

// End implements Fault.
func (*CorrelatedGE) End(*Rig) {}

// advance steps the shared chain one epoch.
func (f *CorrelatedGE) advance() {
	if f.bad {
		if f.rng.Float64() < f.ge.BadToGood {
			f.bad = false
		}
	} else if f.rng.Float64() < f.ge.GoodToBad {
		f.bad = true
	}
	f.epochs++
}

// Verdict lazily advances the chain to the current epoch and drops
// protected-direction frames while the chain is bad.
func (f *CorrelatedGE) Verdict(r *Rig, pkt *simnet.Packet, from *simnet.Ifc) simnet.Verdict {
	if f.ge == nil {
		return simnet.VerdictDefer
	}
	e := int64(r.Sim.Now().Sub(f.base) / f.Epoch)
	for f.next <= e {
		f.advance()
		f.next++
	}
	if f.bad && from == r.Protected {
		f.drops++
		return simnet.VerdictDrop
	}
	return simnet.VerdictDefer
}

// InEnvelope: correlated bursts blacken the link for whole epochs — far
// outside stationary i.i.d. corruption.
func (*CorrelatedGE) InEnvelope() bool { return false }

// CloneFault returns a fresh member of the same correlated group.
func (f *CorrelatedGE) CloneFault() Fault {
	return NewCorrelatedGE(f.SharedSeed, f.AvgLoss, f.MeanBurst, f.Epoch)
}

// Expectations asserts the shared chain actually ran.
func (f *CorrelatedGE) Expectations(_ *Rig, chk *Checker) {
	chk.Expect("correlated-chain-advanced", func() string {
		if f.epochs == 0 {
			return "shared GE chain never advanced (fault window shorter than one epoch?)"
		}
		return ""
	})
}

func (f *CorrelatedGE) String() string {
	return fmt.Sprintf("correlated-ge(seed=%d,loss=%.0e,mean=%g,epoch=%v)", f.SharedSeed, f.AvgLoss, f.MeanBurst, f.Epoch)
}

// familyDef is one entry of the composite-fault catalog: a name plus a
// generator that derives the i-th scenario of the family from a master seed.
type familyDef struct {
	name string
	gen  func(seed int64, rng *rand.Rand, sc *Scenario)
}

// familyDefs lists the catalog in deterministic order.
func familyDefs() []familyDef {
	return []familyDef{
		{"asym", genAsym},
		{"correlated", genCorrelated},
		{"corrupt-congest", genCorruptCongest},
	}
}

// FamilyNames lists the composite-fault families in deterministic order.
func FamilyNames() []string {
	defs := familyDefs()
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	return out
}

// familyMix decorrelates a family's scenario stream from every other
// family's at the same (master, i).
func familyMix(family string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(family))
	return int64(h.Sum64())
}

// GenFamilyScenario deterministically generates the i-th scenario of a
// family for the master seed: same (family, master, i) ⇒ same scenario, at
// any worker count.
func GenFamilyScenario(family string, master int64, i int) (Scenario, bool) {
	var def *familyDef
	for _, d := range familyDefs() {
		if d.name == family {
			d := d
			def = &d
			break
		}
	}
	if def == nil {
		return Scenario{}, false
	}
	seed := parallel.SeedFor(master, i) ^ familyMix(family)
	rng := rand.New(rand.NewSource(seed))
	sc := Scenario{
		Name:      fmt.Sprintf("fam-%s-%04d", family, i),
		Family:    family,
		Seed:      seed,
		Rate:      simtime.Rate25G,
		FrameSize: simtime.MTUFrame,
		LoadFrac:  0.4 + 0.3*rng.Float64(),
	}
	sc.Window = windowFor(sc.Rate, sc.FrameSize, sc.LoadFrac, 3000+rng.Intn(3000))
	def.gen(seed, rng, &sc)
	return sc, true
}

// genCorruptCongest overlays in-envelope corruption with a congestion burst
// on the same link, same window: the effective-loss bound must survive queue
// pressure, not just a quiet link.
func genCorruptCongest(_ int64, rng *rand.Rand, sc *Scenario) {
	sc.BaseLoss = 1e-4
	w := sc.Window
	sc.Steps = []Step{{At: w / 4, Dur: w / 2, Fault: Compose{
		Label: "corrupt+congest",
		Faults: []Fault{
			LossSpike{Rate: 1e-3},
			&CongestionBurst{ExtraLoad: 0.3 + 0.4*rng.Float64()},
		},
	}}}
}

// genAsym puts different corruption rates on the two directions of the
// protected link; one direction is sometimes configured perfectly clean,
// giving the direction-isolation expectation its teeth.
func genAsym(_ int64, rng *rand.Rand, sc *Scenario) {
	sc.BaseLoss = 1e-4
	fwd := []float64{0, 1e-3, 5e-3}[rng.Intn(3)]
	rev := []float64{1e-3, 5e-3, 2e-2}[rng.Intn(3)]
	w := sc.Window
	sc.Steps = []Step{{At: w / 4, Dur: w / 2, Fault: NewAsymLoss(fwd, rev)}}
}

// genCorrelated runs one member of a correlated-GE group on the scenario's
// link. On a single-link scenario the correlation is trivial; RunFabricAttrib
// instantiates the same SharedSeed on many segments to model the shared
// transceiver.
func genCorrelated(seed int64, rng *rand.Rand, sc *Scenario) {
	sc.BaseLoss = 1e-4
	avg := []float64{2e-3, 5e-3, 1e-2}[rng.Intn(3)]
	mean := 2 + 3*rng.Float64()
	epoch := simtime.Duration(1+rng.Intn(4)) * simtime.Microsecond
	w := sc.Window
	sc.Steps = []Step{{At: w / 4, Dur: w / 2,
		Fault: NewCorrelatedGE(seed^0x7ea5_eed0, avg, mean, epoch)}}
}

// FamilyRuns is one family's slice of a composite soak.
type FamilyRuns struct {
	Family  string
	Reports []*Report // index j ran GenFamilyScenario(Family, master, j)
}

// Failed counts the runs with at least one invariant violation.
func (f *FamilyRuns) Failed() int {
	n := 0
	for _, r := range f.Reports {
		if r.Failed() {
			n++
		}
	}
	return n
}

// Violations counts every recorded violation firing across the family.
func (f *FamilyRuns) Violations() uint64 {
	var n uint64
	for _, r := range f.Reports {
		for _, v := range r.Violations {
			n += uint64(v.Count)
		}
	}
	return n
}

// FamilySoakResult is the outcome of a composite-family sweep.
type FamilySoakResult struct {
	Master    int64
	PerFamily int
	Families  []FamilyRuns // FamilyNames() order
}

// FamilySoak runs perFamily generated scenarios of every composite family
// across the worker pool; merge order is (family, index), so the result is
// bit-identical at any worker count. opts carries the per-run options
// (directory or results-store sink); opts.Index is overwritten per
// scenario.
func FamilySoak(master int64, perFamily int, opts RunOpts) *FamilySoakResult {
	names := FamilyNames()
	flat := parallel.Map(len(names)*perFamily, func(i int) *Report {
		fam, j := names[i/perFamily], i%perFamily
		sc, _ := GenFamilyScenario(fam, master, j)
		o := opts
		o.Index = j
		return RunScenario(sc, o)
	})
	out := &FamilySoakResult{Master: master, PerFamily: perFamily}
	for fi, name := range names {
		out.Families = append(out.Families, FamilyRuns{
			Family:  name,
			Reports: flat[fi*perFamily : (fi+1)*perFamily],
		})
	}
	return out
}

// Failures returns every failing report, in (family, index) order.
func (s *FamilySoakResult) Failures() []*Report {
	var out []*Report
	for _, f := range s.Families {
		for _, r := range f.Reports {
			if r.Failed() {
				out = append(out, r)
			}
		}
	}
	return out
}

// String renders the sweep deterministically: a per-family summary line plus
// one line per failing scenario — byte-identical at any worker count.
func (s *FamilySoakResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "family-soak master=%d per-family=%d\n", s.Master, s.PerFamily)
	for _, f := range s.Families {
		fmt.Fprintf(&b, "%-16s runs=%d failed=%d violations=%d\n",
			f.Family, len(f.Reports), f.Failed(), f.Violations())
		for _, r := range f.Reports {
			if r.Failed() {
				fmt.Fprintf(&b, "  %v\n", r)
			}
		}
	}
	return b.String()
}

// Register exposes the per-family fault counters
// (chaos.family.<name>.runs/.failed/.violations) on an obs registry.
func (s *FamilySoakResult) Register(reg *obs.Registry) {
	for i := range s.Families {
		f := &s.Families[i]
		p := "chaos.family." + f.Family
		reg.CounterFunc(p+".runs", func() uint64 { return uint64(len(f.Reports)) })
		reg.CounterFunc(p+".failed", func() uint64 { return uint64(f.Failed()) })
		reg.CounterFunc(p+".violations", f.Violations)
	}
}
