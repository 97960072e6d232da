package chaos

import (
	"fmt"
	"sort"
	"strings"

	"linkguardian/internal/attrib"
	"linkguardian/internal/core"
	"linkguardian/internal/experiments"
	"linkguardian/internal/obs"
	"linkguardian/internal/parallel"
	"linkguardian/internal/simnet"
	"linkguardian/internal/simtime"
)

// This file closes the attribution loop: inject known faults into a
// multi-segment fabric, run probe flows whose endpoints observe only
// flow-level delivery (007's production constraint), vote the blame down to
// links with internal/attrib, and score the resulting table against the
// injected ground truth — the oracle only a chaos engine has.
//
// Probes run with LinkGuardian *disabled*: 007 attributes losses the network
// did not mask, which is exactly the deployment question LinkGuardian
// answers ("which link should I enable protection on?"). The whole pipeline
// is deterministic: probe pacing uses no randomness, fault streams derive
// from (seed, segment), and observations merge in (src, dst) order, so the
// blame table is a pure function of the scenario.

// AttribScenario describes one fabric attribution run.
type AttribScenario struct {
	Name string
	Seed int64

	// NSegs is the ring size (>= 2). FaultSegs lists the segments whose
	// protected links carry the injected fault — the ground-truth culprits.
	NSegs     int
	FaultSegs []int

	// FaultLoss is the culprit links' corruption rate. Correlated switches
	// the injection from independent i.i.d. loss to a CorrelatedGE group
	// sharing one transceiver chain across all FaultSegs.
	FaultLoss  float64
	Correlated bool

	// BaseLoss is the background corruption on every protected link — the
	// noise floor attribution must rise above. Default 1e-4.
	BaseLoss float64

	// ProbeFrames is the number of frames each probe stream sends (default
	// 200); probe pacing is sized so total load stays well under line rate.
	ProbeFrames int
}

// segProtectedLink names segment i's protected link in blame tables.
func segProtectedLink(i int) string { return fmt.Sprintf("s%d.protected", i) }

// segCrossLink names the ring link from segment i to segment i+1.
func segCrossLink(i int) string { return fmt.Sprintf("s%d.cross", i) }

// probePath lists the links a probe from segment s's h1 to segment d's h2
// traverses, in order: the protected links of every segment the ring visits
// from s through d, and the cross links between them.
func probePath(s, d, n int) []string {
	var path []string
	for i := s; ; i = (i + 1) % n {
		path = append(path, segProtectedLink(i))
		if i == d {
			break
		}
		path = append(path, segCrossLink(i))
	}
	return path
}

// AttribReport is the outcome of one attribution run.
type AttribReport struct {
	Scenario string
	Seed     int64
	NSegs    int
	Culprits []string // injected ground truth, sorted

	Table attrib.Table
	Acc   attrib.Accuracy

	Metrics obs.Snapshot
}

// String renders the run deterministically.
func (r *AttribReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s seed=%d segs=%d culprits=[%s] top1=%v topK=%d/%d ranks{%s}",
		r.Scenario, r.Seed, r.NSegs, strings.Join(r.Culprits, " "),
		r.Acc.Top1Hit, r.Acc.TopKHits, len(r.Culprits), r.Acc.CulpritRanks())
	fmt.Fprintf(&b, "\n%s", indent(r.Table.String(), "  "))
	return b.String()
}

func indent(s, pad string) string {
	return pad + strings.ReplaceAll(s, "\n", "\n"+pad)
}

// RunFabricAttrib executes one attribution scenario: an NSegs-segment
// unprotected fabric, the scenario's fault on each culprit link, one probe
// stream per ordered segment pair, and a 007 vote over the delivery audit.
func RunFabricAttrib(sc AttribScenario) *AttribReport {
	n := sc.NSegs
	if n < 2 {
		n = 2
	}
	base := sc.BaseLoss
	if base == 0 {
		base = 1e-4
	}
	probeFrames := sc.ProbeFrames
	if probeFrames <= 0 {
		probeFrames = 200
	}
	rate := simtime.Rate25G
	frame := 1024

	cfg := core.NewConfig(rate, EnvelopeLossRate)
	f := experiments.NewSegmented(sc.Seed, n, rate, cfg)
	// LinkGuardian stays disabled on every segment: 007's unmasked setting.
	for _, tb := range f.Segs {
		tb.SetLoss(base)
	}

	// Arm the injected fault on every culprit link. Each culprit gets its
	// own engine and fault clone; a correlated group shares one chain seed.
	for _, si := range sc.FaultSegs {
		tb := f.Segs[si]
		eng := newEngine(tb, parallel.SeedFor(sc.Seed, si))
		var fault Fault
		if sc.Correlated {
			fault = NewCorrelatedGE(sc.Seed^0x7ea5_eed0, sc.FaultLoss, 4, 2*simtime.Microsecond)
		} else {
			fault = LossSpike{Rate: sc.FaultLoss}
		}
		a := &activation{f: cloneFault(fault)}
		tb.Sim.At(tb.Sim.Now(), func() { eng.activate(a) })
	}

	// One probe stream per ordered segment pair. Pacing: spread each
	// stream's frames over the window such that the busiest protected link
	// (carrying ~(n-1)(n+2)/2 streams) stays under ~60% load.
	streams := (n - 1) * (n + 2) / 2
	interval := simtime.Duration(float64(rate.Serialize(simtime.WireBytes(frame))) * float64(streams) / 0.6)
	window := interval * simtime.Duration(probeFrames)

	type probe struct {
		src, dst, flow int
		stream         *experiments.Stream
	}
	var probes []probe
	rx := make([]map[int]int, n)
	for d := 0; d < n; d++ {
		d := d
		rx[d] = map[int]int{}
		f.Segs[d].H2.OnReceive = func(pkt *simnet.Packet) { rx[d][pkt.FlowID]++ }
		f.Segs[d].H2.Recycle = true
	}
	flowID := func(s, d int) int { return 1000 + s*n + d }
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if d == s {
				continue
			}
			// Stagger launches inside one pacing interval so streams don't
			// synchronize their bursts; the offset is a pure function of the
			// pair, not of any RNG.
			stagger := interval * simtime.Duration(s*n+d) / simtime.Duration(n*n)
			g := f.Segs[s].StartStream(f.Segs[d].H2.NodeName(), flowID(s, d), frame, interval, stagger, probeFrames)
			probes = append(probes, probe{src: s, dst: d, flow: flowID(s, d), stream: g})
		}
	}

	reg := obs.NewRegistry()
	f.Register(reg)

	f.Sim.RunFor(window + interval)
	// Drain: let the last in-flight probes cross up to n segments.
	f.Sim.RunFor(simtime.Duration(n) * (simtime.Millisecond / 2))

	// The delivery audit, merged in (src, dst) order.
	flowObs := make([]attrib.FlowObs, 0, len(probes))
	for _, p := range probes {
		flowObs = append(flowObs, attrib.FlowObs{
			Flow:      int64(p.flow),
			Path:      probePath(p.src, p.dst, n),
			Sent:      p.stream.Sent(),
			Delivered: rx[p.dst][p.flow],
		})
	}
	tab := attrib.Vote(flowObs, attrib.Opts{NormalizeByCoverage: true})

	culprits := make([]string, 0, len(sc.FaultSegs))
	for _, si := range sc.FaultSegs {
		culprits = append(culprits, segProtectedLink(si))
	}
	sort.Strings(culprits)
	acc := attrib.Verify(tab, attrib.GroundTruth{Culprits: culprits})

	// Attribution accuracy gauges and vote counters, merged into the run's
	// snapshot next to the per-segment and ring link metrics.
	reg.Gauge("attrib.top1_hit").Set(b2f(acc.Top1Hit))
	reg.Gauge("attrib.topk_hits").Set(float64(acc.TopKHits))
	if worst, ok := acc.WorstRank(); ok {
		reg.Gauge("attrib.worst_rank").Set(float64(worst))
	}
	reg.Counter("attrib.bad_flows").Add(uint64(tab.BadFlows))
	reg.Counter("attrib.good_flows").Add(uint64(tab.GoodFlows))
	reg.Counter("attrib.skipped_obs").Add(uint64(tab.Skipped))

	return &AttribReport{
		Scenario: sc.Name,
		Seed:     sc.Seed,
		NSegs:    n,
		Culprits: culprits,
		Table:    tab,
		Acc:      acc,
		Metrics:  reg.Snapshot(),
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// GenAttribScenario deterministically generates the i-th single-culprit
// attribution scenario: a 5-segment ring with one faulted link chosen by
// index, i.i.d. fault loss well above the noise floor.
func GenAttribScenario(master int64, i int) AttribScenario {
	const n = 5
	return AttribScenario{
		Name:      fmt.Sprintf("attrib-%04d", i),
		Seed:      parallel.SeedFor(master, i),
		NSegs:     n,
		FaultSegs: []int{i % n},
		FaultLoss: 2e-2,
	}
}

// GenAttribMultiScenario generates the i-th correlated multi-culprit
// scenario: two links sharing one transceiver chain go bad together.
func GenAttribMultiScenario(master int64, i int) AttribScenario {
	const n = 5
	a := i % n
	b := (a + 1 + i%(n-1)) % n
	if b == a {
		b = (a + 1) % n
	}
	return AttribScenario{
		Name:       fmt.Sprintf("attrib-corr-%04d", i),
		Seed:       parallel.SeedFor(master, i) ^ 0xc0ffee,
		NSegs:      n,
		FaultSegs:  []int{a, b},
		FaultLoss:  2e-2,
		Correlated: true,
	}
}

// AttribSoakResult aggregates an attribution-accuracy sweep: single-culprit
// scenarios (gated at >= 90% top-1 by CI) and correlated multi-culprit
// scenarios (reported, not gated — correlated faults split the vote mass).
type AttribSoakResult struct {
	Master int64
	Single []*AttribReport
	Multi  []*AttribReport
}

// Top1Rate is the fraction of single-culprit runs whose top-ranked link was
// the injected culprit.
func (s *AttribSoakResult) Top1Rate() float64 {
	if len(s.Single) == 0 {
		return 0
	}
	hits := 0
	for _, r := range s.Single {
		if r.Acc.Top1Hit {
			hits++
		}
	}
	return float64(hits) / float64(len(s.Single))
}

// MultiTopKRate is the fraction of culprit slots hit within the top K ranks
// across the correlated runs.
func (s *AttribSoakResult) MultiTopKRate() float64 {
	hits, slots := 0, 0
	for _, r := range s.Multi {
		hits += r.Acc.TopKHits
		slots += len(r.Culprits)
	}
	if slots == 0 {
		return 0
	}
	return float64(hits) / float64(slots)
}

// String renders the sweep deterministically: summary rates, then one line
// per run with its verdict.
func (s *AttribSoakResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "attrib-soak master=%d single=%d multi=%d top1=%.3f multi-topk=%.3f\n",
		s.Master, len(s.Single), len(s.Multi), s.Top1Rate(), s.MultiTopKRate())
	for _, r := range s.Single {
		fmt.Fprintf(&b, "%s seed=%d top1=%v ranks{%s}\n", r.Scenario, r.Seed, r.Acc.Top1Hit, r.Acc.CulpritRanks())
	}
	for _, r := range s.Multi {
		fmt.Fprintf(&b, "%s seed=%d topK=%d/%d ranks{%s}\n", r.Scenario, r.Seed, r.Acc.TopKHits, len(r.Culprits), r.Acc.CulpritRanks())
	}
	return b.String()
}

// Register exposes the sweep's accuracy on an obs registry.
func (s *AttribSoakResult) Register(reg *obs.Registry) {
	reg.GaugeFunc("attrib.soak.top1_rate", s.Top1Rate)
	reg.GaugeFunc("attrib.soak.multi_topk_rate", s.MultiTopKRate)
	reg.CounterFunc("attrib.soak.single_runs", func() uint64 { return uint64(len(s.Single)) })
	reg.CounterFunc("attrib.soak.multi_runs", func() uint64 { return uint64(len(s.Multi)) })
}

// AttribSoak runs nSingle single-culprit and nMulti correlated multi-culprit
// attribution scenarios across the worker pool, one fabric per scenario.
func AttribSoak(master int64, nSingle, nMulti int) *AttribSoakResult {
	reports := parallel.Map(nSingle+nMulti, func(i int) *AttribReport {
		if i < nSingle {
			return RunFabricAttrib(GenAttribScenario(master, i))
		}
		return RunFabricAttrib(GenAttribMultiScenario(master, i-nSingle))
	})
	return &AttribSoakResult{Master: master, Single: reports[:nSingle], Multi: reports[nSingle:]}
}
