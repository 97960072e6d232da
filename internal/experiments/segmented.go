package experiments

import (
	"fmt"

	"linkguardian/internal/core"
	"linkguardian/internal/obs"
	"linkguardian/internal/simnet"
	"linkguardian/internal/simtime"
)

// SegmentCrossDelay is the propagation delay of the inter-segment links —
// a few switch hops of fiber, and the engine's lookahead window: every
// shard runs 5µs of simulated time between barriers.
const SegmentCrossDelay = 5 * simtime.Microsecond

// Segmented is the multi-segment fabric: n copies of the Figure 7 testbed
// (segment i's nodes are named "s<i>.h1" etc.), each on its own shard of a
// parallel engine, with the segments' switches joined in a unidirectional
// ring of cross-shard links (sw6 of segment i feeds sw2 of segment i+1).
// Cross-segment traffic therefore traverses the protected LinkGuardian
// links of every segment it passes through, so parallel execution
// exercises the full protocol, not just plain forwarding.
//
// The engine's worker cap never changes results: the partition — one
// segment per shard — and the per-shard seeds are fixed by (seed, n) alone.
type Segmented struct {
	Eng  *simnet.Engine
	Segs []*Testbed
	// Cross[i] joins Segs[i].SW6 to Segs[(i+1)%n].SW2; empty when n == 1.
	Cross []*simnet.Link

	rate simtime.Rate
}

// NewSegmented builds an n-segment fabric. Shard i is seeded with
// parallel.SeedFor(seed, i); workers caps concurrent shard execution
// (0 = parallel.Workers(), 1 = sequential).
func NewSegmented(seed int64, n, workers int, rate simtime.Rate, cfg core.Config) *Segmented {
	if n < 1 {
		n = 1
	}
	eng := simnet.NewEngine(seed, n)
	if workers > 0 {
		eng.SetWorkers(workers)
	}
	f := &Segmented{Eng: eng, rate: rate}
	for i := 0; i < n; i++ {
		f.Segs = append(f.Segs, NewTestbedOn(eng.Shard(i).Sim, fmt.Sprintf("s%d.", i), rate, cfg))
	}
	if n == 1 {
		return f
	}
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		f.Cross = append(f.Cross, eng.Connect(i, f.Segs[i].SW6, j, f.Segs[j].SW2, rate, SegmentCrossDelay))
	}
	// Foreign destinations ride the ring: out the local protected link to
	// sw6, across to the next segment's sw2, and onward until the owning
	// segment routes them locally.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			for _, h := range []*simnet.Host{f.Segs[j].H1, f.Segs[j].H2} {
				f.Segs[i].SW2.AddRoute(h.NodeName(), f.Segs[i].Link.A())
				f.Segs[i].SW6.AddRoute(h.NodeName(), f.Cross[i].A())
			}
		}
	}
	return f
}

// SetLoss installs an i.i.d. corruption model on every protected
// direction.
func (f *Segmented) SetLoss(p float64) {
	for _, tb := range f.Segs {
		tb.SetLoss(p)
	}
}

// EnableAll activates LinkGuardian on every segment's protected link.
func (f *Segmented) EnableAll() {
	for _, tb := range f.Segs {
		tb.LG.Enable()
	}
}

// crossFlow tags cross-segment traffic.
const crossFlow = -2

// CrossTraffic starts a stream in every segment sending frameBytes frames
// from h1 to the next segment's h2 at frac of line rate, so every frame
// crosses at least one shard boundary (and both segments' protected links),
// and returns a stop function plus a per-segment sent counter accessor.
// With n == 1 the "next" segment is the segment itself, so the traffic
// still flows (purely locally), keeping single-segment runs comparable.
func (f *Segmented) CrossTraffic(frameBytes int, frac float64) (stop func(), sent func(i int) uint64) {
	if frac <= 0 || frac > 1 {
		frac = 1
	}
	interval := simtime.Duration(float64(f.rate.Serialize(simtime.WireBytes(frameBytes))) / frac)
	streams := make([]*Stream, len(f.Segs))
	for i, tb := range f.Segs {
		dst := f.Segs[(i+1)%len(f.Segs)].H2.NodeName()
		streams[i] = tb.StartStream(dst, crossFlow, frameBytes, interval, 0, 0)
	}
	return func() {
			for _, s := range streams {
				s.Stop()
			}
		}, func(i int) uint64 {
			return uint64(streams[i].Sent())
		}
}

// CountReceivedAll attaches counting sinks on every segment's h2.
func (f *Segmented) CountReceivedAll() (pkts []*uint64, bytes []*uint64) {
	for _, tb := range f.Segs {
		p, b := tb.CountReceived()
		pkts = append(pkts, p)
		bytes = append(bytes, b)
	}
	return pkts, bytes
}

// Register exposes every segment's LinkGuardian metrics and protected link
// plus the engine's per-shard counters on one registry, with per-segment
// prefixes, so fabric snapshots merge and compare deterministically.
func (f *Segmented) Register(reg *obs.Registry) {
	for i, tb := range f.Segs {
		p := fmt.Sprintf("s%d", i)
		tb.LG.Register(reg, p+".lg")
		obs.RegisterLink(reg, p+".link", tb.Link)
	}
	obs.RegisterEngine(reg, "engine", f.Eng)
}

// FabricStressResult is one RunFabricStress outcome: per-segment delivery
// counts plus the run's obs snapshot (protocol, link and engine metrics).
type FabricStressResult struct {
	Segments int
	Sent     []uint64 // per-segment protected-link generator frames
	CrossTx  []uint64 // per-segment cross-traffic frames injected
	Received []uint64 // per-segment frames delivered to h2
	Metrics  obs.Snapshot
}

// RunFabricStress drives every segment's protected link at 90% of line
// rate with LinkGuardian (configured by cfg) enabled under the given
// corruption rate, with cross-segment traffic at a tenth of line rate, for
// opts.Duration — the fabric analogue of the §4.1 stress test, seeded by
// opts.Seed. The fabric has no trace tap: opts.TraceCap is ignored.
func RunFabricStress(cfg core.Config, rate simtime.Rate, lossRate float64, nsegs, workers int, opts StressOpts) FabricStressResult {
	f := NewSegmented(opts.Seed, nsegs, workers, rate, cfg)
	defer f.Eng.Close()
	f.SetLoss(lossRate)
	f.EnableAll()
	rx, _ := f.CountReceivedAll()

	reg := obs.NewRegistry()
	f.Register(reg)

	gens := make([]*Generator, nsegs)
	for i, tb := range f.Segs {
		gens[i] = tb.StartGeneratorAt(opts.FrameSize, 0.9)
	}
	stopCross, crossSent := f.CrossTraffic(opts.FrameSize, 0.1)

	f.Eng.RunFor(opts.Duration)
	for _, g := range gens {
		g.Stop()
	}
	stopCross()
	f.Eng.RunFor(opts.Duration/2 + 10*simtime.Millisecond)

	res := FabricStressResult{Segments: nsegs}
	for i := range f.Segs {
		res.Sent = append(res.Sent, gens[i].Sent())
		res.CrossTx = append(res.CrossTx, crossSent(i))
		res.Received = append(res.Received, *rx[i])
	}
	reg.Sample()
	res.Metrics = reg.Snapshot()
	return res
}

// RunFabricFCT is the fabric flow-completion-time experiment: every
// segment runs RunFCT's chain of flows over its own protected lossy link
// while cross-segment background traffic at crossFrac of line rate flows
// through the ring, so every segment's FCTs feel the transit load and the
// whole fabric advances in lockstep on the parallel engine. Results are per
// segment, in segment order; the worker cap never changes a byte of them.
// Shard 0 of a one-segment fabric is seeded like RunFCT's first block, so
// without cross traffic the two agree trial for trial.
func RunFabricFCT(tr Transport, prot Protection, opts FCTOpts, nsegs, workers int, crossFrac float64) []FCTResult {
	f := NewSegmented(opts.Seed, nsegs, workers, opts.Rate, fctConfig(prot, opts))
	defer f.Eng.Close()
	start := transportFlows(tr, opts)
	chains := make([]*fctChain, len(f.Segs))
	for i, tb := range f.Segs {
		chains[i] = startChain(tb, prot, opts, start)
	}
	if crossFrac > 0 {
		f.CrossTraffic(simtime.MTUFrame, crossFrac)
	}
	runChains(f.Eng.RunFor, opts, chains...)
	out := make([]FCTResult, len(chains))
	for i, c := range chains {
		out[i] = c.result(tr, prot, opts.FlowSize)
	}
	return out
}
