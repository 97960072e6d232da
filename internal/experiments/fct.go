package experiments

import (
	"fmt"

	"linkguardian/internal/core"
	"linkguardian/internal/parallel"
	"linkguardian/internal/simnet"
	"linkguardian/internal/simtime"
	"linkguardian/internal/stats"
	"linkguardian/internal/transport"
	"linkguardian/internal/workload"
)

// Transport selects the endpoint protocol for FCT experiments.
type Transport int

// Transports of §4.3.
const (
	TransDCTCP Transport = iota
	TransCubic
	TransBBR
	TransRDMA
	// TransRDMASR is RDMA with the selective-repeat extension (§5).
	TransRDMASR
)

func (tr Transport) String() string {
	switch tr {
	case TransCubic:
		return "CUBIC"
	case TransBBR:
		return "BBR"
	case TransRDMA:
		return "RDMA_WR"
	case TransRDMASR:
		return "RDMA_WR(SR)"
	default:
		return "DCTCP"
	}
}

// Protection selects the link condition of an FCT experiment.
type Protection int

// The four lines of Figures 10-12.
const (
	NoLoss Protection = iota
	LossOnly
	LG
	LGNB
)

func (p Protection) String() string {
	switch p {
	case LossOnly:
		return "loss"
	case LG:
		return "LG"
	case LGNB:
		return "LG_NB"
	default:
		return "no-loss"
	}
}

// FCTOpts parameterizes an FCT experiment.
type FCTOpts struct {
	Rate     simtime.Rate
	FlowSize int
	Trials   int
	LossRate float64
	Seed     int64
	// Gap separates consecutive trials.
	Gap simtime.Duration
	// RTOMin overrides the TCP minimum retransmission timeout (0 keeps the
	// transport default of 1ms). The T-RACKs ablation sets ~100µs to model
	// aggressive end-host fast recovery.
	RTOMin simtime.Duration
	// MeanBurst switches the corruption process from i.i.d. to a
	// Gilbert–Elliott chain with this mean burst length in frames (0 keeps
	// i.i.d.) — the compound-loss condition of the recovery ablation.
	MeanBurst float64
}

// DefaultFCTOpts scales the paper's 300K-trial runs down to a tractable
// default while keeping the tail percentiles meaningful.
func DefaultFCTOpts(size int) FCTOpts {
	return FCTOpts{
		Rate:     simtime.Rate100G,
		FlowSize: size,
		Trials:   20000,
		LossRate: 1e-3,
		Seed:     1,
		Gap:      2 * simtime.Microsecond,
	}
}

// FCTResult is one line of a Figure 10/11/12 plot.
type FCTResult struct {
	Transport  Transport
	Protection Protection
	FlowSize   int
	Trials     int

	// FCTs in microseconds.
	FCTs *stats.Dist
	// Flows carries the per-trial statistics (Figure 13 classification).
	Flows []transport.FlowStats
	// DroppedSegs[i] lists the segment indices corruption-dropped during
	// trial i (including LinkGuardian-recovered ones).
	DroppedSegs [][]int
}

// P returns the FCT percentile in µs.
func (r FCTResult) P(p float64) float64 { return r.FCTs.Percentile(p) }

func (r FCTResult) String() string {
	return fmt.Sprintf("%-8v %-7v size=%-8d p50=%8.1fµs p99=%8.1fµs p99.9=%8.1fµs p99.99=%8.1fµs",
		r.Transport, r.Protection, r.FlowSize, r.P(50), r.P(99), r.P(99.9), r.P(99.99))
}

// RunFCT measures flow completion times for sequential trials of one
// (transport, protection) configuration — the core of Figures 10, 11, 12
// and Table 2.
func RunFCT(tr Transport, prot Protection, opts FCTOpts) FCTResult {
	return runFCTWithConfig(tr, prot, fctConfig(prot, opts), opts)
}

// fctConfig is the LinkGuardian configuration of an FCT run: provisioned
// for the run's loss rate, NonBlocking under LGNB.
func fctConfig(prot Protection, opts FCTOpts) core.Config {
	cfg := core.NewConfig(opts.Rate, opts.LossRate)
	if prot == LGNB {
		cfg.Mode = core.NonBlocking
	}
	return cfg
}

// fctBlockSize is the number of trials one shard simulates serially on its
// own testbed. It is a function of nothing — in particular not of the
// worker count — so the shard decomposition, per-shard seeds, and therefore
// the merged results are identical at any parallelism.
const fctBlockSize = 250

// runFCTWithConfig allows Table 2's ablation variants to customize the
// LinkGuardian configuration.
func runFCTWithConfig(tr Transport, prot Protection, cfg core.Config, opts FCTOpts) FCTResult {
	start := transportFlows(tr, opts)
	return runBlocks(opts, func(o FCTOpts) *fctChain {
		return runBlock(prot, cfg, o, start)
	}).result(tr, prot, opts.FlowSize)
}

// flowStarter starts flow id on tb and reports its statistics to done.
type flowStarter func(tb *Testbed, id int, done func(transport.FlowStats))

// transportFlows starts opts.FlowSize-byte flows of tr; opts.RTOMin, when
// set, overrides TCP's minimum retransmission timeout.
func transportFlows(tr Transport, opts FCTOpts) flowStarter {
	if tr == TransRDMA || tr == TransRDMASR {
		o := transport.DefaultRDMAOpts()
		o.SelectiveRepeat = tr == TransRDMASR
		return func(tb *Testbed, id int, done func(transport.FlowStats)) {
			transport.StartRDMAWrite(tb.Sim, tb.EP1, tb.EP2, id, opts.FlowSize, o, done)
		}
	}
	v := transport.DCTCP
	switch tr {
	case TransCubic:
		v = transport.Cubic
	case TransBBR:
		v = transport.BBR
	}
	o := transport.DefaultTCPOpts(v)
	if opts.RTOMin > 0 {
		o.RTOMin = opts.RTOMin
	}
	return tcpFlows(o, func() int { return opts.FlowSize })
}

// tcpFlows starts TCP flows with o, each sized by size.
func tcpFlows(o transport.TCPOpts, size func() int) flowStarter {
	return func(tb *Testbed, id int, done func(transport.FlowStats)) {
		transport.StartTCPFlow(tb.Sim, tb.EP1, tb.EP2, id, size(), o, done)
	}
}

// fctChain is one testbed's chain of back-to-back flows. Its series are in
// trial order, so len(fcts) is also the index of the running trial.
type fctChain struct {
	trials  int
	fcts    []float64
	flows   []transport.FlowStats
	dropped [][]int // per trial; nil on a lossless link
}

func (c *fctChain) pending() bool { return len(c.fcts) < c.trials }

// startChain arms tb for a chain of opts.Trials back-to-back flows and
// launches the first. LG and LGNB enable LinkGuardian. Any protection but
// NoLoss corrupts the protected direction with the i.i.d. model — or a
// Gilbert–Elliott chain when opts.MeanBurst > 0 — drawing from tb.Sim.Rng
// exactly as a Link.SetLoss model would, and logs every corrupted data
// segment against the running trial for the Figure 13 analysis; frames
// without a segment payload (fabric cross traffic) are never logged. Each
// completion records the flow and starts the next one opts.Gap later.
func startChain(tb *Testbed, prot Protection, opts FCTOpts, start flowStarter) *fctChain {
	c := &fctChain{trials: opts.Trials, fcts: make([]float64, 0, opts.Trials),
		flows: make([]transport.FlowStats, 0, opts.Trials)}
	if prot == LG || prot == LGNB {
		tb.LG.Enable()
	}
	if prot != NoLoss {
		c.dropped = make([][]int, opts.Trials)
		loss := simnet.LossModel(simnet.IIDLoss{P: opts.LossRate})
		if opts.MeanBurst > 0 {
			loss = simnet.NewGilbertElliott(opts.LossRate, opts.MeanBurst)
		}
		tb.Link.DropFn = func(p *simnet.Packet, from *simnet.Ifc) bool {
			if from != tb.Link.A() {
				return false
			}
			drop := loss.Drops(tb.Sim.Rng)
			if seg, ok := p.Payload.(transport.SegmentInfo); ok && drop && c.pending() {
				i := len(c.fcts)
				c.dropped[i] = append(c.dropped[i], seg.Index())
			}
			return drop
		}
	}
	var launch func()
	done := func(st transport.FlowStats) {
		c.fcts = append(c.fcts, st.FCT.Seconds()*1e6)
		c.flows = append(c.flows, st)
		if c.pending() {
			tb.Sim.After(opts.Gap, launch)
		}
	}
	launch = func() { start(tb, len(c.fcts)+1, done) }
	launch()
	return c
}

// runChains advances sim — a testbed's or a fabric's — in 2ms slices until
// every chain has completed its trials. With LinkGuardian enabled the
// self-replenishing queues keep the event queue busy forever, so a fixed
// far-future horizon would simulate an idle link indefinitely; the slice
// budget (50ms per trial plus a second) only bounds a run that stops making
// progress.
func runChains(sim *simnet.Sim, opts FCTOpts, chains ...*fctChain) {
	const slice = 2 * simtime.Millisecond
	budget := int((simtime.Duration(opts.Trials)*(50*simtime.Millisecond+opts.Gap) + simtime.Second) / slice)
	running := func() bool {
		for _, c := range chains {
			if c.pending() {
				return true
			}
		}
		return false
	}
	for i := 0; i < budget && running(); i++ {
		sim.RunFor(slice)
	}
}

// runBlock runs one chain of opts.Trials flows on a fresh testbed seeded
// opts.Seed.
func runBlock(prot Protection, cfg core.Config, opts FCTOpts, start flowStarter) *fctChain {
	tb := NewTestbed(opts.Seed, opts.Rate, cfg)
	c := startChain(tb, prot, opts, start)
	runChains(tb.Sim, opts, c)
	return c
}

// runBlocks shards opts.Trials into fctBlockSize blocks executed across the
// parallel engine — block b with its own trial count and the seed
// parallel.SeedFor(opts.Seed, b) — and concatenates the blocks' series in
// block order.
func runBlocks(opts FCTOpts, block func(FCTOpts) *fctChain) *fctChain {
	blocks := parallel.Map(parallel.Blocks(opts.Trials, fctBlockSize), func(b int) *fctChain {
		lo, hi := parallel.BlockBounds(opts.Trials, fctBlockSize, b)
		o := opts
		o.Trials, o.Seed = hi-lo, parallel.SeedFor(opts.Seed, b)
		return block(o)
	})
	all := &fctChain{fcts: make([]float64, 0, opts.Trials), flows: make([]transport.FlowStats, 0, opts.Trials)}
	for _, c := range blocks {
		all.fcts = append(all.fcts, c.fcts...)
		all.flows = append(all.flows, c.flows...)
		all.dropped = append(all.dropped, c.dropped...)
	}
	return all
}

// result is the chain as one line of a Figure 10/11/12 plot.
func (c *fctChain) result(tr Transport, prot Protection, size int) FCTResult {
	return FCTResult{
		Transport: tr, Protection: prot, FlowSize: size, Trials: len(c.fcts),
		FCTs: stats.NewDist(c.fcts), Flows: c.flows, DroppedSegs: c.dropped,
	}
}

// fctCell is one (transport, protection) cell of a figure grid.
type fctCell struct {
	tr   Transport
	prot Protection
}

// fctGrid expands the (transport x protection) cross product in row-major
// order and runs every cell through the parallel engine, merging results in
// cell order. Each cell's RunFCT additionally shards its own trials, so
// figure grids keep all workers busy even with few cells.
func fctGrid(transports []Transport, prots []Protection, size, trials int) []FCTResult {
	var cells []fctCell
	for _, tr := range transports {
		for _, prot := range prots {
			cells = append(cells, fctCell{tr, prot})
		}
	}
	return parallel.Map(len(cells), func(i int) FCTResult {
		opts := DefaultFCTOpts(size)
		opts.Trials = trials
		return RunFCT(cells[i].tr, cells[i].prot, opts)
	})
}

// Figure10 runs Google all-RPC modal-size (143 B) flows over DCTCP and RDMA.
func Figure10(trials int) []FCTResult {
	return fctGrid([]Transport{TransDCTCP, TransRDMA},
		[]Protection{NoLoss, LG, LGNB, LossOnly}, workload.GoogleRPCModalSize, trials)
}

// Figure11 repeats the comparison with 24,387B (17-packet) flows, the DCTCP
// web-search modal size, for DCTCP, BBR and RDMA.
func Figure11(trials int) []FCTResult {
	return fctGrid([]Transport{TransDCTCP, TransBBR, TransRDMA},
		[]Protection{NoLoss, LG, LGNB, LossOnly}, 24387, trials)
}

// Figure12 runs 2MB DCTCP flows (Alibaba storage maximum).
func Figure12(trials int) []FCTResult {
	return fctGrid([]Transport{TransDCTCP},
		[]Protection{NoLoss, LG, LGNB, LossOnly}, 2<<20, trials)
}

// Table2Row is one column of Table 2: FCT percentiles for one mechanism
// combination.
type Table2Row struct {
	Name                     string
	P99, P999, P9999, P99999 float64 // µs
	StdDev                   float64
}

// Table2 reproduces the mechanism ablation: no loss, loss, plain link-local
// ReTx, ReTx+Order, ReTx+Tail, and ReTx+Tail+Order (= LinkGuardian), for
// 24,387B DCTCP flows.
func Table2(trials int) []Table2Row {
	opts := DefaultFCTOpts(24387)
	opts.Trials = trials

	mk := func(name string, res FCTResult) Table2Row {
		return Table2Row{
			Name: name, P99: res.P(99), P999: res.P(99.9),
			P9999: res.P(99.99), P99999: res.P(99.999),
			StdDev: res.FCTs.StdDev(),
		}
	}
	type variant struct {
		name string
		prot Protection
		mode core.Mode
		tail bool
	}
	variants := []variant{
		{"NoLoss", NoLoss, core.Ordered, true},
		{"Loss", LossOnly, core.Ordered, true},
		{"ReTx", LGNB, core.NonBlocking, false},
		{"ReTx+Order", LG, core.Ordered, false},
		{"ReTx+Tail", LGNB, core.NonBlocking, true},
		{"ReTx+Tail+Order", LG, core.Ordered, true},
	}
	return parallel.Map(len(variants), func(i int) Table2Row {
		v := variants[i]
		if v.prot == NoLoss || v.prot == LossOnly {
			return mk(v.name, RunFCT(TransDCTCP, v.prot, opts))
		}
		cfg := core.NewConfig(opts.Rate, opts.LossRate)
		cfg.Mode = v.mode
		cfg.TailLossDetection = v.tail
		return mk(v.name, runFCTWithConfig(TransDCTCP, v.prot, cfg, opts))
	})
}

func (r Table2Row) String() string {
	return fmt.Sprintf("%-16s 99%%=%8.1f 99.9%%=%8.1f 99.99%%=%8.1f 99.999%%=%8.1f std=%8.1f",
		r.Name, r.P99, r.P999, r.P9999, r.P99999, r.StdDev)
}

// Figure13 classifies the "affected" flows of a 24,387B DCTCP + LG_NB run
// into the paper's four groups (§4.4): whether the SACKed bytes were enough
// to reduce cwnd, whether the loss was a tail loss (within the last 3
// packets), and whether data was still pending at the reduction.
type Figure13Result struct {
	Total, Affected        int
	GrpA, GrpB, GrpC, GrpD int
}

// Figure13 runs the experiment and classification.
func Figure13(trials int) Figure13Result {
	opts := DefaultFCTOpts(24387)
	opts.Trials = trials
	res := RunFCT(TransDCTCP, LGNB, opts)
	return ClassifyFigure13(res)
}

// ClassifyFigure13 applies the Figure 13 decision tree to a completed LG_NB
// run.
func ClassifyFigure13(res FCTResult) Figure13Result {
	out := Figure13Result{Total: res.Trials}
	mss := 1448
	nseg := (res.FlowSize + mss - 1) / mss
	for i, st := range res.Flows {
		if !st.EverSACKed {
			continue // not affected
		}
		out.Affected++
		tail := false
		if i < len(res.DroppedSegs) {
			for _, seg := range res.DroppedSegs[i] {
				if seg >= nseg-3 {
					tail = true
				}
			}
		}
		if st.MaxSackedBytes <= 2*mss {
			if tail {
				out.GrpB++
			} else {
				out.GrpA++
			}
		} else {
			if st.ReducedWhilePending {
				out.GrpD++
			} else {
				out.GrpC++
			}
		}
	}
	return out
}

func (r Figure13Result) String() string {
	return fmt.Sprintf("affected=%d/%d  A=%d B=%d C=%d D=%d",
		r.Affected, r.Total, r.GrpA, r.GrpB, r.GrpC, r.GrpD)
}
