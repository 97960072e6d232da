package experiments

import (
	"fmt"
	"math/rand"

	"linkguardian/internal/core"
	"linkguardian/internal/lgmodel"
	"linkguardian/internal/parallel"
	"linkguardian/internal/simtime"
	"linkguardian/internal/stats"
	"linkguardian/internal/transport"
	"linkguardian/internal/workload"
)

// DesignSpaceRow compares one point of the Figure 3 design space on the
// short-flow tail-FCT metric plus its bandwidth overhead.
type DesignSpaceRow struct {
	Name          string
	P50, P999     float64 // µs
	P9999         float64
	OverheadBytes float64 // extra wire bytes per flow, fraction of payload
}

func (r DesignSpaceRow) String() string {
	return fmt.Sprintf("%-18s p50=%7.1fµs p99.9=%8.1fµs p99.99=%8.1fµs overhead=%5.1f%%",
		r.Name, r.P50, r.P999, r.P9999, r.OverheadBytes*100)
}

// DesignSpace runs the paper's qualitative §2 comparison as an experiment:
// end-to-end retransmission (plain TCP), end-to-end duplication
// (redundancy), and link-local retransmission (LinkGuardian), all under the
// same corruption loss on single-packet RPCs. End-to-end duplication also
// masks the tail, but pays its bandwidth tax on every hop of every path —
// LinkGuardian's overhead is proportional to the loss rate and local to
// the corrupting link.
func DesignSpace(trials int) []DesignSpaceRow {
	opts := DefaultFCTOpts(143)
	opts.Trials = trials

	row := func(name string, res FCTResult, overhead float64) DesignSpaceRow {
		return DesignSpaceRow{
			Name: name, P50: res.P(50), P999: res.P(99.9), P9999: res.P(99.99),
			OverheadBytes: overhead,
		}
	}

	// LinkGuardian's overhead: N retransmitted copies per lost packet plus
	// the ~0.2% 3-byte header tax, local to the link and proportional to
	// the loss rate (§4.6).
	lgOverhead := opts.LossRate*float64(lgmodel.CopiesFor(opts.LossRate, 1e-8)) + 0.002
	runs := []struct {
		name     string
		overhead float64
		run      func() FCTResult
	}{
		{"e2e ReTx (TCP)", 0, func() FCTResult { return RunFCT(TransDCTCP, LossOnly, opts) }},
		{"e2e duplication", 1.0, func() FCTResult { return runDupFCT(opts, 1) }},
		{"LinkGuardian", lgOverhead, func() FCTResult { return RunFCT(TransDCTCP, LG, opts) }},
	}
	return parallel.Map(len(runs), func(i int) DesignSpaceRow {
		return row(runs[i].name, runs[i].run(), runs[i].overhead)
	})
}

// runDupFCT measures FCTs for DCTCP with end-to-end duplication, sharding
// trials into blocks like runFCTWithConfig.
func runDupFCT(opts FCTOpts, copies int) FCTResult {
	nblocks := parallel.Blocks(opts.Trials, fctBlockSize)
	blocks := parallel.Map(nblocks, func(b int) []float64 {
		lo, hi := parallel.BlockBounds(opts.Trials, fctBlockSize, b)
		o := opts
		o.Trials = hi - lo
		o.Seed = parallel.SeedFor(opts.Seed, b)
		return runDupFCTBlock(o, copies)
	})
	var fcts []float64
	for _, blk := range blocks {
		fcts = append(fcts, blk...)
	}
	res := FCTResult{Transport: TransDCTCP, Protection: LossOnly, FlowSize: opts.FlowSize}
	res.FCTs = stats.NewDist(fcts)
	res.Trials = len(fcts)
	return res
}

// runDupFCTBlock simulates one block of duplicated-flow trials.
func runDupFCTBlock(opts FCTOpts, copies int) []float64 {
	cfg := core.NewConfig(opts.Rate, opts.LossRate)
	tb := NewTestbed(opts.Seed, opts.Rate, cfg)
	tb.SetLoss(opts.LossRate)

	fcts := make([]float64, 0, opts.Trials)
	trial := 0
	topts := transport.DefaultTCPOpts(transport.DCTCP)
	topts.Duplicates = copies
	var launch func()
	done := func(st transport.FlowStats) {
		fcts = append(fcts, st.FCT.Seconds()*1e6)
		trial++
		if trial < opts.Trials {
			tb.Sim.After(opts.Gap, launch)
		}
	}
	launch = func() {
		transport.StartTCPFlow(tb.Sim, tb.EP1, tb.EP2, trial+1, opts.FlowSize, topts, done)
	}
	launch()
	deadline := tb.Sim.Now().Add(simtime.Duration(opts.Trials) * (50*simtime.Millisecond + opts.Gap))
	for trial < opts.Trials && tb.Sim.Now().Before(deadline) {
		tb.Sim.RunFor(2 * simtime.Millisecond)
	}
	return fcts
}

// WorkloadFCTResult aggregates tail-FCT improvements over a realistic
// flow-size mix drawn from one of the Figure 2 workloads.
type WorkloadFCTResult struct {
	Workload   string
	Trials     int
	Protection Protection
	FCTs       *stats.Dist
}

// RunWorkloadFCT samples flow sizes from a Figure 2 workload and measures
// the FCT distribution under one protection setting — the experiment the
// paper's §1 motivation implies: what a realistic RPC mix experiences on a
// corrupting link. Trials shard into blocks like RunFCT; each block draws
// its flow sizes from its own seed-derived stream.
func RunWorkloadFCT(w workload.Workload, prot Protection, trials int, seed int64) WorkloadFCTResult {
	nblocks := parallel.Blocks(trials, fctBlockSize)
	blocks := parallel.Map(nblocks, func(b int) []float64 {
		lo, hi := parallel.BlockBounds(trials, fctBlockSize, b)
		return runWorkloadFCTBlock(w, prot, hi-lo, parallel.SeedFor(seed, b))
	})
	var fcts []float64
	for _, blk := range blocks {
		fcts = append(fcts, blk...)
	}
	return WorkloadFCTResult{Workload: w.Name, Trials: len(fcts), Protection: prot, FCTs: stats.NewDist(fcts)}
}

// runWorkloadFCTBlock simulates one block of workload-sampled trials. Flow
// sizes come from a dedicated RNG stream derived from the block seed — not
// from the simulator RNG that also drives loss decisions — so runs that
// differ only in protection sample identical size sequences and compare
// paired trials rather than different workloads.
func runWorkloadFCTBlock(w workload.Workload, prot Protection, trials int, seed int64) []float64 {
	sizeRng := rand.New(rand.NewSource(parallel.SeedFor(seed, 1)))
	cfg := core.NewConfig(simtime.Rate100G, 1e-3)
	tb := NewTestbed(seed, simtime.Rate100G, cfg)
	if prot != NoLoss {
		tb.SetLoss(1e-3)
	}
	if prot == LG || prot == LGNB {
		if prot == LGNB {
			tb.LG.SetMode(core.NonBlocking)
		}
		tb.LG.Enable()
	}
	fcts := make([]float64, 0, trials)
	trial := 0
	var launch func()
	done := func(st transport.FlowStats) {
		fcts = append(fcts, st.FCT.Seconds()*1e6)
		trial++
		if trial < trials {
			tb.Sim.After(2*simtime.Microsecond, launch)
		}
	}
	launch = func() {
		size := w.Sample(sizeRng)
		transport.StartTCPFlow(tb.Sim, tb.EP1, tb.EP2, trial+1, size,
			transport.DefaultTCPOpts(transport.DCTCP), done)
	}
	launch()
	deadline := tb.Sim.Now().Add(simtime.Duration(trials) * 60 * simtime.Millisecond)
	for trial < trials && tb.Sim.Now().Before(deadline) {
		tb.Sim.RunFor(2 * simtime.Millisecond)
	}
	return fcts
}
