package experiments

import (
	"fmt"
	"math/rand"

	"linkguardian/internal/lgmodel"
	"linkguardian/internal/parallel"
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
	opts := DefaultFCTOpts(workload.GoogleRPCModalSize)
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

// runDupFCT measures FCTs for DCTCP with end-to-end duplication: every data
// segment is sent copies extra times over the unprotected corrupting link.
func runDupFCT(opts FCTOpts, copies int) FCTResult {
	o := transport.DefaultTCPOpts(transport.DCTCP)
	o.Duplicates = copies
	start := tcpFlows(o, func() int { return opts.FlowSize })
	cfg := fctConfig(LossOnly, opts)
	return runBlocks(opts, func(b FCTOpts) *fctChain {
		return runBlock(LossOnly, cfg, b, start)
	}).result(TransDCTCP, LossOnly, opts.FlowSize)
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
// corrupting 100G link at 1e-3 loss. Trials shard into blocks like RunFCT.
func RunWorkloadFCT(w workload.Workload, prot Protection, trials int, seed int64) WorkloadFCTResult {
	opts := DefaultFCTOpts(0)
	opts.Trials, opts.Seed = trials, seed
	cfg := fctConfig(prot, opts)
	all := runBlocks(opts, func(b FCTOpts) *fctChain {
		// Flow sizes come from a dedicated RNG stream derived from the block
		// seed — not from the simulator RNG that also drives loss decisions —
		// so runs that differ only in protection sample identical size
		// sequences and compare paired trials rather than different workloads.
		sizeRng := rand.New(rand.NewSource(parallel.SeedFor(b.Seed, 1)))
		dctcp := transport.DefaultTCPOpts(transport.DCTCP)
		return runBlock(prot, cfg, b, tcpFlows(dctcp, func() int { return w.Sample(sizeRng) }))
	})
	return WorkloadFCTResult{Workload: w.Name, Trials: len(all.fcts), Protection: prot, FCTs: stats.NewDist(all.fcts)}
}
