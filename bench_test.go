// Package bench is the benchmark harness that regenerates every table and
// figure of the paper's evaluation (see DESIGN.md §3 for the experiment
// index and EXPERIMENTS.md for paper-vs-measured results). Each benchmark
// runs a scaled-down instance of the corresponding experiment and reports
// its headline metrics via b.ReportMetric; cmd/paper prints the full rows.
//
// Run with: go test -bench=. -benchmem
package bench

import (
	"testing"
	"time"

	"linkguardian/internal/core"
	"linkguardian/internal/experiments"
	"linkguardian/internal/fleetsim"
	"linkguardian/internal/phy"
	"linkguardian/internal/simtime"
	"linkguardian/internal/workload"
)

// ---------------------------------------------------------- Figures 1-2 --

func BenchmarkFigure1_AttenuationLoss(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		for _, tr := range phy.AllTransceivers {
			for _, p := range phy.Figure1Series(tr, 9, 18, 0.25) {
				last = p.LossRate
			}
		}
	}
	b.ReportMetric(last, "final-loss-rate")
}

func BenchmarkFigure2_FlowSizeCDFs(b *testing.B) {
	single := 0.0
	for i := 0; i < b.N; i++ {
		for _, w := range workload.All() {
			w.CDFSeries(1, 30e6, 64)
			single = w.FractionWithin(1448)
		}
	}
	b.ReportMetric(single, "last-single-pkt-frac")
}

func BenchmarkTable1_LossBuckets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table1(100000, int64(i)+1)
	}
}

// ----------------------------------------------------- Figure 8 family --

func stressOpts() experiments.StressOpts {
	o := experiments.DefaultStressOpts()
	o.Duration = 5 * simtime.Millisecond
	return o
}

func BenchmarkFigure8_EffectiveLossAndSpeed(b *testing.B) {
	var lg, nb experiments.StressResult
	for i := 0; i < b.N; i++ {
		nb = experiments.RunStress(simtime.Rate100G, 1e-3, core.NonBlocking, stressOpts())
		lg = experiments.RunStress(simtime.Rate100G, 1e-3, core.Ordered, stressOpts())
	}
	b.ReportMetric(lg.EffSpeedFrac*100, "LG-effspeed-%")
	b.ReportMetric(nb.EffSpeedFrac*100, "LGNB-effspeed-%")
	b.ReportMetric(lg.EffLossAnalytic, "effloss-analytic")
}

func BenchmarkFigure14_BufferUsage(b *testing.B) {
	var r experiments.StressResult
	for i := 0; i < b.N; i++ {
		r = experiments.RunStress(simtime.Rate100G, 1e-3, core.Ordered, stressOpts())
	}
	b.ReportMetric(r.TxBuf.P50/1024, "txbuf-p50-KB")
	b.ReportMetric(r.RxBuf.P50/1024, "rxbuf-p50-KB")
}

func BenchmarkFigure19_ReTxDelay(b *testing.B) {
	var r experiments.StressResult
	for i := 0; i < b.N; i++ {
		r = experiments.RunStress(simtime.Rate25G, 1e-3, core.Ordered, stressOpts())
	}
	b.ReportMetric(r.RetxDelays.Percentile(50), "retx-delay-p50-us")
	b.ReportMetric(r.RetxDelays.Max(), "retx-delay-max-us")
}

func BenchmarkTable4_RecircOverhead(b *testing.B) {
	var r experiments.StressResult
	for i := 0; i < b.N; i++ {
		r = experiments.RunStress(simtime.Rate100G, 1e-3, core.Ordered, stressOpts())
	}
	b.ReportMetric(r.RecircTx*100, "recirc-tx-%")
	b.ReportMetric(r.RecircRx*100, "recirc-rx-%")
}

// ------------------------------------------------------------- Figure 9 --

func BenchmarkFigure9_DCTCPTimeline(b *testing.B) {
	var a, bb experiments.TimelineResult
	for i := 0; i < b.N; i++ {
		a, bb = experiments.Figure9()
	}
	b.ReportMetric(a.LGGbps, "9a-LG-Gbps")
	b.ReportMetric(bb.LGGbps, "9b-noBP-Gbps")
	b.ReportMetric(float64(bb.RxBufOverflows), "9b-overflows")
}

func BenchmarkFigure21_CubicBBRTimeline(b *testing.B) {
	var cu, bbr experiments.TimelineResult
	for i := 0; i < b.N; i++ {
		cu, bbr = experiments.Figure21()
	}
	b.ReportMetric(cu.LGGbps, "cubic-LG-Gbps")
	b.ReportMetric(bbr.LGGbps, "bbr-LG-Gbps")
}

// ----------------------------------------------------- FCT experiments --

const benchTrials = 5000

func BenchmarkFigure10_OnePacketFCT(b *testing.B) {
	var loss, lg experiments.FCTResult
	for i := 0; i < b.N; i++ {
		opts := experiments.DefaultFCTOpts(143)
		opts.Trials = benchTrials
		loss = experiments.RunFCT(experiments.TransDCTCP, experiments.LossOnly, opts)
		lg = experiments.RunFCT(experiments.TransDCTCP, experiments.LG, opts)
	}
	b.ReportMetric(loss.P(99.99), "loss-p9999-us")
	b.ReportMetric(lg.P(99.99), "LG-p9999-us")
}

func BenchmarkFigure11_MultiPacketFCT(b *testing.B) {
	var loss, lg experiments.FCTResult
	for i := 0; i < b.N; i++ {
		opts := experiments.DefaultFCTOpts(24387)
		opts.Trials = benchTrials
		loss = experiments.RunFCT(experiments.TransRDMA, experiments.LossOnly, opts)
		lg = experiments.RunFCT(experiments.TransRDMA, experiments.LG, opts)
	}
	b.ReportMetric(loss.P(99.9), "rdma-loss-p999-us")
	b.ReportMetric(lg.P(99.9), "rdma-LG-p999-us")
}

func BenchmarkFigure12_LargeFlowFCT(b *testing.B) {
	var loss, lg experiments.FCTResult
	for i := 0; i < b.N; i++ {
		opts := experiments.DefaultFCTOpts(2 << 20)
		opts.Trials = 300
		loss = experiments.RunFCT(experiments.TransDCTCP, experiments.LossOnly, opts)
		lg = experiments.RunFCT(experiments.TransDCTCP, experiments.LG, opts)
	}
	b.ReportMetric(loss.P(99), "2MB-loss-p99-us")
	b.ReportMetric(lg.P(99), "2MB-LG-p99-us")
}

func BenchmarkFigure13_FlowClassification(b *testing.B) {
	var r experiments.Figure13Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure13(benchTrials)
	}
	b.ReportMetric(float64(r.Affected), "affected")
	b.ReportMetric(float64(r.GrpD), "groupD")
}

func BenchmarkTable2_MechanismAblation(b *testing.B) {
	var rows []experiments.Table2Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table2(benchTrials)
	}
	for _, r := range rows {
		if r.Name == "Loss" {
			b.ReportMetric(r.P999, "loss-p999-us")
		}
		if r.Name == "ReTx+Tail+Order" {
			b.ReportMetric(r.P999, "full-p999-us")
		}
	}
}

// ------------------------------------------------------------- Table 3 --

func BenchmarkTable3_WharfComparison(b *testing.B) {
	var rows []experiments.Table3Row
	for i := 0; i < b.N; i++ {
		opts := experiments.DefaultTable3Opts()
		opts.FlowBytes = 4 << 20
		rows = experiments.Table3(opts)
	}
	for _, r := range rows {
		switch r.Name {
		case "None":
			b.ReportMetric(r.Goodputs[4], "none-1e2-Gbps")
		case "Wharf":
			b.ReportMetric(r.Goodputs[4], "wharf-1e2-Gbps")
		case "LinkGuardian":
			b.ReportMetric(r.Goodputs[4], "LG-1e2-Gbps")
		}
	}
}

// ------------------------------------------------------- Fleet figures --

func fleetOpts() experiments.FleetOpts {
	return experiments.FleetOpts{
		Pods:        32,
		Horizon:     90 * 24 * time.Hour,
		SampleEvery: 12 * time.Hour,
		Seed:        1,
	}
}

func BenchmarkFigure15_FleetSnapshot(b *testing.B) {
	var fc experiments.FleetComparison
	for i := 0; i < b.N; i++ {
		fc = experiments.RunFleet(0.75, fleetOpts())
	}
	v, c := fc.Figure15Window(30*24*time.Hour, 7*24*time.Hour)
	if len(v) > 0 {
		b.ReportMetric(v[len(v)-1].TotalPenalty, "vanilla-penalty")
		b.ReportMetric(c[len(c)-1].TotalPenalty, "combined-penalty")
	}
}

func BenchmarkFigure16_FleetYearCDF(b *testing.B) {
	var fc experiments.FleetComparison
	for i := 0; i < b.N; i++ {
		fc = experiments.RunFleet(0.5, fleetOpts())
	}
	b.ReportMetric(fc.PenaltyGain.Percentile(50), "gain-p50")
	b.ReportMetric(fc.CapacityDecreasePP.Max(), "capdec-max-pp")
}

// ------------------------------------------------------------ Figure 20 --

func BenchmarkFigure20_ConsecutiveLoss(b *testing.B) {
	var n int
	for i := 0; i < b.N; i++ {
		pts := experiments.Figure20(0.05, true, 2_000_000, int64(i)+1)
		n = experiments.MaxRunCovered(pts, 0.999999)
	}
	b.ReportMetric(float64(n), "registers-for-6nines")
}

// ------------------------------------------------- Ablations (DESIGN §5) --

// BenchmarkAblation_RetxCopies sweeps N and verifies Equation 2's tradeoff:
// more copies, lower residual loss, slightly lower effective speed.
func BenchmarkAblation_RetxCopies(b *testing.B) {
	var speeds [3]float64
	for i := 0; i < b.N; i++ {
		for j, n := range []int{1, 2, 4} {
			cfg := core.NewConfig(simtime.Rate100G, 1e-3)
			cfg.RetxCopies = n
			r := runStressWithConfig(cfg, simtime.Rate100G, 1e-3)
			speeds[j] = r.EffSpeedFrac
		}
	}
	b.ReportMetric(speeds[0]*100, "N1-effspeed-%")
	b.ReportMetric(speeds[2]*100, "N4-effspeed-%")
}

// BenchmarkAblation_AckNoTimeout sweeps the receiver stall timeout.
func BenchmarkAblation_AckNoTimeout(b *testing.B) {
	var fast, slow experiments.StressResult
	for i := 0; i < b.N; i++ {
		cfg := core.NewConfig(simtime.Rate100G, 1e-2)
		cfg.AckNoTimeout = 5 * simtime.Microsecond
		fast = runStressWithConfig(cfg, simtime.Rate100G, 1e-2)
		cfg.AckNoTimeout = 20 * simtime.Microsecond
		slow = runStressWithConfig(cfg, simtime.Rate100G, 1e-2)
	}
	b.ReportMetric(float64(fast.Timeouts), "5us-timeouts")
	b.ReportMetric(float64(slow.Timeouts), "20us-timeouts")
}

// BenchmarkAblation_RDMASelectiveRepeat compares go-back-N with the
// selective-repeat extension under LG_NB (§5 future work).
func BenchmarkAblation_RDMASelectiveRepeat(b *testing.B) {
	var gbn, sr experiments.FCTResult
	for i := 0; i < b.N; i++ {
		opts := experiments.DefaultFCTOpts(24387)
		opts.Trials = 3000
		gbn = experiments.RunFCT(experiments.TransRDMA, experiments.LGNB, opts)
		sr = experiments.RunFCT(experiments.TransRDMASR, experiments.LGNB, opts)
	}
	b.ReportMetric(gbn.P(99.9), "goBackN-p999-us")
	b.ReportMetric(sr.P(99.9), "selRepeat-p999-us")
}

// runStressWithConfig is a helper mirroring experiments.RunStress but with
// a caller-supplied LinkGuardian configuration.
func runStressWithConfig(cfg core.Config, rate simtime.Rate, loss float64) experiments.StressResult {
	return experiments.RunStressConfig(cfg, rate, loss, stressOpts())
}

// BenchmarkAblation_IncrementalDeployment sweeps §5's partial-deployment
// fraction on the fleet simulation.
func BenchmarkAblation_IncrementalDeployment(b *testing.B) {
	var p25, p100 float64
	for i := 0; i < b.N; i++ {
		sum := func(frac float64) float64 {
			res := fleetsim.Run(fleetsim.Config{
				Fabric:         fleetsim.Fabric{Pods: 16},
				Horizon:        90 * 24 * time.Hour,
				SampleEvery:    12 * time.Hour,
				Seed:           7,
				Constraint:     0.75,
				DeployFraction: frac,
			}, fleetsim.LinkGuardian{})
			s := 0.0
			for _, x := range res.Samples {
				s += x.TotalPenalty
			}
			return s
		}
		p25 = sum(0.25)
		p100 = sum(1.0)
	}
	b.ReportMetric(p25, "penalty-sum-25pct")
	b.ReportMetric(p100, "penalty-sum-full")
}
