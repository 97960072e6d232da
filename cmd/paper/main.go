// Command paper regenerates every table and figure of the LinkGuardian
// paper's evaluation on the simulated testbed and prints the same rows and
// series the paper reports.
//
// Usage:
//
//	paper [-only fig8,table3,...] [-scale 0.1] [-workers 0]
//	      [-metrics-out metrics.json] [-trace trace.json]
//	      [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// Experiment ids: fig1 fig2 fig8 fig9 fig10 fig11 fig12 fig13 fig14 fig15
// fig16 fig19 fig20 fig21 table1 table2 table3 table4, plus the extension
// experiments designspace and workload (run only when named explicitly).
// By default all paper figures run. -scale multiplies trial counts and
// durations (1.0 = the scaled-down defaults documented in EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"linkguardian/internal/core"
	"linkguardian/internal/experiments"
	"linkguardian/internal/obs"
	"linkguardian/internal/parallel"
	"linkguardian/internal/results"
	"linkguardian/internal/simtime"
	"linkguardian/internal/workload"
)

func main() {
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	scale := flag.Float64("scale", 1.0, "scale factor for trial counts and durations")
	workers := flag.Int("workers", 0, "parallel worker count (0 = all cores); results are identical at any setting")
	segments := flag.Int("segments", 4, "fabric segments for the opt-in fabric experiment")
	metricsOut := flag.String("metrics-out", "", "write the Figure 8 grid's merged metrics snapshot as JSON (runs the grid if not selected); byte-identical at any -workers")
	resultsDir := flag.String("results-dir", "", "stream the Figure 8 grid's per-cell runs into the results store at this directory (runs the grid if not selected); content hashes are identical at any -workers")
	tracePath := flag.String("trace", "", "write the canonical stress cell's link trace (.jsonl = JSONL, else Chrome trace_event)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile")
	memprofile := flag.String("memprofile", "", "write a heap profile")
	flag.Parse()
	parallel.SetWorkers(*workers)

	stopProf, err := obs.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}
	run := func(id string) bool { return len(want) == 0 || want[id] }

	if run("fig1") {
		figure1()
	}
	if run("fig2") {
		figure2()
	}
	if run("table1") {
		table1()
	}
	var fig8 []experiments.StressResult
	if run("fig8") || run("fig14") || run("fig19") || run("table4") || *metricsOut != "" || *resultsDir != "" {
		fig8 = figure8Family(*scale, run)
	}
	if run("fig9") {
		figure9()
	}
	if run("fig10") {
		fcts("Figure 10: top FCTs, 143B single-packet flows, 100G, 1e-3 loss",
			experiments.Figure10(scaleInt(20000, *scale)))
	}
	if run("fig11") {
		fcts("Figure 11: top FCTs, 24,387B (17-packet) flows, 100G, 1e-3 loss",
			experiments.Figure11(scaleInt(12000, *scale)))
	}
	if run("fig12") {
		fcts("Figure 12: top FCTs, 2MB DCTCP flows, 100G, 1e-3 loss",
			experiments.Figure12(scaleInt(1500, *scale)))
	}
	if run("fig13") {
		figure13(*scale)
	}
	if run("table2") {
		table2(*scale)
	}
	if run("table3") {
		table3()
	}
	if run("fig15") || run("fig16") {
		fleet(*scale)
	}
	if run("fig20") {
		figure20()
	}
	if run("fig21") {
		figure21()
	}
	// Extension experiments are opt-in: they run only when named.
	if want["designspace"] {
		designSpace(*scale)
	}
	if want["workload"] {
		workloadFCT(*scale)
	}
	if want["fabric"] {
		fabricFCT(*scale, *segments)
	}
	if want["tracks"] {
		tracksAblation(*scale)
	}

	if *metricsOut != "" {
		// Merge the grid's per-cell snapshots in row-major cell order — the
		// same left-fold at any worker count, so the file is byte-identical.
		snaps := make([]obs.Snapshot, len(fig8))
		for i, r := range fig8 {
			snaps[i] = r.Metrics
		}
		if err := obs.WriteMetricsFile(*metricsOut, obs.MergeSnapshots(snaps...)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *resultsDir != "" {
		if err := ingestFig8(*resultsDir, *scale, fig8); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *tracePath != "" {
		// The canonical trace cell: 100G, 1e-3 loss, Ordered mode.
		o := experiments.DefaultStressOpts()
		o.TraceCap = 4096
		res := experiments.RunStress(simtime.Rate100G, 1e-3, core.Ordered, o)
		if err := obs.WriteTraceFile(*tracePath, res.Trace); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// ingestFig8 stores one run per Figure 8 grid cell: every protocol counter
// of the cell's metrics snapshot plus the headline stress metrics become
// records, content-hashed so a re-run of the same configuration
// deduplicates. -workers never appears in the config and snapshots are
// worker-invariant, so the store content is too.
func ingestFig8(dir string, scale float64, fig8 []experiments.StressResult) error {
	cfg := map[string]string{"scale": fmt.Sprintf("%g", scale)}
	runs := make([]*results.Run, 0, len(fig8))
	for _, r := range fig8 {
		name := fmt.Sprintf("fig8/%v-loss%.0e-%v", r.Rate, r.LossRate, r.Mode)
		run := results.FromSnapshot("paper", name, cfg, r.Metrics)
		run.Source = "cmd/paper"
		run.Records = append(run.Records,
			results.Record{Name: "eff_loss_observed", Value: r.EffLossObserved},
			results.Record{Name: "eff_loss_analytic", Value: r.EffLossAnalytic},
			results.Record{Name: "eff_speed_frac", Value: r.EffSpeedFrac},
			results.Record{Name: "packets_sent", Value: float64(r.PacketsSent), Unit: "count"},
			results.Record{Name: "recirc_tx_frac", Value: r.RecircTx},
			results.Record{Name: "recirc_rx_frac", Value: r.RecircRx},
		)
		runs = append(runs, run)
	}
	summary, err := results.Ingest(dir, runs...)
	if err != nil {
		return err
	}
	fmt.Println(summary)
	return nil
}

// designSpace and workloadFCT are extensions beyond the paper's figures
// (see EXPERIMENTS.md); they run only when requested via -only.

// tracksAblation crosses end-host fast recovery (T-RACKs-style ~100µs
// RTOmin) with link protection under i.i.d. and bursty corruption: does a
// faster end-host timer substitute for link-local retransmission?
func tracksAblation(scale float64) {
	header("T-RACKs ablation: end-host fast recovery vs link-local retransmission, 24,387B DCTCP, 1e-3 loss")
	for _, r := range experiments.TracksAblation(scaleInt(4000, scale)) {
		fmt.Println(r)
	}
}

func designSpace(scale float64) {
	header("Design space (Figure 3): e2e ReTx vs e2e duplication vs LinkGuardian")
	for _, r := range experiments.DesignSpace(scaleInt(12000, scale)) {
		fmt.Println(r)
	}
}

// fabricFCT is the multi-segment fabric FCT experiment on the sharded
// conservative engine: every segment runs 24,387B DCTCP flows over its own
// lossy protected link while cross-segment transit traffic rides the ring
// of cross-shard links. Shards execute on up to -workers goroutines, which
// never changes a byte of the output.
func fabricFCT(scale float64, segments int) {
	header(fmt.Sprintf("Fabric FCT: %d segments on the sharded engine, 24,387B DCTCP, 1e-3 loss", segments))
	opts := experiments.DefaultFCTOpts(24387)
	opts.Trials = scaleInt(2000, scale)
	for _, prot := range []experiments.Protection{experiments.NoLoss, experiments.LossOnly, experiments.LG} {
		results := experiments.RunFabricFCT(experiments.TransDCTCP, prot, opts, segments, 0, 0.05)
		for i, r := range results {
			fmt.Printf("s%d %v\n", i, r)
		}
	}
}

func workloadFCT(scale float64) {
	header("Workload-driven FCT: Google all-RPC size mix, 100G, 1e-3 loss")
	trials := scaleInt(8000, scale)
	for _, prot := range []experiments.Protection{experiments.NoLoss, experiments.LossOnly, experiments.LG} {
		r := experiments.RunWorkloadFCT(workload.GoogleAllRPC, prot, trials, 1)
		fmt.Printf("%-8v p50=%8.1fµs p99=%8.1fµs p99.9=%8.1fµs (n=%d)\n",
			r.Protection, r.FCTs.Percentile(50), r.FCTs.Percentile(99), r.FCTs.Percentile(99.9), r.Trials)
	}
}

func scaleInt(n int, s float64) int {
	v := int(float64(n) * s)
	if v < 100 {
		v = 100
	}
	return v
}

func header(s string) {
	fmt.Printf("\n=== %s ===\n", s)
}

func figure1() {
	header("Figure 1: packet loss rate vs optical attenuation (1518B frames)")
	series := experiments.Figure1()
	var names []string
	for n := range series {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%8s", "dB")
	for _, n := range names {
		fmt.Printf("  %18s", n)
	}
	fmt.Println()
	for i := range series[names[0]] {
		fmt.Printf("%8.1f", series[names[0]][i].AttenDB)
		for _, n := range names {
			fmt.Printf("  %18.3e", series[n][i].LossRate)
		}
		fmt.Println()
	}
}

func figure2() {
	header("Figure 2: flow-size CDFs of datacenter workloads")
	series := experiments.Figure2()
	var names []string
	for n := range series {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pts := series[n]
		fmt.Printf("%-18s", n)
		for _, anchor := range []float64{100, 1024, 1500, 10e3, 100e3, 1e6} {
			// Nearest series point at or above the anchor.
			cdf := pts[len(pts)-1][1]
			for _, p := range pts {
				if p[0] >= anchor {
					cdf = p[1]
					break
				}
			}
			fmt.Printf("  P(<=%6.0fB)=%.2f", anchor, cdf)
		}
		fmt.Println()
	}
}

func table1() {
	header("Table 1: corruption loss-rate buckets (generator validation)")
	for _, c := range experiments.Table1(200000, 1) {
		fmt.Println(c)
	}
}

func figure8Family(scale float64, run func(string) bool) []experiments.StressResult {
	header("Figure 8: effective loss rate and effective link speed (stress test)")
	opts := experiments.DefaultStressOpts()
	opts.Duration = simtime.Duration(float64(opts.Duration) * scale)
	results := experiments.Figure8(opts)
	for _, r := range results {
		fmt.Println(r)
	}
	if run("fig14") {
		header("Figure 14: packet buffer usage (KB; min/p25/p50/p75/max)")
		for _, r := range results {
			fmt.Printf("%4s loss=%.0e %-5s TX[%s] RX[%s]\n", r.Rate, r.LossRate, r.Mode, kb(r.TxBuf), kb(r.RxBuf))
		}
	}
	if run("fig19") {
		header("Figure 19: retransmission delay distribution (µs)")
		for _, r := range results {
			if r.Mode != core.Ordered || r.RetxDelays.N() == 0 {
				continue
			}
			fmt.Printf("%4s loss=%.0e p50=%.2f p90=%.2f p99=%.2f max=%.2f (n=%d)\n",
				r.Rate, r.LossRate, r.RetxDelays.Percentile(50), r.RetxDelays.Percentile(90),
				r.RetxDelays.Percentile(99), r.RetxDelays.Max(), r.RetxDelays.N())
		}
	}
	if run("table4") {
		header("Table 4: recirculation overhead (% of pipeline capacity)")
		for _, r := range results {
			fmt.Printf("%4s loss=%.0e %-5s TX=%.3f%% RX=%.3f%%\n",
				r.Rate, r.LossRate, r.Mode, r.RecircTx*100, r.RecircRx*100)
		}
	}
	return results
}

func kb(s interface{ String() string }) string { return s.String() }

func figure9() {
	header("Figure 9: DCTCP timeline with corruption onset and LG activation")
	a, b := experiments.Figure9()
	fmt.Printf("9a (backpressure on):  %v\n", a)
	fmt.Printf("9b (backpressure off): %v\n", b)
	fmt.Println("9a time series (ms, Gbps, qdepthKB, rxbufKB, e2eReTx):")
	for i, p := range a.Points {
		if i%10 != 0 {
			continue
		}
		fmt.Printf("  t=%6.1f  %6.2f  %7.1f  %6.1f  %d\n",
			p.At.Seconds()*1e3, p.SendGbps, float64(p.QDepth)/1024, float64(p.RxBuf)/1024, p.E2EReTx)
	}
}

func fcts(title string, results []experiments.FCTResult) {
	header(title)
	for _, r := range results {
		fmt.Println(r)
	}
}

func figure13(scale float64) {
	header("Figure 13: classification of affected 24,387B DCTCP flows (LG_NB)")
	fmt.Println(experiments.Figure13(scaleInt(12000, scale)))
}

func table2(scale float64) {
	header("Table 2: mechanism ablation, top FCT percentiles (µs), 24,387B DCTCP")
	for _, r := range experiments.Table2(scaleInt(12000, scale)) {
		fmt.Println(r)
	}
}

func table3() {
	header("Table 3: TCP CUBIC goodput (Gb/s) on a 10G link")
	fmt.Printf("%-15s", "loss rate ->")
	for _, q := range experiments.Table3LossRates {
		fmt.Printf("  %5.0e", q)
	}
	fmt.Println()
	for _, r := range experiments.Table3(experiments.DefaultTable3Opts()) {
		fmt.Println(r)
	}
}

func fleet(scale float64) {
	header("Figures 15/16: large-scale deployment (CorrOpt vs LinkGuardian+CorrOpt)")
	opts := experiments.DefaultFleetOpts()
	if scale < 1 {
		opts.Horizon = time.Duration(float64(opts.Horizon) * scale)
	}
	for _, fc := range experiments.Figures15And16(opts) {
		fmt.Println(fc)
		v, c := fc.Figure15Window(30*24*time.Hour, 7*24*time.Hour)
		fmt.Println("  1-week snapshot (day, penaltyV, penaltyC, leastPathsV, leastPathsC, leastCapV, leastCapC):")
		for i := range v {
			if i%4 != 0 {
				continue
			}
			fmt.Printf("    %5.1f  %9.3e  %9.3e  %5.3f  %5.3f  %6.4f  %6.4f\n",
				v[i].At.Hours()/24, v[i].TotalPenalty, c[i].TotalPenalty,
				v[i].LeastPaths, c[i].LeastPaths, v[i].LeastPodCap, c[i].LeastPodCap)
		}
	}
}

func figure20() {
	header("Figure 20: consecutive packets lost (CDF), 1% and 5% loss")
	for _, loss := range []float64{0.01, 0.05} {
		for _, bursty := range []bool{false, true} {
			pts := experiments.Figure20(loss, bursty, 5_000_000, 1)
			kind := "iid"
			if bursty {
				kind = "bursty"
			}
			fmt.Printf("loss=%.0f%% %-6s 99.9999%% covered by runs <= %d:",
				loss*100, kind, experiments.MaxRunCovered(pts, 0.999999))
			for _, p := range pts {
				if p.Run > 8 {
					break
				}
				fmt.Printf("  %d:%.6f", p.Run, p.CDF)
			}
			fmt.Println()
		}
	}
}

func figure21() {
	header("Figure 21: CUBIC (25G) and BBR (10G) timelines")
	cubic, bbr := experiments.Figure21()
	fmt.Printf("21a: %v\n", cubic)
	fmt.Printf("21b: %v\n", bbr)
}

func init() {
	// Keep usage output deterministic for tests.
	flag.CommandLine.SetOutput(os.Stderr)
}
