// Command fleetsim runs the §4.8 large-scale deployment simulation in two
// modes, both on internal/fleetsim's sharded engine.
//
// Legacy mode (default) reproduces the paper's CorrOpt vs
// LinkGuardian+CorrOpt comparison on a Facebook-fabric topology, reporting
// the Figure 15 time series and the Figure 16 distributions:
//
//	fleetsim [-pods 256] [-days 365] [-constraint 0.75] [-sample 6h]
//	         [-seed 1] [-series] [-workers 0]
//
// Matrix mode (-solutions) scales to multi-million-link fabrics and emits
// one Pareto table comparing repair solutions (cost vs capacity vs
// residual loss):
//
//	fleetsim -solutions all -links 1000000 [-years 1] [-constraint 0.75]
//	         [-sample 6h] [-seed 1] [-pods-per-shard 32] [-workers 0]
//	         [-metrics-out fleet_metrics.json] [-invariance]
//
// Results are byte-identical at any -workers in both modes.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"time"

	"linkguardian/internal/experiments"
	"linkguardian/internal/fleetsim"
	"linkguardian/internal/obs"
	"linkguardian/internal/parallel"
	"linkguardian/internal/results"
)

func main() {
	pods := flag.Int("pods", 256, "fabric pods (256 = ~100K links, the paper's scale; legacy mode)")
	days := flag.Int("days", 365, "simulated horizon in days (legacy mode)")
	constraint := flag.Float64("constraint", 0.75, "capacity constraint (least paths per ToR)")
	sample := flag.Duration("sample", 6*time.Hour, "metric sampling interval")
	seed := flag.Int64("seed", 1, "trace seed")
	series := flag.Bool("series", false, "print the full Figure 15 time series (legacy mode)")
	workers := flag.Int("workers", 0, "parallel worker count (0 = all cores); results are identical at any setting")

	solutions := flag.String("solutions", "", "matrix mode: comma-separated repair solutions (corropt,lg,wharf,p4protect) or 'all'")
	links := flag.Int("links", 1_000_000, "matrix mode: target link count, rounded up to whole pods")
	years := flag.Float64("years", 1, "matrix mode: simulated horizon in years")
	podsPerShard := flag.Int("pods-per-shard", 32, "matrix mode: pods per shard (fixed by config, never by -workers)")
	metricsOut := flag.String("metrics-out", "", "matrix mode: write per-shard fleet counters as a metrics JSON file")
	invariance := flag.Bool("invariance", false, "matrix mode: re-run at workers 1/2/4/8 and fail unless all outputs are byte-identical")
	resultsDir := flag.String("results-dir", "", "matrix mode: ingest one content-hashed run per solution's Pareto row into the results store at this directory")
	flag.Parse()
	parallel.SetWorkers(*workers)

	if *solutions == "" {
		legacy(*pods, *days, *constraint, *sample, *seed, *series)
		return
	}

	sols, err := fleetsim.ParseSolutions(*solutions)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetsim:", err)
		os.Exit(2)
	}
	cfg := fleetsim.Config{
		Links:        *links,
		Horizon:      time.Duration(*years * 365 * 24 * float64(time.Hour)),
		SampleEvery:  *sample,
		Seed:         *seed,
		Constraint:   *constraint,
		PodsPerShard: *podsPerShard,
	}

	if *invariance {
		if err := checkInvariance(cfg, sols); err != nil {
			fmt.Fprintln(os.Stderr, "fleetsim: worker invariance FAILED:", err)
			os.Exit(1)
		}
		fmt.Println("worker invariance ok: identical Pareto tables at workers 1/2/4/8")
	}

	start := time.Now()
	m := fleetsim.RunMatrix(cfg, sols)
	elapsed := time.Since(start)
	if err := m.WriteParetoTable(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fleetsim:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "simulated %d links x %d solutions in %s\n",
		m.Config.NumLinks(), len(m.Results), elapsed.Round(time.Millisecond))

	if *metricsOut != "" {
		reg := obs.NewRegistry()
		registerFleet(reg, "fleet", m.Results)
		if err := obs.WriteMetricsFile(*metricsOut, reg.Snapshot()); err != nil {
			fmt.Fprintln(os.Stderr, "fleetsim:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *metricsOut)
	}
	if *resultsDir != "" {
		if err := ingestPareto(*resultsDir, cfg, m); err != nil {
			fmt.Fprintln(os.Stderr, "fleetsim:", err)
			os.Exit(1)
		}
	}
}

// registerFleet exposes per-shard fleet-simulation counters under
// "<prefix>.<solution>.shard<i>": links simulated, corruption onsets,
// repair dispatches and completions, solution activations, and the peak
// repair backlog and corrupting-set sizes. Values are captured at
// registration time — the matrix has run to completion, so there is no
// live state to sample.
func registerFleet(r *obs.Registry, prefix string, results []fleetsim.SolutionResult) {
	for _, res := range results {
		for i, sh := range res.Shards {
			p := fmt.Sprintf("%s.%s.shard%d", prefix, res.Solution, i)
			r.GaugeFunc(p+".links", func() float64 { return float64(sh.Links) })
			r.CounterFunc(p+".onsets", func() uint64 { return sh.Onsets })
			r.CounterFunc(p+".repairs", func() uint64 { return sh.Repairs })
			r.CounterFunc(p+".activations", func() uint64 { return sh.Activations })
			r.CounterFunc(p+".disables", func() uint64 { return sh.Disables })
			r.GaugeFunc(p+".max_repair_backlog", func() float64 { return float64(sh.MaxRepairBacklog) })
			r.GaugeFunc(p+".max_corrupting", func() float64 { return float64(sh.MaxCorrupting) })
		}
	}
}

// ingestPareto stores one run per solution's Pareto row. The config
// carries the fabric scale and seed (never the worker count — matrix
// results are worker-invariant and the content hash must be too).
func ingestPareto(dir string, cfg fleetsim.Config, m fleetsim.MatrixResult) error {
	conf := map[string]string{
		"links":   fmt.Sprint(m.Config.NumLinks()),
		"horizon": m.Config.Horizon.String(),
		"seed":    fmt.Sprint(cfg.Seed),
	}
	rows := m.Pareto()
	runs := make([]*results.Run, 0, len(rows))
	for _, r := range rows {
		runs = append(runs, &results.Run{
			Kind:   "fleetsim",
			Name:   "pareto/" + r.Solution,
			Source: "cmd/fleetsim",
			Config: conf,
			Records: []results.Record{
				{Name: "cost", Value: r.Cost},
				{Name: "repairs", Value: float64(r.Repairs), Unit: "count"},
				{Name: "activations", Value: float64(r.Activations), Unit: "count"},
				{Name: "penalty.mean", Value: r.MeanPenalty},
				{Name: "penalty.p99", Value: r.P99Penalty},
				{Name: "penalty.max", Value: r.MaxPenalty},
				{Name: "least_paths.min", Value: r.MinLeastPaths},
				{Name: "least_cap.min", Value: r.MinLeastCap},
				{Name: "least_cap.mean", Value: r.MeanLeastCap},
			},
		})
	}
	summary, err := results.Ingest(dir, runs...)
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, summary)
	return nil
}

// legacy prints the §4.8 CorrOpt vs LinkGuardian+CorrOpt report (the
// golden test in internal/experiments pins its bytes).
func legacy(pods, days int, constraint float64, sample time.Duration, seed int64, series bool) {
	opts := experiments.FleetOpts{
		Pods:        pods,
		Horizon:     time.Duration(days) * 24 * time.Hour,
		SampleEvery: sample,
		Seed:        seed,
	}
	fc := experiments.RunFleet(constraint, opts)
	if err := experiments.WriteFleetReport(os.Stdout, fc, days, series); err != nil {
		fmt.Fprintln(os.Stderr, "fleetsim:", err)
		os.Exit(1)
	}
}

// checkInvariance renders the Pareto table at several worker counts and
// compares the bytes; any divergence is a determinism regression in the
// sharded engine. It restores the caller's worker count, so the timed run
// after it keeps the -workers cap.
func checkInvariance(cfg fleetsim.Config, sols []fleetsim.Solution) error {
	defer parallel.SetWorkers(parallel.Workers())
	var want []byte
	for _, w := range []int{1, 2, 4, 8} {
		parallel.SetWorkers(w)
		var buf bytes.Buffer
		if err := fleetsim.RunMatrix(cfg, sols).WriteParetoTable(&buf); err != nil {
			return err
		}
		if want == nil {
			want = buf.Bytes()
			continue
		}
		if !bytes.Equal(want, buf.Bytes()) {
			return fmt.Errorf("output at -workers %d differs from -workers 1", w)
		}
	}
	return nil
}
