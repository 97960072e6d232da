// Command chaos runs fault-injection scenarios against the LinkGuardian
// protocol with online invariant checking, and prints an invariant/violation
// report. It exits non-zero if any invariant fired.
//
// Usage:
//
//	chaos -list                         list the curated scenarios
//	chaos -scenario flap [-seed 1]      run one curated scenario
//	chaos -gen 17 [-seed 1]             run generated scenario #17 of the seed
//	chaos -soak 200 [-seed 1] [-workers 8]
//	                                    sweep generated scenarios in parallel
//	chaos -scenario spike -fabric 4 [-workers 4]
//	                                    run one scenario on every segment of a
//	                                    multi-segment fabric (sharded engine)
//	chaos -families 6 [-seed 1]         sweep the composite fault families
//	                                    (corrupt+congest, asym, correlated)
//	chaos -attrib 10 [-attrib-multi 4] [-attrib-min 0.9]
//	                                    007-style drop-cause attribution soak;
//	                                    exits non-zero if single-culprit top-1
//	                                    accuracy falls below -attrib-min
//
// A failing soak scenario is reproduced exactly by rerunning its index with
// the same master seed: chaos -gen <i> -seed <master>.
//
// -artifacts <dir> arms the flight recorder: every failing scenario dumps
// its trace-ring tail (JSONL + Chrome trace_event), metrics snapshot and
// violation summary into a subdirectory keyed by scenario name, index and
// seed. -trace/-metrics-out write the trace and metrics of a single run
// (-scenario/-gen) whether or not it fails. -fabric N > 1 runs -scenario
// only, without -trace, -trace-cap or -artifacts; otherwise chaos exits 2.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"linkguardian/internal/chaos"
	"linkguardian/internal/obs"
	"linkguardian/internal/parallel"
	"linkguardian/internal/results"
)

func main() {
	list := flag.Bool("list", false, "list curated scenarios and exit")
	scenario := flag.String("scenario", "", "curated scenario name to run")
	gen := flag.Int("gen", -1, "generated scenario index to run")
	soak := flag.Int("soak", 0, "number of generated scenarios to sweep")
	families := flag.Int("families", 0, "composite-family scenarios to sweep per family")
	attrib := flag.Int("attrib", 0, "single-culprit attribution scenarios to sweep (not ingested into -results-dir)")
	attribMulti := flag.Int("attrib-multi", 0, "correlated multi-culprit attribution scenarios (reported, not gated)")
	attribMin := flag.Float64("attrib-min", 0.9, "minimum single-culprit top-1 accuracy")
	seed := flag.Int64("seed", 1, "scenario seed (soak/gen: master seed)")
	workers := flag.Int("workers", 0, "soak workers, or concurrent fabric shards (0 = all cores); never changes results")
	fabric := flag.Int("fabric", 0, "run -scenario on an N-segment fabric (sharded engine)")
	artifacts := flag.String("artifacts", "", "flight-recorder directory for failing scenarios")
	resultsDir := flag.String("results-dir", "", "results store directory: run reports ingest as content-hashed runs and failing-scenario flight-recorder dumps register as content-addressed blobs keyed by scenario-index-seed (replaces -artifacts directory dumps)")
	tracePath := flag.String("trace", "", "single run: write the protected link's trace (.jsonl = JSONL, else Chrome trace_event)")
	traceCap := flag.Int("trace-cap", 0, "trace ring capacity (0 = default 2048)")
	metricsOut := flag.String("metrics-out", "", "single run: write the final metrics snapshot as JSON")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile")
	memprofile := flag.String("memprofile", "", "write a heap profile")
	flag.Parse()
	if *fabric > 1 && (*scenario == "" || *tracePath != "" || *traceCap != 0 || *artifacts != "") {
		fmt.Fprintln(os.Stderr, "chaos: -fabric needs -scenario and takes no -trace, -trace-cap or -artifacts")
		flag.Usage()
		os.Exit(2)
	}

	stopProf, err := obs.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		log.Fatal(err)
	}
	opts := chaos.RunOpts{
		ArtifactDir: *artifacts,
		TraceCap:    *traceCap,
		Index:       -1,
		KeepTrace:   *tracePath != "",
	}
	var store *results.Store
	if *resultsDir != "" {
		store, err = results.Open(*resultsDir)
		if err != nil {
			log.Fatal(err)
		}
		opts.Sink = store
	}

	switch {
	case *list:
		for _, name := range chaos.Names() {
			fmt.Println(name)
		}

	case *scenario != "":
		sc, ok := chaos.Named(*scenario, *seed)
		if !ok {
			log.Fatalf("unknown scenario %q (try -list)", *scenario)
		}
		if *fabric > 1 {
			parallel.SetWorkers(*workers)
			os.Exit(runFabric(sc, *fabric, *metricsOut, store, stopProf))
		}
		os.Exit(run(sc, opts, *tracePath, *metricsOut, store, stopProf))

	case *gen >= 0:
		opts.Index = *gen
		os.Exit(run(chaos.GenScenario(*seed, *gen), opts, *tracePath, *metricsOut, store, stopProf))

	case *soak > 0:
		parallel.SetWorkers(*workers)
		res := chaos.Soak(*seed, *soak, opts)
		finishProfiles(stopProf)
		fmt.Print(res)
		for _, r := range res.Failures() {
			if r.Artifact != "" {
				fmt.Printf("artifact: %s\n", r.Artifact)
			}
		}
		ingestReports(store, "soak", res.Reports)
		if len(res.Failures()) > 0 {
			fmt.Printf("reproduce a failure with: chaos -gen <i> -seed %d\n", *seed)
			os.Exit(1)
		}

	case *families > 0:
		parallel.SetWorkers(*workers)
		res := chaos.FamilySoak(*seed, *families, opts)
		finishProfiles(stopProf)
		fmt.Print(res)
		for _, r := range res.Failures() {
			if r.Artifact != "" {
				fmt.Printf("artifact: %s\n", r.Artifact)
			}
		}
		if store != nil {
			var all []*chaos.Report
			for _, fam := range res.Families {
				all = append(all, fam.Reports...)
			}
			ingestReports(store, "families", all)
		}
		if len(res.Failures()) > 0 {
			os.Exit(1)
		}

	case *attrib > 0 || *attribMulti > 0:
		parallel.SetWorkers(*workers)
		res := chaos.AttribSoak(*seed, *attrib, *attribMulti)
		finishProfiles(stopProf)
		fmt.Print(res)
		if rate := res.Top1Rate(); *attrib > 0 && rate < *attribMin {
			fmt.Printf("FAIL: single-culprit top-1 accuracy %.3f < %.3f\n", rate, *attribMin)
			os.Exit(1)
		}

	default:
		flag.Usage()
		os.Exit(2)
	}
}

// reportRun converts one scenario report into a results run: the full
// metrics snapshot plus the report's headline counters, content-hashed so
// reruns of the same scenario and seed deduplicate.
func reportRun(r *chaos.Report, index int) *results.Run {
	name := r.Scenario
	if index >= 0 {
		name = fmt.Sprintf("%s-%04d", name, index)
	}
	run := results.FromSnapshot("chaos", name, map[string]string{
		"seed": fmt.Sprint(r.Seed),
	}, r.Metrics)
	run.Source = "cmd/chaos"
	quiesced := 0.0
	if r.Quiesced {
		quiesced = 1
	}
	run.Records = append(run.Records,
		results.Record{Name: "report.tx_unique", Value: float64(r.TxUnique), Unit: "count"},
		results.Record{Name: "report.forwarded", Value: float64(r.Forwarded), Unit: "count"},
		results.Record{Name: "report.outstanding", Value: float64(r.Outstanding), Unit: "count"},
		results.Record{Name: "report.unrecovered", Value: float64(r.Unrecovered), Unit: "count"},
		results.Record{Name: "report.violations", Value: float64(len(r.Violations)), Unit: "count"},
		results.Record{Name: "report.quiesced", Value: quiesced},
	)
	return run
}

// ingestReports stores every report of a sweep as one batch (no-op
// without a store).
func ingestReports(store *results.Store, sweep string, reports []*chaos.Report) {
	if store == nil {
		return
	}
	runs := make([]*results.Run, len(reports))
	for i, r := range reports {
		runs[i] = reportRun(r, i)
	}
	added, err := store.AddAll(runs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("results: %s ingested %d run(s) (%d new)\n", sweep, len(runs), added)
}

func run(sc chaos.Scenario, opts chaos.RunOpts, tracePath, metricsOut string, store *results.Store, stopProf func() error) int {
	fmt.Printf("scenario %s seed=%d rate=%v frame=%dB load=%.2f window=%v steps=%d\n",
		sc.Name, sc.Seed, sc.Rate, sc.FrameSize, sc.LoadFrac, sc.Window, len(sc.Steps))
	for _, s := range sc.Steps {
		fmt.Printf("  step %v\n", s)
	}
	r := chaos.RunScenario(sc, opts)
	finishProfiles(stopProf)
	if tracePath != "" {
		if err := obs.WriteTraceFile(tracePath, r.Trace); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace: %d events -> %s\n", len(r.Trace), tracePath)
	}
	if metricsOut != "" {
		if err := obs.WriteMetricsFile(metricsOut, r.Metrics); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println(r)
	if store != nil {
		ack := store.Add(reportRun(r, opts.Index))
		if ack.Err != nil {
			log.Fatal(ack.Err)
		}
		fmt.Printf("results: run %s (new=%v)\n", ack.ID, ack.Added)
	}
	if r.Failed() {
		if r.Artifact != "" {
			fmt.Printf("artifact: %s\n", r.Artifact)
		}
		return 1
	}
	return 0
}

// runFabric runs the scenario on every segment of an nsegs-segment fabric;
// with a store, the segment reports ingest as one sweep named "fabric".
func runFabric(sc chaos.Scenario, nsegs int, metricsOut string, store *results.Store, stopProf func() error) int {
	fmt.Printf("scenario %s seed=%d rate=%v frame=%dB load=%.2f window=%v steps=%d fabric=%d\n",
		sc.Name, sc.Seed, sc.Rate, sc.FrameSize, sc.LoadFrac, sc.Window, len(sc.Steps), nsegs)
	fr := chaos.RunFabric(sc, nsegs, 0)
	finishProfiles(stopProf)
	if metricsOut != "" {
		if err := obs.WriteMetricsFile(metricsOut, fr.Metrics); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println(fr)
	ingestReports(store, "fabric", fr.Segments)
	if fr.Failed() {
		return 1
	}
	return 0
}

func finishProfiles(stop func() error) {
	if err := stop(); err != nil {
		log.Fatal(err)
	}
}
