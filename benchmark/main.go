// Command benchmark is the repository's one benchmark: six workloads over
// the simulator, the FCT experiments, the live UDP dataplane and the fleet
// simulator, each run in a child process of its own, reporting the metrics
// that BENCHMARK.json declares. See README.md.
//
//	benchmark -workload W -seed N -seconds S -trace 0|1   one run, one JSON result line
//	benchmark -seed N                                     every workload, untraced then traced
//	benchmark -calibrate -sets K                          K untraced sets; writes the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// logw takes what a child has to say beside its result: the budget table
// and leg diagnostics. The runner passes it through to its own stderr.
var logw io.Writer = os.Stderr

func main() {
	var (
		workload  = flag.String("workload", "", "run one workload and print one JSON result line; empty runs all")
		seed      = flag.Int64("seed", 1, "seed the workload's inputs are made from")
		seconds   = flag.Float64("seconds", 0, "host seconds of measured work per run (default: run_seconds of BENCHMARK.json)")
		trace     = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
		calibrate = flag.Bool("calibrate", false, "run -sets untraced sets and write the end-to-end bounds into BENCHMARK.json")
		sets      = flag.Int("sets", 5, "with -calibrate: how many sets to run")
		child     = flag.Bool("child", false, "internal: run -workload in this process")
		outDir    = flag.String("out", "", "internal: where a traced child writes its trace file")
	)
	flag.Parse()
	if flag.NArg() > 0 || *trace < 0 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}

	if *child {
		res, err := runWorkload(*workload, *seed, runOpts{seconds: *seconds, traced: *trace == 1, outDir: *outDir})
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatal(err)
		}
		return
	}

	specPath, err := findSpec()
	if err != nil {
		fatal(err)
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	rn := &runner{spec: spec, seconds: *seconds,
		outDir: filepath.Join(filepath.Dir(specPath), spec.Paths[0], "out")}

	switch {
	case *calibrate:
		err = rn.calibrate(specPath, *seed, *sets)
	case *workload != "":
		if !spec.workload(*workload) {
			fatal(fmt.Errorf("workload %q is not in %s", *workload, specPath))
		}
		err = rn.one(*workload, *seed, *trace == 1)
	default:
		err = rn.all(*seed)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// runner is the parent side: it starts one supervised child per run and
// reports what the children measured under the names the spec declares.
type runner struct {
	spec    *Spec
	seconds float64
	outDir  string
}

// reported is one metric of the driver's result line.
type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line is the driver's result line: the last line of standard output.
type line struct {
	Correct   bool                `json:"correct"`
	Attempted uint64              `json:"attempted"`
	Failed    uint64              `json:"failed"`
	Metrics   map[string]reported `json:"metrics"`
}

// one runs a single workload and prints its result line: the end-to-end
// metrics of an untraced run, or the per-layer metrics of a traced one.
func (rn *runner) one(workload string, seed int64, traced bool) error {
	res, err := rn.child(workload, seed, traced)
	if err != nil {
		// A run that was killed or crashed failed as a whole.
		printLine(line{Attempted: 1, Failed: 1, Metrics: map[string]reported{}})
		return err
	}
	out := line{Correct: res.correct(), Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]reported{}}
	if traced {
		for _, m := range rn.spec.PerLayer {
			out.Metrics[m.Name] = reported{res.Metrics[m.Name], m.Unit} // zero where the layer is not in this workload
		}
	} else {
		for _, m := range rn.spec.EndToEnd {
			v, ok := res.Metrics[m.Name]
			if !ok {
				return fmt.Errorf("%s did not report %s", workload, m.Name)
			}
			out.Metrics[m.Name] = reported{v, m.Unit}
		}
	}
	rn.table(res, traced)
	printLine(out)
	if !out.Correct {
		return fmt.Errorf("%s failed verification: %v", workload, res.Errors)
	}
	return nil
}

func printLine(l line) {
	raw, err := json.Marshal(l)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(raw))
}

// table prints a run's metrics by name with units, for a reader.
func (rn *runner) table(res *result, traced bool) {
	fmt.Printf("# %s seed=%d traced=%v attempted=%d failed=%d digest=%.16s\n",
		res.Workload, res.Seed, traced, res.Attempted, res.Failed, res.Digest)
	for _, e := range res.Errors {
		fmt.Printf("#   error: %s\n", e)
	}
	row := func(m MetricSpec) {
		v, ok := res.Metrics[m.Name]
		if !ok {
			return
		}
		fmt.Printf("%-12s %-36s %16.6g %-6s", res.Workload, m.Name, v, m.Unit)
		if sp, ok := res.Spread[m.Name]; ok {
			fmt.Printf("  q1=%.6g q3=%.6g slices=%.0f", sp[0], sp[1], sp[2])
		}
		fmt.Println()
	}
	if traced {
		for _, m := range rn.spec.PerLayer {
			row(m)
		}
	} else {
		for _, m := range rn.spec.EndToEnd {
			row(m.MetricSpec)
		}
	}
}

// all runs every workload untraced and then traced at one seed, checks
// that both runs simulated the same thing, and prints every metric. The
// last line is a machine-readable summary.
func (rn *runner) all(seed int64) error {
	type entry struct {
		Correct   bool               `json:"correct"`
		Attempted uint64             `json:"attempted"`
		Failed    uint64             `json:"failed"`
		Digest    string             `json:"simulated_digest"`
		Metrics   map[string]float64 `json:"metrics"`
	}
	summary := map[string]*entry{}
	var failures []string
	for _, w := range rn.spec.Workloads {
		e := &entry{Metrics: map[string]float64{}}
		summary[w.Name] = e
		plain, err := rn.child(w.Name, seed, false)
		if err != nil {
			e.Attempted, e.Failed = 1, 1
			failures = append(failures, err.Error())
			continue
		}
		rn.table(plain, false)
		e.Attempted, e.Failed, e.Digest = plain.Attempted, plain.Failed, plain.Digest
		e.Correct = plain.correct()
		for _, m := range rn.spec.EndToEnd {
			e.Metrics[m.Name] = plain.Metrics[m.Name]
		}
		traced, err := rn.child(w.Name, seed, true)
		if err != nil {
			e.Correct = false
			failures = append(failures, err.Error())
			continue
		}
		rn.table(traced, true)
		for _, m := range rn.spec.PerLayer {
			if v, ok := traced.Metrics[m.Name]; ok {
				e.Metrics[m.Name] = v
			}
		}
		if traced.Digest != plain.Digest {
			e.Correct = false
			failures = append(failures, fmt.Sprintf("%s: simulated_digest differs between the untraced and the traced run", w.Name))
		}
		if !plain.correct() || !traced.correct() {
			e.Correct = false
			failures = append(failures, fmt.Sprintf("%s failed verification: %v %v", w.Name, plain.Errors, traced.Errors))
		}
	}
	raw, err := json.Marshal(map[string]any{"ok": len(failures) == 0, "seed": seed, "workloads": summary})
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	if len(failures) > 0 {
		return fmt.Errorf("%d failures: %v", len(failures), failures)
	}
	return nil
}

// calibrate runs n untraced sets, each at its own seed, prints the spread
// of every end-to-end metric on every workload, and writes each metric's
// bound into the spec: three times its widest spread, so that the spread
// stays under a third of the bound, but at least minBound and at most the
// maxBound the contract allows, which setup_s always takes. A metric whose
// spread itself passes maxBound is not steady enough to be end-to-end:
// lengthen its slices or move it to the per-layer list.
func (rn *runner) calibrate(specPath string, seed int64, n int) error {
	const minBound = 0.05
	values := map[string]map[string][]float64{} // metric -> workload -> one value per set
	for _, m := range rn.spec.EndToEnd {
		values[m.Name] = map[string][]float64{}
	}
	var failures []string
	for set := 0; set < n; set++ {
		for _, w := range rn.spec.Workloads {
			res, err := rn.child(w.Name, seed+int64(set), false)
			if err == nil && !res.correct() {
				err = fmt.Errorf("%s seed %d failed verification: %v", w.Name, res.Seed, res.Errors)
			}
			if err != nil {
				failures = append(failures, err.Error())
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				continue
			}
			for _, m := range rn.spec.EndToEnd {
				values[m.Name][w.Name] = append(values[m.Name][w.Name], res.Metrics[m.Name])
			}
		}
	}
	fmt.Printf("%-18s %-12s %14s %14s %14s %8s\n", "metric", "workload", "q1", "median", "q3", "IQR/med")
	var tooWide []string
	for i := range rn.spec.EndToEnd {
		m := &rn.spec.EndToEnd[i]
		widest := 0.0
		for _, w := range rn.spec.Workloads {
			v := values[m.Name][w.Name]
			q1, q2, q3 := quartiles(v)
			spread := relIQR(v)
			widest = max(widest, spread)
			fmt.Printf("%-18s %-12s %14.6g %14.6g %14.6g %7.2f%%\n", m.Name, w.Name, q1, q2, q3, 100*spread)
		}
		want := float64(int(3*widest*100)+1) / 100
		m.Bound = min(max(minBound, want), maxBound)
		switch {
		case m.Name == "setup_s":
			m.Bound = maxBound
		case widest > maxBound:
			tooWide = append(tooWide, fmt.Sprintf("%s spreads %.0f%%", m.Name, 100*widest))
		case want > maxBound:
			fmt.Printf("%-18s spread is more than a third of the largest bound: a change under %.0f%% cannot be resolved on this machine now\n",
				m.Name, 100*widest)
		}
		fmt.Printf("%-18s bound %.2f\n", m.Name, m.Bound)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d runs failed, nothing written: %v", len(failures), failures)
	}
	if len(tooWide) > 0 {
		return fmt.Errorf("spreads above the largest bound %.2f, nothing written: %v", maxBound, tooWide)
	}
	return rn.spec.save(specPath)
}
