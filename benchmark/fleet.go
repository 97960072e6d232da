package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"linkguardian/internal/fleetsim"
	"linkguardian/internal/parallel"
)

// fleetSolutions is the mitigation matrix of a fleet_year slice.
const fleetSolutions = "corropt,lg,wharf,p4protect"

type fleetFamily struct {
	seed    int64
	links   int
	horizon time.Duration
	sols    []fleetsim.Solution

	results []fleetsim.MatrixResult // one per slice
	runNs   map[string]float64      // host time inside fleetsim.Run, by solution
	runs    int                     // traced slices behind runNs
}

func newFleetFamily(smoke bool) *fleetFamily {
	f := &fleetFamily{links: 50000, horizon: 365 * 24 * time.Hour}
	if smoke {
		f.links, f.horizon = 4000, 60*24*time.Hour
	}
	return f
}

func (f *fleetFamily) config(links int, seed int64) fleetsim.Config {
	return fleetsim.Config{Links: links, Horizon: f.horizon, Seed: seed}
}

func (f *fleetFamily) setup(seed int64, tr *tracer) {
	sols, err := fleetsim.ParseSolutions(fleetSolutions)
	if err != nil {
		panic(err) // the list is a constant of this file
	}
	*f = fleetFamily{seed: seed, links: f.links, horizon: f.horizon, sols: sols, runNs: map[string]float64{}}
	// A tenth of the fleet warms the allocator and the worker pool.
	tr.span("warmup", func() { fleetsim.RunMatrix(f.config(f.links/10, seed), sols) })
}

// slice simulates the whole matrix over one year. Untraced it is one
// RunMatrix call. Traced it is one fleetsim.Run per solution, so that
// each has a span of its own; the results are the same either way, which
// the digest checks.
func (f *fleetFamily) slice(i int, tr *tracer) float64 {
	cfg := f.config(f.links, parallel.SeedFor(f.seed, i))
	var m fleetsim.MatrixResult
	if tr == nil {
		m = fleetsim.RunMatrix(cfg, f.sols)
	} else {
		f.runs++
		for _, sol := range f.sols {
			t0 := time.Now()
			tr.span("fleetsim.Run:"+sol.Name(), func() { m.Results = append(m.Results, fleetsim.Run(cfg, sol)) })
			f.runNs[sol.Name()] += float64(time.Since(t0))
		}
	}
	f.results = append(f.results, m)
	return float64(cfg.NumLinks()*len(f.sols)) * f.horizon.Hours() / (365 * 24)
}

// verify checks the paired comparison: every solution must have seen the
// same corruption onsets in every shard.
func (f *fleetFamily) verify() verdict {
	var v verdict
	for si, m := range f.results {
		base := m.Results[0]
		if len(base.Samples) == 0 {
			v.failed++
			v.errorf("slice %d: no samples", si)
		}
		for sh := range base.Shards {
			v.attempted++
			for _, res := range m.Results[1:] {
				if res.Shards[sh].Onsets != base.Shards[sh].Onsets {
					v.failed++
					v.errorf("slice %d shard %d: %s saw %d onsets, %s saw %d", si, sh,
						res.Solution, res.Shards[sh].Onsets, base.Solution, base.Shards[sh].Onsets)
					break
				}
			}
		}
	}
	return v
}

func (f *fleetFamily) digest(w io.Writer) {
	for _, m := range f.results {
		for _, row := range m.Pareto() {
			fmt.Fprintf(w, "%+v\n", row)
		}
	}
}

func (f *fleetFamily) layers(r *run) {
	for name, ns := range f.runNs {
		r.set("fleetsim.run_s."+name, ns/1e9/float64(f.runs))
	}
	var onsets, repairs, activations uint64
	backlog := 0
	for _, m := range f.results {
		for si, res := range m.Results {
			for _, sh := range res.Shards {
				if si == 0 {
					onsets += sh.Onsets
				}
				repairs += sh.Repairs
				activations += sh.Activations
				backlog = max(backlog, sh.MaxRepairBacklog)
			}
		}
	}
	r.set("fleetsim.onsets", float64(onsets))
	r.set("fleetsim.repairs", float64(repairs))
	r.set("fleetsim.activations", float64(activations))
	r.set("fleetsim.max_repair_backlog", float64(backlog))

	// One LinkGuardian run on one worker and one on two give the engine's
	// speed-up and, from the allocator's own count, the bytes a link costs.
	// The child runs on one processor (supervise.go), so the leg borrows a
	// second one.
	cfg := f.config(f.links, f.seed)
	lg, err := fleetsim.SolutionByName("lg")
	if err != nil {
		panic(err) // a built-in solution
	}
	workers := parallel.Workers()
	timeRun := func(w int) (secs, bytes float64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w))
		parallel.SetWorkers(w)
		defer parallel.SetWorkers(workers)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		r.tr.span("fleetsim.Run:lg", func() { fleetsim.Run(cfg, lg) })
		secs = time.Since(t0).Seconds()
		runtime.ReadMemStats(&m1)
		return secs, float64(m1.TotalAlloc - m0.TotalAlloc)
	}
	r.leg("parallel.speedup", func() {
		one, bytes := timeRun(1)
		two, _ := timeRun(min(runtime.NumCPU(), 2))
		r.set("parallel.speedup", one/two)
		r.set("fleetsim.bytes_per_link", bytes/float64(cfg.NumLinks()))
	})
}
