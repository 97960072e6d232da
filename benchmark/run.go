package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"linkguardian/internal/parallel"
)

// family is the code of one workload. The runner calls setup several
// times (the last call's state is the one measured), then slice for each
// slice, then verify, and in a traced run layers.
type family interface {
	// setup builds the workload's state from the seed and warms it up.
	setup(seed int64, tr *tracer)
	// slice runs slice i and returns the units of work it completed. tr is
	// nil on slices whose calls into the program are not traced.
	slice(i int, tr *tracer) float64
	// verify checks the outputs of all slices run so far.
	verify() verdict
	// digest writes every simulated statistic: identical bytes for the same
	// seed on any commit that did not change the model.
	digest(w io.Writer)
	// layers runs the isolation legs and sets the per-layer metrics.
	layers(r *run)
}

// verdict is the outcome of a workload's correctness check.
type verdict struct {
	attempted, failed uint64
	errs              []string
}

func (v *verdict) errorf(format string, a ...any) {
	if len(v.errs) < 8 {
		v.errs = append(v.errs, fmt.Sprintf(format, a...))
	}
}

// sample is one slice's measurement.
type sample struct {
	wall, user, sys time.Duration
	units           float64
	traced          bool
}

func (s sample) nsPerUnit() float64 { return float64(s.wall) / s.units }

// result is what a child reports to the runner, as one JSON line.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Digest    string             `json:"digest"`
	Metrics   map[string]float64 `json:"metrics"`
	// Spread holds, for metrics that are medians over slices, the first
	// and third quartile and the slice count.
	Spread map[string][3]float64 `json:"spread"`
}

func (r *result) correct() bool { return r.Failed == 0 && len(r.Errors) == 0 }

// run is the state of one workload run inside the child.
type run struct {
	result
	tr      *tracer
	samples []sample
}

func (r *run) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = v
}

// nsPerUnit is the run's headline cost: the median over slices of host
// nanoseconds per unit of work.
func (r *run) nsPerUnit() float64 {
	return median(mapSamples(r.samples, sample.nsPerUnit))
}

func mapSamples(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

// runOpts sizes a run.
type runOpts struct {
	seconds float64 // measured host time to aim for
	traced  bool
	smoke   bool   // a sub-second version, for tests
	outDir  string // where a traced run writes its trace file
}

// setupReps is how often a run sets up: setup_s is the median, so one
// slow start does not decide it.
const setupReps = 3

func cpuTimes() (user, sys time.Duration) {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// runWorkload runs one workload in this process and returns its metrics.
func runWorkload(name string, seed int64, o runOpts) (*result, error) {
	fam, perTen, err := newFamily(name, o.smoke)
	if err != nil {
		return nil, err
	}
	parallel.SetWorkers(runtime.GOMAXPROCS(0))
	nSlices := max(2, int(math.Round(float64(perTen)*o.seconds/10)))
	if o.smoke {
		nSlices = 2
	}

	r := &run{result: result{Workload: name, Seed: seed, Traced: o.traced,
		Metrics: map[string]float64{}, Spread: map[string][3]float64{}}}
	if o.traced {
		r.tr = newTracer()
	}

	setups := make([]float64, setupReps)
	r.tr.span("setup", func() {
		for i := range setups {
			t0 := time.Now()
			fam.setup(seed, r.tr)
			setups[i] = time.Since(t0).Seconds()
		}
	})
	r.set("setup_s", median(setups))

	runtime.GC()
	rt0 := readRuntime()
	heapPeak := rt0.heapBytes
	for i := 0; i < nSlices; i++ {
		// In a traced run every other slice runs with the calls into the
		// program untraced, so one run yields the tracing overhead.
		s := sample{traced: o.traced && i%2 == 0}
		inner := r.tr
		if !s.traced {
			inner = nil
		}
		r.tr.span(fmt.Sprintf("slice[%d]", i), func() {
			u0, s0 := cpuTimes()
			t0 := time.Now()
			s.units = fam.slice(i, inner)
			s.wall = time.Since(t0)
			u1, s1 := cpuTimes()
			s.user, s.sys = u1-u0, s1-s0
		})
		if s.units <= 0 {
			return nil, fmt.Errorf("%s: slice %d completed no work", name, i)
		}
		r.samples = append(r.samples, s)
		heapPeak = max(heapPeak, readRuntime().heapBytes)
	}
	rt1 := readRuntime()

	var v verdict
	r.tr.span("verify", func() { v = fam.verify() })
	r.Attempted, r.Failed, r.Errors = v.attempted, v.failed, v.errs
	h := sha256.New()
	fam.digest(h)
	r.Digest = hex.EncodeToString(h.Sum(nil))

	r.median("throughput_per_s", func(s sample) float64 { return s.units / s.wall.Seconds() })
	r.median("cpu_us_per_unit", func(s sample) float64 {
		return float64(s.user+s.sys) / float64(time.Microsecond) / s.units
	})

	var units float64
	for _, s := range r.samples {
		units += s.units
	}
	r.set("failed_share", float64(r.Failed)/float64(max(r.Attempted, 1)))
	r.set("go.allocs_per_op", float64(rt1.allocs-rt0.allocs)/units)
	r.set("go.gc_cpu_share", (rt1.gcCPU-rt0.gcCPU)/(rt1.totalCPU-rt0.totalCPU))
	r.set("go.gc_pauses", float64(rt1.gcPauses-rt0.gcPauses))
	r.set("go.heap_peak_mb", float64(heapPeak)/(1<<20))

	if o.traced {
		var on, off []float64
		for _, s := range r.samples {
			if s.traced {
				on = append(on, s.nsPerUnit())
			} else {
				off = append(off, s.nsPerUnit())
			}
		}
		r.set("trace_overhead_share", (median(on)-median(off))/median(off))
		fam.layers(r)
		if err := r.tr.write(o.outDir, name, seed); err != nil {
			return nil, err
		}
	}

	r.set("peak_rss_mb", float64(procStatusKB(os.Getpid(), "VmHWM"))/1024)
	return &r.result, nil
}

// median sets a metric to the median over slices of f and records the
// quartiles and slice count beside it.
func (r *run) median(name string, f func(sample) float64) {
	q1, q2, q3 := quartiles(mapSamples(r.samples, f))
	r.set(name, q2)
	r.Spread[name] = [3]float64{q1, q3, float64(len(r.samples))}
}

// leg runs an isolation leg under its own span.
func (r *run) leg(name string, fn func()) { r.tr.span("leg."+name, fn) }

// runtimeStats is the part of runtime/metrics the go.* metrics need.
type runtimeStats struct {
	allocs, gcPauses, heapBytes uint64
	gcCPU, totalCPU             float64
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/sched/pauses/total/gc:seconds"},
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var out runtimeStats
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64Histogram {
		for _, c := range s[1].Value.Float64Histogram().Counts {
			out.gcPauses += c
		}
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		out.heapBytes = s[2].Value.Uint64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[3].Value.Float64()
	}
	if s[4].Value.Kind() == metrics.KindFloat64 {
		out.totalCPU = s[4].Value.Float64()
	}
	return out
}

// newFamily returns the named workload and how many slices of it fill ten
// seconds of host time on the calibration machine. Slice sizes are fixed,
// so the work per run is the same on every commit.
func newFamily(name string, smoke bool) (family, int, error) {
	switch name {
	case "sim_clean":
		return newSimFamily(0, smoke), 36, nil
	case "sim_lossy":
		return newSimFamily(1e-3, smoke), 28, nil
	case "sim_fct":
		return newFCTFamily(smoke), 14, nil
	case "live_clean":
		return newLiveFamily(0, smoke), 5, nil
	case "live_lossy":
		return newLiveFamily(1e-3, smoke), 5, nil
	case "fleet_year":
		return newFleetFamily(smoke), 8, nil
	}
	return nil, 0, fmt.Errorf("unknown workload %q", name)
}
