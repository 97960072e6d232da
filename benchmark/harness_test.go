package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for a misbehaving child, so the
// watchdog is tested against a real process.
func TestMain(m *testing.M) {
	switch os.Getenv("LGBENCH_TEST_CHILD") {
	case "hang":
		time.Sleep(time.Minute)
		os.Exit(0)
	case "hog":
		hog := make([]byte, 256<<20)
		for i := range hog {
			hog[i] = 1
		}
		time.Sleep(time.Minute)
		os.Exit(int(hog[0]))
	}
	logw = io.Discard
	os.Exit(m.Run())
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{1, 3, 5, 7}, 1.5, 4, 6.5},
		{[]float64{2, 4, 9}, 2, 4, 9},
		{[]float64{5}, 5, 5, 5},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := relIQR([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); !near(got, 1) {
		t.Errorf("relIQR = %g, want 1", got)
	}
}

func TestHistQuantileInterpolates(t *testing.T) {
	// 1000 samples uniform on [0, 100): ten per unit, a hundred per bucket.
	bounds := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	uniform := []uint64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100, 0}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {0.999, 99.9}, {0.05, 5}, {0.25, 25}} {
		if got := histQuantile(bounds, uniform, c.q); !near(got, c.want) {
			t.Errorf("uniform q=%g: got %g, want %g", c.q, got, c.want)
		}
	}
	// All mass in one log-spaced bucket: the median is its midpoint, not
	// its upper bound.
	if got := histQuantile([]float64{50, 75, 112.5}, []uint64{0, 0, 8, 0}, 0.5); !near(got, 93.75) {
		t.Errorf("single bucket: got %g, want 93.75", got)
	}
	// The overflow bucket can only report the last finite bound.
	if got := histQuantile([]float64{1, 2}, []uint64{1, 1, 8}, 0.9); !near(got, 2) {
		t.Errorf("overflow: got %g, want 2", got)
	}
	if got := histQuantile(bounds, make([]uint64, 11), 0.5); got != 0 {
		t.Errorf("empty: got %g, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, StartNs: 0, EndNs: 100},   // root
		{ID: 1, Parent: 0, StartNs: 10, EndNs: 40},    // child
		{ID: 2, Parent: 1, StartNs: 15, EndNs: 25},    // grandchild: not root's concern
		{ID: 3, Parent: 0, StartNs: 30, EndNs: 60},    // overlaps child 1 by 10
		{ID: 4, Parent: 0, StartNs: 90, EndNs: 120},   // runs past its parent
		{ID: 5, Parent: -1, StartNs: 200, EndNs: 250}, // second root, no children
	}
	want := []int64{
		100 - (50 + 10), // cover is [10,60) and [90,100)
		30 - 10,
		10,
		30,
		30,
		50,
	}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("span %d: self %d, want %d", i, got, want[i])
		}
	}
}

func TestTracerNesting(t *testing.T) {
	var off *tracer
	ran := false
	off.span("x", func() { ran = true })
	if !ran {
		t.Fatal("a nil tracer must still run the function")
	}
	tr := newTracer()
	tr.span("a", func() {
		tr.span("b", func() {})
		tr.span("c", func() {})
	})
	if len(tr.spans) != 3 || tr.spans[0].Parent != -1 || tr.spans[1].Parent != 0 || tr.spans[2].Parent != 0 {
		t.Fatalf("bad parents: %+v", tr.spans)
	}
	dir := t.TempDir()
	if err := tr.write(dir, "w", 7); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "trace.w.json")); err != nil {
		t.Fatal(err)
	}
}

func loadRepoSpec(t *testing.T) (*Spec, string) {
	t.Helper()
	path, err := findSpec()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	return spec, path
}

func TestSpecRoundTrips(t *testing.T) {
	spec, path := loadRepoSpec(t)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if err := spec.save(out); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json does not round-trip: load and save changes it")
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, above 64 KiB", len(want))
	}
}

func TestSpecLimits(t *testing.T) {
	fresh := func() *Spec { s, _ := loadRepoSpec(t); return s }
	many := func(n int) []MetricSpec {
		out := make([]MetricSpec, n)
		for i := range out {
			out[i] = MetricSpec{Name: fmt.Sprintf("extra%d", i), Unit: "ns", Better: "lower"}
		}
		return out
	}
	for name, breakIt := range map[string]func(*Spec){
		"nine workloads": func(s *Spec) {
			for len(s.Workloads) < maxWorkloads+1 {
				s.Workloads = append(s.Workloads, WorkloadSpec{Name: "w" + string(rune('a'+len(s.Workloads))), Why: "x"})
			}
		},
		"one workload": func(s *Spec) { s.Workloads = s.Workloads[:1] },
		"17 end-to-end": func(s *Spec) {
			for _, m := range many(maxEndToEnd + 1) {
				s.EndToEnd = append(s.EndToEnd, BoundedSpec{MetricSpec: m, Bound: 0.1})
			}
		},
		"129 per-layer":  func(s *Spec) { s.PerLayer = many(maxPerLayer + 1) },
		"bad name":       func(s *Spec) { s.PerLayer[0].Name = "has space" },
		"leading dot":    func(s *Spec) { s.PerLayer[0].Name = ".x" },
		"duplicate name": func(s *Spec) { s.PerLayer[0].Name = s.EndToEnd[0].Name },
		"bad unit":       func(s *Spec) { s.PerLayer[0].Unit = "µs" },
		"bad better":     func(s *Spec) { s.PerLayer[0].Better = "faster" },
		"wide bound":     func(s *Spec) { s.EndToEnd[0].Bound = 0.3 },
		"no setup_s": func(s *Spec) {
			for i := range s.EndToEnd {
				if s.EndToEnd[i].Name == "setup_s" {
					s.EndToEnd[i].Name = "startup_s"
				}
			}
		},
		"long run":  func(s *Spec) { s.RunSeconds = 61 },
		"long why":  func(s *Spec) { s.Workloads[0].Why = strings.Repeat("y", 201) },
		"empty why": func(s *Spec) { s.Workloads[0].Why = "" },
	} {
		s := fresh()
		breakIt(s)
		if err := s.validate(); err == nil {
			t.Errorf("%s: validate accepted it", name)
		}
	}
	if err := fresh().validate(); err != nil {
		t.Errorf("the repository's spec: %v", err)
	}
}

// TestSmokeEveryWorkload runs a sub-second version of every workload,
// untraced and traced, and holds the harness to its spec: every declared
// metric is reported by some workload, nothing undeclared is reported,
// every end-to-end metric is reported by every workload and is not zero,
// outputs verify, and tracing does not change what was simulated.
func TestSmokeEveryWorkload(t *testing.T) {
	spec, _ := loadRepoSpec(t)
	declared := map[string]bool{}
	for _, m := range spec.EndToEnd {
		declared[m.Name] = true
	}
	for _, m := range spec.PerLayer {
		declared[m.Name] = true
	}
	reported := map[string]bool{}
	out := t.TempDir()
	for _, w := range spec.Workloads {
		plain, err := runWorkload(w.Name, 3, runOpts{smoke: true})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		traced, err := runWorkload(w.Name, 3, runOpts{smoke: true, traced: true, outDir: out})
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		for _, r := range []*result{plain, traced} {
			if !r.correct() || r.Attempted == 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d, errors %v", w.Name, r.Traced, r.Attempted, r.Failed, r.Errors)
			}
			for name := range r.Metrics {
				reported[name] = true
				if !declared[name] {
					t.Errorf("%s reports %s, which BENCHMARK.json does not declare", w.Name, name)
				}
			}
		}
		for _, m := range spec.EndToEnd {
			if v := plain.Metrics[m.Name]; v <= 0 {
				t.Errorf("%s: end-to-end %s = %g, want > 0", w.Name, m.Name, v)
			}
		}
		if plain.Digest != traced.Digest {
			t.Errorf("%s: simulated_digest differs between the untraced and the traced run", w.Name)
		}
		if _, err := os.Stat(filepath.Join(out, "trace."+w.Name+".json")); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		if w.Name == "sim_lossy" {
			other, err := runWorkload(w.Name, 4, runOpts{smoke: true})
			if err != nil {
				t.Fatal(err)
			}
			if other.Digest == plain.Digest || !other.correct() {
				t.Errorf("sim_lossy: another seed must change the digest and still verify")
			}
		}
	}
	for name := range declared {
		if !reported[name] {
			t.Errorf("BENCHMARK.json declares %s, which no workload reports", name)
		}
	}
	if _, _, err := newFamily("no_such_workload", true); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestWatchdogKills(t *testing.T) {
	for _, c := range []struct {
		mode string
		lim  limits
		want string
	}{
		{"hang", limits{deadline: 300 * time.Millisecond, rssMB: 1 << 20}, "still running"},
		{"hog", limits{deadline: 30 * time.Second, rssMB: 128}, "resident set"},
	} {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "LGBENCH_TEST_CHILD="+c.mode)
		t0 := time.Now()
		_, err := supervise(cmd, c.lim)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.mode, err, c.want)
		}
		if time.Since(t0) > 20*time.Second {
			t.Errorf("%s: the watchdog took %v", c.mode, time.Since(t0))
		}
	}
	// A child that exits by itself is left alone and its output returned.
	out, err := supervise(exec.Command("echo", "ok"), limits{deadline: 10 * time.Second, rssMB: 1 << 20})
	if err != nil || strings.TrimSpace(string(out)) != "ok" {
		t.Errorf("echo: %q, %v", out, err)
	}
}
