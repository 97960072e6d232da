package fleetsim

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"linkguardian/internal/parallel"
)

// ciConfig is the CI-sized fleet: ~9K links across 6 shards, three months.
func ciConfig() Config {
	return Config{
		Links:        9000,
		Horizon:      90 * 24 * time.Hour,
		SampleEvery:  6 * time.Hour,
		Seed:         20230823,
		Constraint:   0.75,
		PodsPerShard: 4,
	}
}

// TestFleetWorkerInvariance is the sharded fleet's determinism contract:
// identical Pareto tables and identical merged metric series at -workers
// 1/2/4/8. Runs under -race via make race.
func TestFleetWorkerInvariance(t *testing.T) {
	cfg := ciConfig()
	sols := allSolutions(t)
	defer parallel.SetWorkers(0)

	var base MatrixResult
	var baseTable []byte
	for _, w := range []int{1, 2, 4, 8} {
		parallel.SetWorkers(w)
		m := RunMatrix(cfg, sols)
		var buf bytes.Buffer
		if err := m.WriteParetoTable(&buf); err != nil {
			t.Fatal(err)
		}
		if w == 1 {
			base, baseTable = m, buf.Bytes()
			continue
		}
		if !bytes.Equal(baseTable, buf.Bytes()) {
			t.Fatalf("Pareto table at workers=%d differs from workers=1:\n%s\nvs\n%s", w, buf.Bytes(), baseTable)
		}
		if !reflect.DeepEqual(base, m) {
			t.Fatalf("full matrix result at workers=%d differs from workers=1", w)
		}
	}
}

// TestMatrixLanesMatchSoloRuns holds every lane of a matrix to the solo
// run of its solution: sharing one trace per shard among the solutions
// must not change what any of them computes. The benchmark's traced
// fleet slices, which call Run once per solution, rely on it.
func TestMatrixLanesMatchSoloRuns(t *testing.T) {
	sols := allSolutions(t)
	defer parallel.SetWorkers(0)
	variants := []struct{ constraint, deploy float64 }{{0.75, 0}, {0.5, 0.5}}
	for _, seed := range []int64{1, 2} {
		for _, v := range variants {
			for _, w := range []int{1, 2} {
				parallel.SetWorkers(w)
				cfg := ciConfig()
				cfg.Horizon, cfg.Seed = 365*24*time.Hour, seed
				cfg.Constraint, cfg.DeployFraction = v.constraint, v.deploy
				m := RunMatrix(cfg, sols)
				for i, sol := range sols {
					if solo := Run(cfg, sol); !reflect.DeepEqual(m.Results[i], solo) {
						t.Fatalf("seed %d, constraint %g, deploy %g, workers %d: matrix lane %s differs from its solo run",
							seed, v.constraint, v.deploy, w, sol.Name())
					}
				}
			}
		}
	}
}

// TestFleetShardStructureFixedByConfig pins that the shard layout depends
// on PodsPerShard, never on the worker count.
func TestFleetShardStructureFixedByConfig(t *testing.T) {
	cfg := ciConfig()
	if got := cfg.Shards(); got != 6 {
		t.Fatalf("Shards() = %d, want 6 (24 pods / 4 per shard)", got)
	}
	if got := cfg.NumLinks(); got != 24*384 {
		t.Fatalf("NumLinks() = %d, want %d", got, 24*384)
	}
	defer parallel.SetWorkers(0)
	for _, w := range []int{1, 7} {
		parallel.SetWorkers(w)
		if got := cfg.Shards(); got != 6 {
			t.Fatalf("Shards() = %d at workers=%d — shard structure must not depend on workers", got, w)
		}
	}
}

// TestShardStreamingMatchesRecompute runs a dense shard simulation and
// audits the incremental aggregates (penalty, pod capacity, counters,
// corrupting set, repair queue) against brute-force recomputation at every
// sample point, on a tiny pod shape and on the Figure 4 one.
func TestShardStreamingMatchesRecompute(t *testing.T) {
	shapes := []Fabric{
		{Pods: 2, ToRsPerPod: 8, FabricsPerPod: 4, SpinesPerPlane: 8},
		{Pods: 2, ToRsPerPod: 48, FabricsPerPod: 4, SpinesPerPlane: 48},
	}
	for _, shape := range shapes {
		for _, name := range AllSolutionNames {
			streamingMatchesRecompute(t, shape, name)
		}
	}
}

func streamingMatchesRecompute(t *testing.T, shape Fabric, name string) {
	sol, err := SolutionByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Fabric:       shape,
		Horizon:      365 * 24 * time.Hour,
		SampleEvery:  24 * time.Hour,
		Seed:         7,
		Constraint:   0.5,
		PodsPerShard: 2,
	}.normalized()
	s := newShard(cfg, 0, sol)
	// Dense adversarial drive: frequent onsets on few links so the
	// corrupting/disable/repair machinery cycles constantly.
	rng := rand.New(rand.NewSource(99))
	now := time.Duration(0)
	for i := 0; i < 4000; i++ {
		now += time.Duration(rng.Int63n(int64(2 * time.Hour)))
		for s.repairs.nextAt() <= now {
			s.completeRepair()
		}
		link := int32(rng.Intn(len(s.links)))
		q := []float64{0, 1e-8, 1e-5, 1e-4, 1e-3, 9e-3, 1}[rng.Intn(7)]
		s.onsetAt(now, link, q)
		if i%100 == 0 {
			if err := s.checkInvariants(); err != nil {
				t.Fatalf("%s on %d ToRs: step %d: %v", name, shape.ToRsPerPod, i, err)
			}
		}
	}
	for len(s.repairs) > 0 {
		s.completeRepair()
	}
	if err := s.checkInvariants(); err != nil {
		t.Fatalf("%s on %d ToRs: after drain: %v", name, shape.ToRsPerPod, err)
	}
}

// TestMatrixSanity checks the physics of the solution matrix on a shared
// trace: every mitigation beats the bare-repair baseline on residual
// loss, LinkGuardian beats duplication (q^(N+1) << q²), and the baseline
// spends no activation cost.
func TestMatrixSanity(t *testing.T) {
	cfg := ciConfig()
	m := RunMatrix(cfg, allSolutions(t))
	rows := m.Pareto()
	byName := map[string]ParetoRow{}
	for _, r := range rows {
		byName[r.Solution] = r
	}
	base := byName["corropt"]
	if base.Activations != 0 {
		t.Errorf("corropt baseline has %d activations, want 0", base.Activations)
	}
	if base.MeanPenalty <= 0 {
		t.Fatalf("baseline mean penalty %g, want > 0", base.MeanPenalty)
	}
	for _, name := range []string{"lg", "wharf", "p4protect"} {
		r := byName[name]
		if r.MeanPenalty >= base.MeanPenalty {
			t.Errorf("%s mean penalty %g not better than baseline %g", name, r.MeanPenalty, base.MeanPenalty)
		}
		if r.Cost <= base.Cost {
			t.Errorf("%s cost %g not above baseline %g (activations are not free)", name, r.Cost, base.Cost)
		}
		if r.Activations == 0 {
			t.Errorf("%s never activated", name)
		}
	}
	if lg, p4 := byName["lg"], byName["p4protect"]; lg.MeanPenalty >= p4.MeanPenalty {
		t.Errorf("lg mean penalty %g should beat p4protect's q² %g", lg.MeanPenalty, p4.MeanPenalty)
	}
	// P4-Protect's 1+1 duplication can never leave MORE capacity than
	// LinkGuardian's near-line-rate masking.
	if p4, lg := byName["p4protect"], byName["lg"]; p4.MinLeastCap > lg.MinLeastCap {
		t.Errorf("p4protect min capacity %g should not exceed lg's %g", p4.MinLeastCap, lg.MinLeastCap)
	}
	// Same trace for every solution: onsets per shard must agree.
	for si := 1; si < len(m.Results); si++ {
		for sh := range m.Results[si].Shards {
			if got, want := m.Results[si].Shards[sh].Onsets, m.Results[0].Shards[sh].Onsets; got != want {
				t.Fatalf("%s shard %d saw %d onsets, baseline saw %d — trace not paired",
					m.Results[si].Solution, sh, got, want)
			}
		}
	}
}

// TestMergeSamples pins the shard-merge reduction: sums for extensive
// quantities, minima for the least-* metrics, in shard-index order.
func TestMergeSamples(t *testing.T) {
	cfg := Config{Fabric: DefaultFabric()}.normalized()
	a := []shardSample{{at: 6 * time.Hour, penalty: 1.5, minPaths: 190, minPodCap: 0.99, activeCorrupting: 2, disabled: 1, protected: 2, repairs: 3, cost: 4.5}}
	b := []shardSample{{at: 6 * time.Hour, penalty: 0.25, minPaths: 100, minPodCap: 0.75, activeCorrupting: 1, disabled: 0, protected: 1, repairs: 1, cost: 1}}
	got := mergeSamples(cfg, [][]shardSample{a, b})
	want := Sample{
		At: 6 * time.Hour, TotalPenalty: 1.75, LeastPaths: 100.0 / 192.0, LeastPodCap: 0.75,
		ActiveCorrupting: 3, Disabled: 1, Protected: 3, Repairs: 4, Cost: 5.5,
	}
	if len(got) != 1 || got[0] != want {
		t.Fatalf("mergeSamples = %+v, want %+v", got, want)
	}
	if mergeSamples(cfg, nil) != nil {
		t.Fatal("merging no shards should yield nil")
	}
}

// TestRunSingleSolution covers the Run convenience wrapper.
func TestRunSingleSolution(t *testing.T) {
	cfg := Config{Links: 800, Horizon: 30 * 24 * time.Hour, Seed: 3, PodsPerShard: 1}
	res := Run(cfg, LinkGuardian{})
	if res.Solution != "lg" {
		t.Fatalf("solution name %q", res.Solution)
	}
	if len(res.Samples) != int(cfg.normalized().Horizon/cfg.normalized().SampleEvery) {
		t.Fatalf("sample count %d", len(res.Samples))
	}
	if len(res.Shards) != cfg.Shards() {
		t.Fatalf("shard stats count %d, want %d", len(res.Shards), cfg.Shards())
	}
	var onsets uint64
	for _, sh := range res.Shards {
		onsets += sh.Onsets
	}
	if onsets == 0 {
		t.Fatal("no onsets over a month — trace generation broken")
	}
	last := res.Samples[len(res.Samples)-1]
	if last.Cost == 0 || last.Repairs == 0 {
		t.Fatalf("cumulative cost/repairs empty: %+v", last)
	}
}

// TestParetoTableGolden-ish: the rendering is byte-stable for a fixed
// config, so downstream scripts can diff it.
func TestParetoTableStable(t *testing.T) {
	cfg := Config{Links: 800, Horizon: 30 * 24 * time.Hour, Seed: 3, PodsPerShard: 1}
	var x, y bytes.Buffer
	if err := RunMatrix(cfg, allSolutions(t)).WriteParetoTable(&x); err != nil {
		t.Fatal(err)
	}
	if err := RunMatrix(cfg, allSolutions(t)).WriteParetoTable(&y); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(x.Bytes(), y.Bytes()) {
		t.Fatal("Pareto table not reproducible for identical config")
	}
}

// TestRunAllocsFlatInHorizon holds the engine's event loop allocation-free
// in steady state: one Run allocates about the same at 0.5 and 2 simulated
// years, so no allocation scales with the number of onsets or repairs. The
// slack covers what a longer horizon may legitimately add: one more
// doubling of each shard's repair heap and corrupting set as their peaks
// rise, and the runtime's own occasional allocations.
func TestRunAllocsFlatInHorizon(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-year allocation gate skipped in -short mode")
	}
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(0)
	cfg := Config{Links: 20_000, Seed: 1}
	allocs := func(years float64) float64 {
		cfg.Horizon = time.Duration(years * 365 * 24 * float64(time.Hour))
		return testing.AllocsPerRun(1, func() { Run(cfg, LinkGuardian{}) })
	}
	short, long := allocs(0.5), allocs(2)
	if slack := float64(4 * cfg.Shards()); long > short+slack {
		t.Fatalf("Run allocates %v times over 0.5 years but %v over 2 years (slack %v)", short, long, slack)
	}
}

// TestRunMatrixAllocsFlatInHorizon is TestRunAllocsFlatInHorizon for the
// four-solution matrix, under the same slack: each shard's trace is drawn
// once and sized from the expected onset count, so a longer horizon adds
// no doublings of it.
func TestRunMatrixAllocsFlatInHorizon(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-year allocation gate skipped in -short mode")
	}
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(0)
	cfg := Config{Links: 20_000, Seed: 1}
	sols := allSolutions(t)
	allocs := func(years float64) float64 {
		cfg.Horizon = time.Duration(years * 365 * 24 * float64(time.Hour))
		return testing.AllocsPerRun(1, func() { RunMatrix(cfg, sols) })
	}
	short, long := allocs(0.5), allocs(2)
	if slack := float64(4 * cfg.Shards()); long > short+slack {
		t.Fatalf("RunMatrix allocates %v times over 0.5 years but %v over 2 years (slack %v)", short, long, slack)
	}
}
