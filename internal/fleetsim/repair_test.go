package fleetsim

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"linkguardian/internal/lgmodel"
)

// figure4Config is a one-shard fleet of Figure 4 pods (48 ToRs, 4 fabric
// switches, 48 spines per plane).
func figure4Config(pods int, constraint float64) Config {
	return Config{
		Fabric:       Fabric{Pods: pods, ToRsPerPod: 48, FabricsPerPod: 4, SpinesPerPlane: 48},
		Seed:         7,
		Constraint:   constraint,
		PodsPerShard: pods,
	}
}

// figure4Shard builds that shard with its natural trace armed.
func figure4Shard(pods int, constraint float64, sol Solution) *shard {
	return newShard(figure4Config(pods, constraint).normalized(), 0, sol)
}

// spineLink is the local ID of the fabric-to-spine link (pod, fab, spine).
func spineLink(s *shard, pod, fab, spine int32) int32 {
	return pod*s.lpp + s.torLpp + fab*s.spines + spine
}

// denseShard returns a shard over 8 Figure 4 pods whose trace is n onsets
// drawn uniformly over the horizon on random links — about 100x the
// realistic onset rate, so the capacity constraint binds. Loss rates come
// from the shard's trace stream, so shards built with the same arguments
// see the same onsets whatever the solution.
func denseShard(sol Solution, deploy float64, n int, horizon, every time.Duration) *shard {
	cfg := figure4Config(8, 0.75)
	cfg.Horizon, cfg.SampleEvery, cfg.DeployFraction = horizon, every, deploy
	s := newShard(cfg.normalized(), 0, sol)
	s.onsets = s.onsets[:0]
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < n; i++ {
		s.onsets.push(tlEvent{at: time.Duration(rng.Int63n(int64(horizon))), link: int32(rng.Intn(len(s.links)))})
	}
	return s
}

// TestLinkIDsRoundTrip pins the pod-major link layout of Fabric:
// every ToR and spine link has a distinct ID that decodes back to its pod,
// kind and fabric switch, and together they cover the shard.
func TestLinkIDsRoundTrip(t *testing.T) {
	s := figure4Shard(4, 0.75, CorrOptOnly{})
	seen := map[int32]bool{}
	for pod := int32(0); pod < s.pods; pod++ {
		for tor := int32(0); tor < s.tors; tor++ {
			for fab := int32(0); fab < s.fabrics; fab++ {
				id := s.torLink(pod, tor, fab)
				if seen[id] || s.pod(id) != pod || s.isSpine(id) {
					t.Fatalf("ToR link (%d,%d,%d) = %d: duplicate or mis-decoded", pod, tor, fab, id)
				}
				seen[id] = true
			}
		}
		for fab := int32(0); fab < s.fabrics; fab++ {
			for sp := int32(0); sp < s.spines; sp++ {
				id := spineLink(s, pod, fab, sp)
				if seen[id] || s.pod(id) != pod || !s.isSpine(id) || s.spineFab(id) != fab {
					t.Fatalf("spine link (%d,%d,%d) = %d: duplicate or mis-decoded", pod, fab, sp, id)
				}
				seen[id] = true
			}
		}
	}
	if len(seen) != len(s.links) {
		t.Fatalf("enumerated %d ids, want %d", len(seen), len(s.links))
	}
}

func TestDisableSpineLinkAffectsAllToRs(t *testing.T) {
	s := figure4Shard(4, 0.75, CorrOptOnly{})
	// Figure 4's Link A scenario: one fabric-spine link down costs every
	// ToR in the pod exactly one path. On a healthy fabric the fast
	// checker disables a corrupting link at once.
	id := spineLink(s, 1, 2, 7)
	s.onsetAt(time.Hour, id, 1e-3)
	if s.links[id].up() {
		t.Fatal("fast checker left a corrupting spine link up on a healthy fabric")
	}
	for tor := int32(0); tor < s.tors; tor++ {
		if got := s.torPaths(1, tor); got != 191 {
			t.Fatalf("tor %d has %d paths, want 191", tor, got)
		}
	}
	if got := s.torPaths(0, 0); got != 192 {
		t.Fatalf("pod 0 affected: %d paths", got)
	}
	if got := s.sample(time.Hour).minPaths; got != 191 {
		t.Fatalf("least paths %d, want 191", got)
	}
}

func TestDisableToRLink(t *testing.T) {
	s := figure4Shard(4, 0.75, CorrOptOnly{})
	s.onsetAt(time.Hour, s.torLink(0, 5, 1), 1e-3)
	if got := s.torPaths(0, 5); got != 144 {
		t.Fatalf("ToR lost a fabric switch: %d paths, want 144", got)
	}
	if got := s.torPaths(0, 6); got != 192 {
		t.Fatalf("neighbor ToR affected: %d", got)
	}
}

func TestFastCheckerFigure4Scenario(t *testing.T) {
	// The paper's §2 walkthrough: with a 75% constraint, link A (a
	// ToR-fabric link) can be disabled; once it is down, link B (another
	// link of the same ToR) cannot.
	s := figure4Shard(4, 0.75, CorrOptOnly{})
	linkA := s.torLink(2, 0, 0)
	if !s.canDisable(linkA) {
		t.Fatal("healthy fabric: link A must be disableable at 75%")
	}
	s.onsetAt(time.Hour, linkA, 1e-4)
	if s.links[linkA].up() {
		t.Fatal("link A not disabled")
	}
	// ToR 0 of pod 2 now has 144/192 = 75%: losing any further path
	// violates the constraint, so a corrupting link B stays in service.
	linkB := s.torLink(2, 0, 1)
	if s.canDisable(linkB) {
		t.Fatal("link B must not be disableable once A is down")
	}
	s.onsetAt(2*time.Hour, linkB, 1e-4)
	if !s.links[linkB].up() {
		t.Fatal("link B disabled below the constraint")
	}
	// A spine link on a fabric switch still serving ToR 0 is also blocked.
	spine := spineLink(s, 2, 1, 3)
	if s.canDisable(spine) {
		t.Fatal("spine link would push ToR 0 below 75%")
	}
	// But with a 50% constraint both remain fine.
	s.cfg.Constraint = 0.5
	if !s.canDisable(linkB) || !s.canDisable(spine) {
		t.Fatal("50% constraint should allow further disables")
	}
}

// TestHealthyMetrics checks a fresh shard: every ToR has all its paths,
// every pod its full capacity, and nothing adds penalty.
func TestHealthyMetrics(t *testing.T) {
	s := figure4Shard(4, 0.75, LinkGuardian{})
	healthy := s.sample(0)
	if healthy.minPaths != s.maxPaths || healthy.minPodCap != 1 || healthy.penalty != 0 || healthy.maxPerPipe != 0 {
		t.Fatalf("healthy shard sample %+v", healthy)
	}
	if healthy.activeCorrupting != 0 || healthy.disabled != 0 || healthy.protected != 0 {
		t.Fatalf("healthy shard has link faults: %+v", healthy)
	}
}

// TestSetUpRestores checks that a repair returns a protected, disabled
// link and the shard's metrics to the healthy state.
func TestSetUpRestores(t *testing.T) {
	s := figure4Shard(4, 0.75, LinkGuardian{})
	id := spineLink(s, 0, 0, 0)
	s.onsetAt(time.Hour, id, 1e-3)
	if s.links[id].up() || len(s.repairs) != 1 {
		t.Fatal("corrupting link not out for repair")
	}
	s.completeRepair()
	if st := s.links[id]; st != (linkState{effSpeed: 1, flags: flagUp}) {
		t.Fatalf("repair did not reset state: %+v", st)
	}
	got := s.sample(2 * time.Hour)
	if got.minPaths != s.maxPaths || got.penalty != 0 || got.activeCorrupting != 0 ||
		got.disabled != 0 || got.protected != 0 || math.Abs(got.minPodCap-1) > 1e-9 {
		t.Fatalf("metrics not restored after repair: %+v", got)
	}
	if err := s.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPenaltyAndLG checks the penalty and capacity accounting of
// corrupting links the fast checker must leave up: a plain link adds its
// loss rate, a protected one its Equation 2 residual and its Figure 8
// capacity cost, and disabling a protected link removes both.
func TestPenaltyAndLG(t *testing.T) {
	// A 100% constraint blocks every disable, so both links stay up.
	corrupt := func(sol Solution) (s *shard, a, b int32) {
		s = figure4Shard(4, 1, sol)
		a, b = spineLink(s, 0, 0, 0), s.torLink(1, 0, 0)
		s.onsetAt(time.Hour, a, 1e-3)
		s.onsetAt(time.Hour, b, 1e-5)
		return s, a, b
	}
	s, _, _ := corrupt(CorrOptOnly{})
	want := float64(float32(1e-3)) + float64(float32(1e-5))
	if got := s.sample(time.Hour).penalty; got != want {
		t.Fatalf("TotalPenalty = %g, want %g", got, want)
	}

	s, a, _ := corrupt(LinkGuardian{})
	effA := float64(float32(lgmodel.EffLoss(1e-3, 1e-8)))
	effB := float64(float32(lgmodel.EffLoss(1e-5, 1e-8)))
	got := s.sample(time.Hour)
	if got.protected != 2 || math.Abs(got.penalty-(effA+effB)) > 1e-15 {
		t.Fatalf("with LG: %d protected, TotalPenalty = %g, want 2 and %g", got.protected, got.penalty, effA+effB)
	}
	// Effective speed reduces the capacity of each link's pod; pod 0
	// holds the link at the higher loss rate, so it is the least.
	lpp := float64(s.lpp)
	wantCap := (lpp - 1 + float64(float32(lgmodel.Figure8EffSpeed(1e-3)))) / lpp
	if math.Abs(got.minPodCap-wantCap) > 1e-12 {
		t.Fatalf("LeastPodCapacityFrac = %v, want %v", got.minPodCap, wantCap)
	}
	// Disabling the LG link removes both its penalty and its capacity.
	s.disableForRepair(2*time.Hour, a)
	got = s.sample(2 * time.Hour)
	if math.Abs(got.penalty-effB) > 1e-15 {
		t.Fatalf("after disable: TotalPenalty = %g, want %g", got.penalty, effB)
	}
	if wantCap := (lpp - 1) / lpp; math.Abs(got.minPodCap-wantCap) > 1e-12 {
		t.Fatalf("after disable: LeastPodCapacityFrac = %v, want %v", got.minPodCap, wantCap)
	}
	if err := s.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPodCapacityConsistency drives a random walk of onsets at two loss
// rates and repair completions, then checks each pod's incremental
// capacity against a from-scratch sum over its up links.
func TestPodCapacityConsistency(t *testing.T) {
	s := figure4Shard(4, 0.75, LinkGuardian{})
	rng := rand.New(rand.NewSource(1))
	for i, id := range rng.Perm(len(s.links))[:500] {
		now := time.Duration(i) * time.Minute
		switch i % 4 {
		case 0, 1:
			s.onsetAt(now, int32(id), 1e-3)
		case 2:
			s.onsetAt(now, int32(id), 1e-4)
		case 3:
			s.completeRepair()
		}
	}
	// The walk must leave both kinds of capacity loss in place.
	if s.protectedCount == 0 || len(s.repairs) == 0 {
		t.Fatalf("walk left %d protected and %d disabled links; want both > 0", s.protectedCount, len(s.repairs))
	}
	for p := int32(0); p < s.pods; p++ {
		want := 0.0
		for off := int32(0); off < s.lpp; off++ {
			if l := s.links[p*s.lpp+off]; l.up() {
				want += float64(l.effSpeed)
			}
		}
		if diff := want - s.podCap[p]; math.Abs(diff) > 1e-9 {
			t.Fatalf("pod %d capacity drift: incremental %v, recomputed %v", p, s.podCap[p], want)
		}
	}
}

func TestConstraintNeverViolated(t *testing.T) {
	for _, sol := range []Solution{CorrOptOnly{}, LinkGuardian{}} {
		s := denseShard(sol, 0, 600, 30*24*time.Hour, 6*time.Hour)
		samples := s.run()
		if len(samples) == 0 {
			t.Fatal("no samples")
		}
		need := int32(0.75 * float64(s.maxPaths))
		for _, ss := range samples {
			if ss.minPaths < need {
				t.Fatalf("[%s] constraint violated: least paths %d/%d at %v", sol.Name(), ss.minPaths, s.maxPaths, ss.at)
			}
		}
	}
}

func TestCombinedPolicyReducesPenalty(t *testing.T) {
	horizon := 60 * 24 * time.Hour
	vanilla := denseShard(CorrOptOnly{}, 0, 1200, horizon, 6*time.Hour).run()
	combined := denseShard(LinkGuardian{}, 0, 1200, horizon, 6*time.Hour).run()

	// Once corruption pressure builds, the combined policy must deliver
	// orders-of-magnitude lower penalty at a good share of the sampled
	// instants.
	better, maxGain := 0, 0.0
	for i := range vanilla {
		v, c := vanilla[i].penalty, combined[i].penalty
		if v > c {
			better++
		}
		if c > 0 && v/c > maxGain {
			maxGain = v / c
		}
	}
	if better < len(vanilla)/3 {
		t.Fatalf("combined better at only %d/%d samples", better, len(vanilla))
	}
	if maxGain < 1e3 {
		t.Fatalf("max penalty gain %.3g, want orders of magnitude", maxGain)
	}
	// The capacity cost of running LinkGuardian is small (Figure 16b). The
	// dense trace is ~100x the realistic onset rate, so bound the worst
	// case loosely and require the typical cost to be tiny.
	worst, sum := 0.0, 0.0
	for i := range vanilla {
		d := (vanilla[i].minPodCap - combined[i].minPodCap) * 100
		worst = max(worst, d)
		sum += d
	}
	if worst > 5.0 {
		t.Fatalf("worst least-capacity decrease %.2f%%, want < 5%%", worst)
	}
	if mean := sum / float64(len(vanilla)); mean > 1.5 {
		t.Fatalf("mean least-capacity decrease %.2f%%, want ~small", mean)
	}
}

func TestVanillaStuckLinksKeepPenalty(t *testing.T) {
	// Saturate one ToR so the fast checker must refuse: ToR 0 of pod 0 has
	// 4 uplinks; with a 75% constraint only one may go down.
	stuck := func(sol Solution) (*shard, shardSample) {
		s := figure4Shard(8, 0.75, sol)
		for f := int32(0); f < 4; f++ {
			s.onsetAt(time.Duration(f+1)*time.Hour, s.torLink(0, 0, f), 1e-3)
		}
		return s, s.sample(24 * time.Hour)
	}
	s, last := stuck(CorrOptOnly{})
	// One link disabled for repair; three remain corrupting at 1e-3.
	if last.activeCorrupting != 3 || last.disabled != 1 {
		t.Fatalf("active corrupting %d, disabled %d; want 3 and 1", last.activeCorrupting, last.disabled)
	}
	if last.penalty < 2.9e-3 {
		t.Fatalf("vanilla penalty %.3g, want ~3e-3 from stuck links", last.penalty)
	}

	// Same scenario with LinkGuardian: penalty collapses to ~3 target rates
	// while the pod only loses the disabled link plus 8% of each of the
	// three protected ones (Figure 8 at 1e-3).
	s, last = stuck(LinkGuardian{})
	if last.protected != 3 {
		t.Fatalf("protected = %d, want 3", last.protected)
	}
	if last.penalty > 1e-7 {
		t.Fatalf("combined penalty %.3g, want ~3e-9", last.penalty)
	}
	wantCap := (float64(s.lpp) - 1 - 3*(1-float64(float32(0.92)))) / float64(s.lpp)
	if math.Abs(last.minPodCap-wantCap) > 1e-12 {
		t.Fatalf("least pod capacity %v, want %v", last.minPodCap, wantCap)
	}
	// Three protected links on ToR 0's uplinks: one switch pipe.
	if last.maxPerPipe != 3 {
		t.Fatalf("max protected per pipe %d, want 3", last.maxPerPipe)
	}
}

func TestRepairsEventuallyRestore(t *testing.T) {
	s := figure4Shard(8, 0.5, CorrOptOnly{})
	s.onsetAt(time.Hour, 123, 1e-4)
	if mid := s.sample(12 * time.Hour); mid.disabled != 1 || mid.penalty != 0 {
		t.Fatalf("link not out for repair: %+v", mid)
	}
	for len(s.repairs) > 0 {
		s.completeRepair()
	}
	last := s.sample(10 * 24 * time.Hour)
	if last.penalty != 0 || last.disabled != 0 || last.minPaths != s.maxPaths {
		t.Fatalf("fleet did not recover: %+v", last)
	}
}

func TestIncrementalDeployment(t *testing.T) {
	// Penalty falls as the deployment fraction grows, with full deployment
	// matching the plain combined policy.
	horizon := 60 * 24 * time.Hour
	penalty := func(sol Solution, frac float64) float64 {
		sum := 0.0
		for _, ss := range denseShard(sol, frac, 1200, horizon, 12*time.Hour).run() {
			sum += ss.penalty
		}
		return sum
	}
	p0 := penalty(LinkGuardian{}, 0) // 0 means full deployment
	p25 := penalty(LinkGuardian{}, 0.25)
	p100 := penalty(LinkGuardian{}, 1)
	if p0 != p100 {
		t.Fatalf("fraction 0 and 1 should both mean full deployment: %g vs %g", p0, p100)
	}
	if p25 <= p100 {
		t.Fatalf("25%% deployment penalty %g should exceed full deployment %g", p25, p100)
	}
	// Partial deployment still beats vanilla CorrOpt.
	if vanilla := penalty(CorrOptOnly{}, 0); p25 >= vanilla {
		t.Fatalf("partial deployment %g should still beat vanilla %g", p25, vanilla)
	}
}

func TestDeployedDeterministicAndUniform(t *testing.T) {
	n, hits := 100000, 0
	for id := 0; id < n; id++ {
		if deployed(id, 0.3) {
			hits++
		}
		if deployed(id, 0.3) != deployed(id, 0.3) {
			t.Fatal("deployed not deterministic")
		}
	}
	if frac := float64(hits) / float64(n); math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("capable fraction %.3f, want ~0.30", frac)
	}
}
