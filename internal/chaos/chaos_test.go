package chaos

import (
	"testing"

	"linkguardian/internal/simtime"
)

// Every curated scenario must complete with zero invariant violations on
// the shipped protocol: the faults are exactly the conditions LinkGuardian
// claims to mask (in-envelope) or degrade gracefully under (out).
func TestNamedScenariosNoViolations(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, seed := range []int64{1, 7} {
				sc, ok := Named(name, seed)
				if !ok {
					t.Fatalf("scenario %q missing", name)
				}
				r := RunScenario(sc, RunOpts{Index: -1})
				if r.TxUnique == 0 {
					t.Fatalf("seed %d: no protected traffic ran:\n%v", seed, r)
				}
				if !r.Quiesced {
					t.Fatalf("seed %d: failed to quiesce:\n%v", seed, r)
				}
				if r.Failed() {
					t.Fatalf("seed %d: invariant violations:\n%v", seed, r)
				}
			}
		})
	}
}

// The era-wrap scenario must actually cross the 16-bit wrap so the checker's
// windowed duplicate detection is exercised across the era boundary.
func TestEraWrapScenarioCrossesWrap(t *testing.T) {
	sc, _ := Named("era-wrap", 3)
	if sc.SeqStart == 0 {
		t.Fatal("era-wrap scenario does not seed the sequence space")
	}
	r := RunScenario(sc, RunOpts{Index: -1})
	if r.Failed() {
		t.Fatalf("violations:\n%v", r)
	}
	// 6000 frames from 65536-300 wraps well past zero.
	if want := uint64(2 * (65536 - int(sc.SeqStart))); r.TxUnique < want {
		t.Fatalf("txUnique = %d, too few to have crossed the wrap (want >= %d)", r.TxUnique, want)
	}
}

// tailBlackout is a scenario whose final stretch of traffic is entirely
// lost, with the generator stopping while the blackout still holds: a pure
// tail loss no later packet's sequence gap can reveal. Only the dummy-packet
// tail-loss detection (§3.2) can recover it.
func tailBlackout(seed int64) Scenario {
	sc, _ := Named("quiet", seed)
	sc.Name = "tail-blackout"
	sc.BaseLoss = 0
	sc.TrafficFrac = 0.97
	sc.Steps = []Step{{At: sc.Window * 19 / 20, Dur: sc.Window, Fault: LossSpike{Rate: 1}}}
	return sc
}

// Deliberately disabling tail-loss detection must make the checker fire
// under a tail blackout: with no dummies, the receiver never learns about
// losses at the end of the traffic, so transmitted packets end up neither
// delivered nor accounted. This is the regression proof that the invariants
// detect a real protocol hole, not just that healthy runs pass.
func TestCheckerFiresWithTailLossDisabled(t *testing.T) {
	sc := tailBlackout(5)
	sc.DisableTailLoss = true
	r := RunScenario(sc, RunOpts{Index: -1})
	if !r.Failed() {
		t.Fatalf("expected invariant violations with tail-loss detection ablated:\n%v", r)
	}
	found := false
	for _, v := range r.Violations {
		if v.Rule == RuleLiveness {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a liveness violation, got:\n%v", r)
	}

	// The identical blackout with the mechanism intact recovers cleanly —
	// the violation is the ablation's fault, not the scenario's.
	intact := tailBlackout(5)
	r = RunScenario(intact, RunOpts{Index: -1})
	if r.Failed() || !r.Quiesced {
		t.Fatalf("shipped protocol should mask the same tail blackout:\n%v", r)
	}
}

// A scenario is a pure function of its seed: running it twice must produce
// byte-identical reports.
func TestScenarioDeterministic(t *testing.T) {
	sc, _ := Named("ctrl-storm", 11)
	a := RunScenario(sc, RunOpts{Index: -1}).String()
	b := RunScenario(sc, RunOpts{Index: -1}).String()
	if a != b {
		t.Fatalf("same scenario, different reports:\n%s\n---\n%s", a, b)
	}
}

// Generated scenarios must have well-formed fault schedules.
func TestGenScenarioWellFormed(t *testing.T) {
	for i := 0; i < 500; i++ {
		sc := GenScenario(42, i)
		if sc.Window <= 0 || sc.LoadFrac <= 0 || sc.LoadFrac > 1 {
			t.Fatalf("gen %d: bad window/load: %+v", i, sc)
		}
		if len(sc.Steps) < 1 || len(sc.Steps) > 3 {
			t.Fatalf("gen %d: %d steps", i, len(sc.Steps))
		}
		for k, s := range sc.Steps {
			if s.At < 0 || s.Dur <= 0 {
				t.Fatalf("gen %d step %d: bad timing %v", i, k, s)
			}
			if k > 0 {
				prev := sc.Steps[k-1]
				if s.At < prev.At+prev.Dur {
					t.Fatalf("gen %d: steps overlap: %v then %v", i, prev, s)
				}
			}
		}
	}
}

func TestFrameIntervalMatchesLoad(t *testing.T) {
	full := frameInterval(simtime.Rate25G, simtime.MTUFrame, 1)
	half := frameInterval(simtime.Rate25G, simtime.MTUFrame, 0.5)
	if half != 2*full {
		t.Fatalf("half-load interval %v, want %v", half, 2*full)
	}
}
