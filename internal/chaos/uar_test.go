package chaos

import (
	"strings"
	"testing"

	"linkguardian/internal/core"
	"linkguardian/internal/experiments"
	"linkguardian/internal/simnet"
	"linkguardian/internal/simtime"
)

// The use-after-release detector must catch an ownership bug the moment it
// happens: here a rogue tap releases a frame out from under the MAC while
// it is still propagating, exactly the failure mode the pool's generation
// counter is keyed to expose.
func TestUseAfterReleaseDetectorFires(t *testing.T) {
	cfg := core.NewConfig(simtime.Rate100G, 1e-3)
	tb := experiments.NewTestbed(1, simtime.Rate100G, cfg)
	c := Watch(tb.Sim, tb.Link, tb.Link.A(), tb.LG, 0)
	var rules []string
	c.OnViolation = func(v Violation) { rules = append(rules, v.Rule) }
	tb.LG.Enable()

	// Deliberate bug: the first clean data frame on the wire is released
	// mid-flight and immediately recycled into a fresh allocation — the
	// classic ownership bug where a terminal point releases a packet it no
	// longer owns and the pool hands the hot object to someone else. The
	// checker's tap runs first (Watch attached before us), so its probe
	// snapshots the pre-release generation and must see the bump.
	stolen := false
	tb.Link.TapDeliver(func(pkt *simnet.Packet, from *simnet.Ifc, corrupted bool) {
		if stolen || from != tb.Link.A() || corrupted || pkt.Kind != simnet.KindData {
			return
		}
		stolen = true
		tb.Sim.Release(pkt)
		if np := tb.Sim.NewPacket(simnet.KindData, pkt.Size, "h2"); np != pkt {
			t.Errorf("free list did not hand back the released packet (LIFO expected)")
		}
	})

	gen := tb.StartGeneratorAt(1500, 0.1)
	tb.Sim.RunFor(10 * simtime.Microsecond)
	gen.Stop()

	if !stolen {
		t.Fatal("test harness never saw a data frame on the wire")
	}
	found := false
	for _, r := range rules {
		if r == RuleUseAfterRel {
			found = true
		}
	}
	if !found {
		t.Fatalf("mid-flight release went undetected; violations: %v", rules)
	}
}

// A clean run must never trip the detector — the soak relies on this rule
// being silent unless ownership is actually violated.
func TestUseAfterReleaseDetectorSilentOnCleanRun(t *testing.T) {
	r := RunScenario(tailBlackout(5), RunOpts{Index: -1})
	for _, v := range r.Violations {
		if strings.Contains(v.Rule, RuleUseAfterRel) {
			t.Fatalf("clean scenario flagged use-after-release: %v", v)
		}
	}
	if r.Failed() {
		t.Fatalf("clean scenario failed:\n%v", r)
	}
}
