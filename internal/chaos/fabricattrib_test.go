package chaos

import (
	"strings"
	"testing"
)

func TestProbePath(t *testing.T) {
	got := probePath(1, 3, 5)
	want := []string{"s1.protected", "s1.cross", "s2.protected", "s2.cross", "s3.protected"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("path 1→3 = %v, want %v", got, want)
	}
	// Wrap-around: 4 → 0 crosses the ring seam.
	got = probePath(4, 0, 5)
	want = []string{"s4.protected", "s4.cross", "s0.protected"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("path 4→0 = %v, want %v", got, want)
	}
}

// One single-culprit run: the vote must put the injected link on top, with a
// clean observation set.
func TestAttribSingleCulprit(t *testing.T) {
	r := RunFabricAttrib(GenAttribScenario(20230823, 2))
	if !r.Acc.Top1Hit {
		t.Fatalf("culprit not ranked first:\n%s", r)
	}
	if r.Table.Skipped != 0 {
		t.Fatalf("probe audit produced malformed observations:\n%s", r)
	}
	if r.Table.BadFlows == 0 {
		t.Fatalf("no probe flow observed the injected loss:\n%s", r)
	}
	if r.Metrics.Gauge("attrib.top1_hit").Value != 1 {
		t.Fatalf("accuracy gauge not set:\n%s", r)
	}
}

// Every-segment-faulted: attribution input stays well-formed even when there
// is no healthy link left to compare against. Ranking quality is not
// asserted — with every link bad the top-1 question is ill-posed — but the
// pipeline must not degenerate.
func TestAttribAllSegmentsFaulted(t *testing.T) {
	sc := GenAttribScenario(7, 0)
	sc.Name = "attrib-all"
	sc.FaultSegs = []int{0, 1, 2, 3, 4}
	a := RunFabricAttrib(sc)
	if a.Table.Skipped != 0 {
		t.Fatalf("malformed observations: %s", a)
	}
	if a.Acc.TopKHits != len(a.Culprits) {
		// All 5 culprits occupy ranks 1..5 by construction (every protected
		// link is a culprit and protected links out-rank cross links, which
		// never drop).
		t.Fatalf("culprits not filling the top ranks:\n%s", a)
	}
}

// The accuracy gate: >= 90% top-1 over single-culprit scenarios, and the
// correlated multi-culprit sweep reports sane rank data.
func TestAttribSoakAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("attribution soak skipped in -short mode")
	}
	res := AttribSoak(20230823, 10, 4)
	if rate := res.Top1Rate(); rate < 0.9 {
		t.Fatalf("single-culprit top-1 accuracy %.2f < 0.90:\n%s", rate, res)
	}
	if res.MultiTopKRate() <= 0 {
		t.Fatalf("correlated sweep attributed nothing:\n%s", res)
	}
	for _, r := range res.Multi {
		if len(r.Acc.Ranks) != 2 {
			t.Fatalf("multi-culprit run missing ranks:\n%s", r)
		}
	}
}
