package fleetsim

import (
	"math"
	"testing"

	"linkguardian/internal/lgmodel"
	"linkguardian/internal/wharf"
)

// allSolutions returns the built-in matrix with default parameters.
func allSolutions(t *testing.T) []Solution {
	t.Helper()
	sols, err := ParseSolutions("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 4 {
		t.Fatalf("built-in matrix has %d solutions, want 4", len(sols))
	}
	return sols
}

// TestSolutionTableEdgeCases drives every solution's loss→(eff loss, eff
// capacity) mapping through the edges: zero loss, the healthy floor, the
// Table 1 bucket boundaries, 100% loss, and out-of-range garbage.
func TestSolutionTableEdgeCases(t *testing.T) {
	edges := []float64{0, 1e-12, 1e-8, 1e-5, 1e-4, 1e-3, 1e-2, 0.5, 1, 2, math.Inf(1)}
	for _, sol := range allSolutions(t) {
		for _, q := range edges {
			e, on := sol.Apply(q)
			qc := q
			if qc > 1 {
				qc = 1
			}
			if e.EffLoss < 0 || e.EffLoss > 1 {
				t.Errorf("%s.Apply(%g): eff loss %g out of [0,1]", sol.Name(), q, e.EffLoss)
			}
			if e.EffLoss > qc+1e-15 {
				t.Errorf("%s.Apply(%g): eff loss %g amplifies the raw loss %g", sol.Name(), q, e.EffLoss, qc)
			}
			if e.EffCapacity <= 0 || e.EffCapacity > 1 {
				t.Errorf("%s.Apply(%g): eff capacity %g out of (0,1]", sol.Name(), q, e.EffCapacity)
			}
			if e.Cost < 0 {
				t.Errorf("%s.Apply(%g): negative cost %g", sol.Name(), q, e.Cost)
			}
			if on && sol.Name() == "corropt" {
				t.Errorf("corropt baseline must never engage (q=%g)", q)
			}
		}
		// Zero loss must be a no-op: no engagement, full capacity.
		if e, on := sol.Apply(0); on || e.EffLoss != 0 || e.EffCapacity != 1 {
			t.Errorf("%s.Apply(0): got %+v enabled=%v, want disengaged perfect link", sol.Name(), e, on)
		}
		// NaN must not propagate into the fleet state.
		if e, _ := sol.Apply(math.NaN()); math.IsNaN(e.EffLoss) || math.IsNaN(e.EffCapacity) {
			t.Errorf("%s.Apply(NaN) propagated NaN: %+v", sol.Name(), e)
		}
	}
}

func TestLinkGuardianMatchesEquation2(t *testing.T) {
	s := LinkGuardian{}
	for _, q := range []float64{1e-5, 1e-4, 1e-3, 5e-3} {
		e, on := s.Apply(q)
		if !on {
			t.Fatalf("LG must engage at q=%g", q)
		}
		if want := lgmodel.EffLoss(q, 1e-8); e.EffLoss != want {
			t.Errorf("LG eff loss at %g = %g, want Equation 2's %g", q, e.EffLoss, want)
		}
		if want := lgmodel.Figure8EffSpeed(q); e.EffCapacity != want {
			t.Errorf("LG eff capacity at %g = %g, want Figure 8's %g", q, e.EffCapacity, want)
		}
	}
}

// TestWharfCapacityMonotone pins the FEC overhead shape: while the FEC is
// engaged, effective capacity never increases with the loss rate (more
// parity is never free), sweeping two decades beyond the measured table on
// both sides. Beyond the design range the controller must disengage
// instead of amplifying loss.
func TestWharfCapacityMonotone(t *testing.T) {
	s := WharfFEC{}
	prevCap := 1.0
	engaged := 0
	for q := 1e-7; q <= 1.0; q *= 1.25 {
		e, on := s.Apply(q)
		if !on {
			if e.EffLoss != q || e.EffCapacity != 1 {
				t.Fatalf("disengaged wharf at q=%g must pass the link through, got %+v", q, e)
			}
			continue
		}
		engaged++
		if e.EffCapacity > prevCap+1e-15 {
			t.Fatalf("wharf eff capacity increased with loss: %g at q=%g (prev %g)", e.EffCapacity, q, prevCap)
		}
		prevCap = e.EffCapacity
		if want := 1 - wharf.BestParams(q).Overhead(); e.EffCapacity != want {
			t.Fatalf("wharf eff capacity at %g = %g, want %g", q, e.EffCapacity, want)
		}
		if e.EffLoss >= q {
			t.Fatalf("engaged wharf at q=%g amplifies loss: %g", q, e.EffLoss)
		}
	}
	if engaged == 0 {
		t.Fatal("wharf never engaged across the sweep")
	}
}

func TestP4ProtectQuadraticLoss(t *testing.T) {
	s := P4Protect{}
	for _, q := range []float64{1e-4, 1e-3, 1e-2} {
		e, on := s.Apply(q)
		if !on || e.EffLoss != q*q {
			t.Errorf("p4protect at %g: eff loss %g, want q²=%g", q, e.EffLoss, q*q)
		}
		if e.EffCapacity != 0.5 {
			t.Errorf("p4protect at %g: eff capacity %g, want 0.5 (1+1 duplication)", q, e.EffCapacity)
		}
	}
}

// TestTableSolutionInterpolation covers the measured-table plugin: exact
// hits, log-linear interpolation between rows, and clamping at and beyond
// both table boundaries.
func TestTableSolutionInterpolation(t *testing.T) {
	rows := []PerfRow{
		{LossRate: 1e-4, EffLoss: 1e-8, EffCapacity: 0.99},
		{LossRate: 1e-2, EffLoss: 1e-6, EffCapacity: 0.90},
		{LossRate: 1e-3, EffLoss: 1e-7, EffCapacity: 0.95}, // out of order on purpose
	}
	ts, err := NewTableSolution("measured", rows, 0.5)
	if err != nil {
		t.Fatal(err)
	}

	// Exact hits return the row, regardless of input order.
	for _, r := range rows {
		e, on := ts.Apply(r.LossRate)
		if !on || e.EffLoss != r.EffLoss || e.EffCapacity != r.EffCapacity {
			t.Errorf("exact hit at %g: got %+v", r.LossRate, e)
		}
		if e.Cost != 0.5 {
			t.Errorf("table solution cost = %g, want 0.5", e.Cost)
		}
	}

	// Geometric midpoint of two rows interpolates to the arithmetic
	// midpoint of their effects (log-linear).
	mid := math.Sqrt(1e-4 * 1e-3)
	e, _ := ts.Apply(mid)
	if math.Abs(e.EffLoss-(1e-8+1e-7)/2) > 1e-12 {
		t.Errorf("midpoint eff loss %g, want %g", e.EffLoss, (1e-8+1e-7)/2)
	}
	if math.Abs(e.EffCapacity-(0.99+0.95)/2) > 1e-12 {
		t.Errorf("midpoint eff capacity %g, want %g", e.EffCapacity, (0.99+0.95)/2)
	}

	// At and beyond the boundaries: clamp to the nearest measured row.
	for _, q := range []float64{1e-6, 1e-5} {
		if e, _ := ts.Apply(q); e.EffLoss != 1e-8 || e.EffCapacity != 0.99 {
			t.Errorf("below-table %g: got %+v, want first row", q, e)
		}
	}
	for _, q := range []float64{0.5, 1, 7} {
		if e, _ := ts.Apply(q); e.EffLoss != 1e-6 || e.EffCapacity != 0.90 {
			t.Errorf("beyond-table %g: got %+v, want last row", q, e)
		}
	}
	// Zero loss: no mitigation needed, perfect link.
	if e, on := ts.Apply(0); on || e.EffLoss != 0 || e.EffCapacity != 1 {
		t.Errorf("zero loss: got %+v enabled=%v", e, on)
	}
}

func TestTableSolutionRejectsBadRows(t *testing.T) {
	if _, err := NewTableSolution("empty", nil, 0); err == nil {
		t.Error("empty table accepted")
	}
	if _, err := NewTableSolution("zero", []PerfRow{{LossRate: 0}}, 0); err == nil {
		t.Error("zero loss-rate row accepted")
	}
	if _, err := NewTableSolution("dup", []PerfRow{{LossRate: 1e-3}, {LossRate: 1e-3}}, 0); err == nil {
		t.Error("duplicate loss-rate rows accepted")
	}
}

func TestSampleTableRoundTrips(t *testing.T) {
	grid := []float64{1e-5, 1e-4, 1e-3, 1e-2}
	rows := SampleTable(LinkGuardian{}, grid)
	ts, err := NewTableSolution("lg-sampled", rows, DefaultLGCost)
	if err != nil {
		t.Fatal(err)
	}
	// At the sampled points the table reproduces the formula exactly.
	for _, q := range grid {
		want, _ := LinkGuardian{}.Apply(q)
		got, _ := ts.Apply(q)
		if got.EffLoss != want.EffLoss || got.EffCapacity != want.EffCapacity {
			t.Errorf("sampled table at %g: got %+v, want %+v", q, got, want)
		}
	}
}

func TestParseSolutions(t *testing.T) {
	for _, bad := range []string{"nope", "lg,lg", ","} {
		if _, err := ParseSolutions(bad); err == nil {
			t.Errorf("ParseSolutions(%q) accepted", bad)
		}
	}
	sols, err := ParseSolutions(" lg , corropt ")
	if err != nil || len(sols) != 2 || sols[0].Name() != "lg" || sols[1].Name() != "corropt" {
		t.Fatalf("ParseSolutions with spaces: %v %v", sols, err)
	}
}
