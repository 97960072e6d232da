package lgmodel

import (
	"fmt"
	"math"
	"testing"
)

func TestEffLossMatchesEquation2(t *testing.T) {
	cases := map[float64]float64{
		1e-4: 1e-8,  // N=1
		1e-3: 1e-9,  // N=2
		1e-5: 1e-10, // N=1
	}
	for actual, want := range cases {
		got := EffLoss(actual, 1e-8)
		if math.Abs(math.Log10(got)-math.Log10(want)) > 0.01 {
			t.Errorf("EffLoss(%g) = %g, want %g", actual, got, want)
		}
		if got > 1e-8*1.01 {
			t.Errorf("EffLoss(%g) = %g misses the 1e-8 target", actual, got)
		}
	}
	if got := EffLoss(0, 1e-8); got != 0 {
		t.Errorf("EffLoss(0) = %g, want 0 on a healthy link", got)
	}
	// At least one copy even when the target is looser than the link, and
	// a dead link stays dead.
	if got := EffLoss(1e-3, 1e-2); math.Abs(got-1e-6) > 1e-18 {
		t.Errorf("EffLoss(1e-3, 1e-2) = %g, want 1e-6 from one copy", got)
	}
	if got := EffLoss(1, 1e-8); got != 1 {
		t.Errorf("EffLoss(1) = %g, want 1", got)
	}
}

// TestFigure8EffSpeed pins the measured effective speeds at the Table 1
// bucket boundaries and beyond the measured range.
func TestFigure8EffSpeed(t *testing.T) {
	for q, want := range map[float64]float64{1e-6: 0.998, 1e-5: 0.998, 1e-4: 0.99, 1e-3: 0.92, 1e-2: 0.85} {
		if got := Figure8EffSpeed(q); got != want {
			t.Errorf("Figure8EffSpeed(%g) = %g, want %g", q, got, want)
		}
	}
}

// ExampleCopiesFor reproduces the paper's Equation 2 worked example: a
// target loss rate of 1e-8 on a link corrupting at 1e-4 needs a single
// retransmitted copy; at 1e-3 it needs two.
func ExampleCopiesFor() {
	fmt.Println(CopiesFor(1e-4, 1e-8))
	fmt.Println(CopiesFor(1e-3, 1e-8))
	// Output:
	// 1
	// 2
}
