package wharf

import (
	"math"
	"math/rand"
	"testing"

	"linkguardian/internal/failtrace"
)

func TestOverheadMatchesTable3Ratios(t *testing.T) {
	// Wharf's goodput tax: 9.13/9.49 ≈ 3.8% at low loss, (9.49-7.91)/9.49
	// ≈ 16.7% at 1e-2 (Table 3 vs the lossless "None" row).
	for _, q := range []float64{1e-5, 1e-4, 1e-3} {
		if o := BestParams(q).Overhead(); math.Abs(o-0.0385) > 0.003 {
			t.Errorf("overhead at %g = %.4f, want ~0.0385", q, o)
		}
	}
	if o := BestParams(1e-2).Overhead(); math.Abs(o-1.0/6) > 0.005 {
		t.Errorf("overhead at 1e-2 = %.4f, want ~0.167", o)
	}
}

func TestResidualLossNegligibleAtBestParams(t *testing.T) {
	// The whole point of picking the best parameters: residual loss after
	// FEC is far below what would disturb TCP.
	for _, q := range []float64{1e-5, 1e-4, 1e-3, 1e-2} {
		res := BestParams(q).ResidualFrameLoss(q)
		if res > q/50 {
			t.Errorf("residual at %g = %g, want << raw", q, res)
		}
	}
}

func TestResidualMonotone(t *testing.T) {
	p := Params{K: 50, R: 2}
	prev := -1.0
	for q := 1e-6; q < 0.3; q *= 2 {
		r := p.ResidualFrameLoss(q)
		if r < prev || r < 0 || r > 1 {
			t.Fatalf("residual not monotone at %g", q)
		}
		prev = r
	}
	if p.ResidualFrameLoss(0) != 0 {
		t.Fatal("residual at 0 loss must be 0")
	}
}

func TestGoodputScaling(t *testing.T) {
	// With a baseline that collapses under loss, Wharf should hold goodput
	// near (1-overhead) * lossless across Table 3's loss rates.
	baseline := func(loss float64) float64 {
		switch {
		case loss < 1e-7:
			return 9.49
		case loss < 1e-4:
			return 8.0
		case loss < 1e-3:
			return 3.48
		default:
			return 1.46
		}
	}
	for _, q := range []float64{1e-5, 1e-4, 1e-3} {
		g := Goodput(baseline, q)
		if math.Abs(g-9.13) > 0.25 {
			t.Errorf("Wharf goodput at %g = %.2f, want ~9.13 (Table 3)", q, g)
		}
	}
	if g := Goodput(baseline, 1e-2); math.Abs(g-7.91) > 0.35 {
		t.Errorf("Wharf goodput at 1e-2 = %.2f, want ~7.91", g)
	}
}

// residualPerTerm is the direct form of ResidualFrameLoss, with three
// Lgamma calls and both logarithms per binomial term: the oracle the
// table-driven tail must match bit for bit.
func residualPerTerm(p Params, q float64) float64 {
	if q <= 0 {
		return 0
	}
	n := p.K + p.R
	var tail float64
	for i := p.R + 1; i <= n; i++ {
		lp := logChoose(n, i) + float64(i)*math.Log(q) + float64(n-i)*math.Log1p(-q)
		tail += math.Exp(lp)
	}
	if tail > 1 {
		tail = 1
	}
	return tail
}

// TestResidualMatchesPerTermOracle requires ResidualFrameLoss to be
// bit-identical to the per-term oracle at every BestParams block, over a
// log-spaced grid from 1e-9 to 0.999 and over the fleet trace's loss-rate
// draws, plus three block sizes the logChoose table does not hold. Above
// q = 0.5 the first terms of the tail grow, so an early stop would show
// there; the 1000-frame block has the longest tail.
func TestResidualMatchesPerTermOracle(t *testing.T) {
	params := []Params{BestParams(1e-5), BestParams(1e-4), BestParams(1e-3), BestParams(1e-2), {K: 10, R: 2}, {K: 200, R: 8}, {K: 990, R: 10}}
	var qs []float64
	for e := -9.0; e <= math.Log10(0.999); e += 0.05 {
		qs = append(qs, math.Pow(10, e))
	}
	qs = append(qs, 0.5, 0.9, 0.999)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10_000; i++ {
		qs = append(qs, failtrace.SampleLossRate(rng))
	}
	for _, p := range params {
		for _, q := range qs {
			got, want := p.ResidualFrameLoss(q), residualPerTerm(p, q)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%+v at q=%g: %x (%g), oracle %x (%g)", p, q,
					math.Float64bits(got), got, math.Float64bits(want), want)
			}
		}
	}
}
