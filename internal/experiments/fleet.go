package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"linkguardian/internal/fleetsim"
	"linkguardian/internal/parallel"
	"linkguardian/internal/stats"
)

// FleetOpts scales the §4.8 large-scale simulation.
type FleetOpts struct {
	Pods        int // 256 pods = ~100K links (the paper's scale)
	Horizon     time.Duration
	SampleEvery time.Duration
	Seed        int64
}

// DefaultFleetOpts runs the paper's one-year simulation at a reduced
// default scale (64 pods ≈ 25K links) that completes quickly; cmd/fleetsim
// exposes the full size.
func DefaultFleetOpts() FleetOpts {
	return FleetOpts{
		Pods:        64,
		Horizon:     365 * 24 * time.Hour,
		SampleEvery: 6 * time.Hour,
		Seed:        1,
	}
}

// FleetComparison holds both policies' sample series over an identical
// corruption trace, for one capacity constraint.
type FleetComparison struct {
	Constraint         float64
	Links              int
	Vanilla, Combined  []fleetsim.Sample
	PenaltyGain        *stats.Dist // Figure 16a (log10 would be plotted)
	CapacityDecreasePP *stats.Dist // Figure 16b, percent points
}

// RunFleet simulates CorrOpt vs LinkGuardian+CorrOpt under one capacity
// constraint — Figures 15 and 16 — as one fleetsim.RunMatrix call over the
// Figure 4 pod shape. The matrix replays the same per-shard corruption
// trace for both solutions, so the two series are a paired comparison.
func RunFleet(constraint float64, opts FleetOpts) FleetComparison {
	m := fleetsim.RunMatrix(fleetsim.Config{
		Fabric:      fleetsim.Fabric{Pods: opts.Pods},
		Horizon:     opts.Horizon,
		SampleEvery: opts.SampleEvery,
		Seed:        opts.Seed,
		Constraint:  constraint,
	}, []fleetsim.Solution{fleetsim.CorrOptOnly{}, fleetsim.LinkGuardian{}})
	fc := FleetComparison{
		Constraint: constraint,
		Links:      m.Config.NumLinks(),
		Vanilla:    m.Results[0].Samples,
		Combined:   m.Results[1].Samples,
	}
	gains, capDec := gain(fc.Vanilla, fc.Combined)
	fc.PenaltyGain = stats.NewDist(gains)
	fc.CapacityDecreasePP = stats.NewDist(capDec)
	return fc
}

// gain compares the paired vanilla and combined series and returns, per
// sample, the gain in total penalty (vanilla/combined, capped at 1e12 where
// the combined penalty is exactly 0) and the decrease in least pod capacity
// (vanilla - combined, in percent points) — the Figure 16 CDF series.
func gain(vanilla, combined []fleetsim.Sample) (penaltyGain, capDecrease []float64) {
	for i, v := range vanilla {
		c := combined[i]
		switch {
		case c.TotalPenalty == 0 && v.TotalPenalty == 0:
			penaltyGain = append(penaltyGain, 1)
		case c.TotalPenalty == 0:
			penaltyGain = append(penaltyGain, 1e12)
		default:
			penaltyGain = append(penaltyGain, math.Min(v.TotalPenalty/c.TotalPenalty, 1e12))
		}
		capDecrease = append(capDecrease, (v.LeastPodCap-c.LeastPodCap)*100)
	}
	return penaltyGain, capDecrease
}

// Figure15Window extracts a one-week snapshot of the comparison starting at
// the given offset, mirroring the Figure 15 plots.
func (fc FleetComparison) Figure15Window(start, span time.Duration) (vanilla, combined []fleetsim.Sample) {
	cut := func(ss []fleetsim.Sample) []fleetsim.Sample {
		var out []fleetsim.Sample
		for _, s := range ss {
			if s.At >= start && s.At < start+span {
				out = append(out, s)
			}
		}
		return out
	}
	return cut(fc.Vanilla), cut(fc.Combined)
}

// String summarizes the Figure 16 distributions.
func (fc FleetComparison) String() string {
	return fmt.Sprintf("constraint=%.0f%% links=%d gain[p50=%.3g p90=%.3g max=%.3g] capDec[p50=%.4f%% p99=%.4f%%]",
		fc.Constraint*100, fc.Links,
		fc.PenaltyGain.Percentile(50), fc.PenaltyGain.Percentile(90), fc.PenaltyGain.Max(),
		fc.CapacityDecreasePP.Percentile(50), fc.CapacityDecreasePP.Percentile(99))
}

// WriteFleetReport renders the §4.8 report cmd/fleetsim prints: the fabric
// header, the Figure 16 summary and percentiles, and (optionally) the full
// Figure 15 series. The golden test pins its bytes at full scale.
func WriteFleetReport(w io.Writer, fc FleetComparison, days int, series bool) error {
	if _, err := fmt.Fprintf(w, "fabric: %d links, constraint %.0f%%, horizon %dd\n", fc.Links, fc.Constraint*100, days); err != nil {
		return err
	}
	fmt.Fprintln(w, fc)

	fmt.Fprintln(w, "\nFigure 16a — gain in total penalty (vanilla/combined):")
	for _, p := range []float64{10, 25, 50, 75, 90, 99} {
		fmt.Fprintf(w, "  p%-4g %.4g\n", p, fc.PenaltyGain.Percentile(p))
	}
	fmt.Fprintln(w, "Figure 16b — decrease in least capacity per pod (percent points):")
	for _, p := range []float64{50, 90, 99, 100} {
		fmt.Fprintf(w, "  p%-4g %.4f\n", p, fc.CapacityDecreasePP.Percentile(p))
	}

	if series {
		fmt.Fprintln(w, "\nFigure 15 series (day, penaltyV, penaltyC, pathsV, pathsC, capV, capC, LG links, maxLG/pipe):")
		for i := range fc.Vanilla {
			v, c := fc.Vanilla[i], fc.Combined[i]
			fmt.Fprintf(w, "%7.2f  %10.3e  %10.3e  %6.4f  %6.4f  %6.4f  %6.4f  %4d  %2d\n",
				v.At.Hours()/24, v.TotalPenalty, c.TotalPenalty,
				v.LeastPaths, c.LeastPaths, v.LeastPodCap, c.LeastPodCap,
				c.Protected, c.MaxProtectedPerPipe)
		}
	}
	return nil
}

// Figures15And16 runs the comparison for both capacity constraints of the
// paper (50% and 75%). The (constraint, policy) pairs fan out across the
// parallel engine: each constraint's comparison is fully independent.
func Figures15And16(opts FleetOpts) []FleetComparison {
	constraints := []float64{0.50, 0.75}
	return parallel.Map(len(constraints), func(i int) FleetComparison {
		return RunFleet(constraints[i], opts)
	})
}
