// Fleet: operating a datacenter fabric with LinkGuardian + CorrOpt (§3.6,
// §4.8).
//
// The example builds a Facebook-fabric topology, replays a synthetic
// one-quarter corruption trace through both repair policies — CorrOpt alone
// vs. LinkGuardian+CorrOpt — and prints the total-penalty and capacity
// metrics side by side.
//
// Run with: go run ./examples/fleet
package main

import (
	"fmt"
	"time"

	"linkguardian/internal/experiments"
)

func main() {
	opts := experiments.FleetOpts{
		Pods:        32, // 12,288 optical links
		Horizon:     90 * 24 * time.Hour,
		SampleEvery: 12 * time.Hour,
		Seed:        7,
	}
	for _, constraint := range []float64{0.50, 0.75} {
		fc := experiments.RunFleet(constraint, opts)
		fmt.Printf("capacity constraint %.0f%% — %d links, 90 days\n", constraint*100, fc.Links)
		fmt.Printf("  penalty gain (CorrOpt / LG+CorrOpt): p50 %.3g, p90 %.3g, max %.3g\n",
			fc.PenaltyGain.Percentile(50), fc.PenaltyGain.Percentile(90), fc.PenaltyGain.Max())
		fmt.Printf("  least-capacity cost of LG: p50 %.4f%%, worst %.4f%% of pod capacity\n",
			fc.CapacityDecreasePP.Percentile(50), fc.CapacityDecreasePP.Max())

		// A one-week zoom like Figure 15.
		v, c := fc.Figure15Window(30*24*time.Hour, 7*24*time.Hour)
		fmt.Println("  week 5 snapshot (day | penalty CorrOpt | penalty LG+CorrOpt | LG links):")
		for i := range v {
			fmt.Printf("    %5.1f | %10.3e | %10.3e | %d\n",
				v[i].At.Hours()/24, v[i].TotalPenalty, c[i].TotalPenalty, c[i].Protected)
		}
		fmt.Println()
	}
}
