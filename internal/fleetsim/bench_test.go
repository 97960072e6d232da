package fleetsim

import (
	"testing"
	"time"
)

// BenchmarkFleetPareto measures the sharded engine end to end: the full
// four-solution matrix over a 100K-link fleet for one simulated year per
// iteration (≈400K simulated link-years each). The custom metric is
// link-years of simulation per wall-clock second, which is what bounds the
// reachable fleet size: 1M links × 4 solutions needs 4M link-years per run.
// On a 2-vCPU Xeon container (Go 1.24.0) it reads 1.44M–1.78M
// link-years/s at -cpu 1 (five runs) and 2.41M–2.53M at -cpu 2 (three
// runs); the engine that walked a pod's ToR links on every spine-link
// event and every corrupting window at every sample read 0.88M–1.06M and
// 1.64M–1.89M, run alternately with these. The repository benchmark's
// fleet_year workload is the gated number; this is the quick local
// yardstick.
func BenchmarkFleetPareto(b *testing.B) {
	cfg := Config{
		Links:   100_000,
		Horizon: 365 * 24 * time.Hour,
		Seed:    1,
	}
	sols, err := ParseSolutions("all")
	if err != nil {
		b.Fatal(err)
	}
	linkYears := float64(cfg.NumLinks() * len(sols))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := RunMatrix(cfg, sols)
		if len(m.Results) != len(sols) {
			b.Fatal("matrix incomplete")
		}
	}
	b.ReportMetric(linkYears*float64(b.N)/b.Elapsed().Seconds(), "linkyears/sec")
}
