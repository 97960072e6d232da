package main

import (
	"testing"

	"linkguardian/internal/fleetsim"
	"linkguardian/internal/obs"
)

func TestRegisterFleet(t *testing.T) {
	r := obs.NewRegistry()
	registerFleet(r, "fleet", []fleetsim.SolutionResult{
		{Solution: "corropt", Shards: []fleetsim.ShardStats{
			{Links: 12288, Onsets: 11, Repairs: 7, Activations: 0, Disables: 9, MaxRepairBacklog: 4, MaxCorrupting: 5},
			{Links: 12288, Onsets: 13, Repairs: 8, Activations: 0, Disables: 10, MaxRepairBacklog: 3, MaxCorrupting: 6},
		}},
		{Solution: "lg", Shards: []fleetsim.ShardStats{
			{Links: 12288, Onsets: 11, Repairs: 6, Activations: 11, Disables: 8, MaxRepairBacklog: 2, MaxCorrupting: 5},
		}},
	})
	s := r.Snapshot()

	counters := map[string]uint64{
		"fleet.corropt.shard0.onsets":      11,
		"fleet.corropt.shard1.repairs":     8,
		"fleet.corropt.shard1.disables":    10,
		"fleet.corropt.shard0.activations": 0,
		"fleet.lg.shard0.activations":      11,
	}
	for name, want := range counters {
		if got := s.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	gauges := map[string]float64{
		"fleet.corropt.shard0.links":              12288,
		"fleet.corropt.shard1.max_repair_backlog": 3,
		"fleet.lg.shard0.max_corrupting":          5,
	}
	for name, want := range gauges {
		found := false
		for _, g := range s.Gauges {
			if g.Name == name {
				found = true
				if g.Value != want {
					t.Errorf("%s = %g, want %g", name, g.Value, want)
				}
			}
		}
		if !found {
			t.Errorf("gauge %s not registered", name)
		}
	}
	// Each shard registers 4 counters and 3 gauges; 3 shards total.
	if got := len(s.Counters); got != 12 {
		t.Errorf("counter count %d, want 12", got)
	}
	if got := len(s.Gauges); got != 9 {
		t.Errorf("gauge count %d, want 9", got)
	}
}
