package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestFleetDifferentialGolden pins the §4.8 report of cmd/fleetsim's legacy
// mode byte-for-byte at the paper's scale (256 pods ≈ 100K links, one year,
// constraint 75%, seed 1): the Figure 16 percentiles and the full Figure 15
// series. The golden was captured when Figures 15/16 moved onto the sharded
// fleetsim engine, whose corruption trace is drawn per shard
// (parallel.SeedFor) rather than by one fleet-wide failtrace.Generate — a
// different realisation of the same trace model. Regenerate with -update
// only for a deliberate change to the report or to the trace realisation,
// and say why in the commit.
func TestFleetDifferentialGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale fleet differential skipped in -short mode")
	}
	fc := RunFleet(0.75, FleetOpts{
		Pods:        256,
		Horizon:     365 * 24 * time.Hour,
		SampleEvery: 6 * time.Hour,
		Seed:        1,
	})
	var buf bytes.Buffer
	if err := WriteFleetReport(&buf, fc, 365, true); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "fleetsim_seed_100k.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got, exp := buf.Bytes(), want
		// Report the first divergent line, not a 100KB dump.
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(exp, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("fleet report diverges from seed output at line %d:\n got: %s\nwant: %s",
					i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("fleet report length differs from seed output: got %d lines, want %d", len(gl), len(wl))
	}
}
