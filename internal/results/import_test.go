package results

import (
	"strings"
	"testing"
)

func TestImportBench(t *testing.T) {
	doc := []byte(`{
		"pr": "PR-9",
		"cpus": 4,
		"strict": true,
		"pipeline": {"pkts_per_sec": 1.5e6, "allocs_per_pkt": 0, "label": "ignored"},
		"eff_loss": 3.2e-9
	}`)
	run, err := ImportBench(doc, 9)
	if err != nil {
		t.Fatal(err)
	}
	if run.Kind != "bench" || run.Name != "BENCH_9" || run.PR != 9 {
		t.Fatalf("run header: %+v", run)
	}
	if run.Config["pr"] != "PR-9" || run.Config["strict"] != "true" {
		t.Fatalf("config: %v", run.Config)
	}
	for _, want := range []struct {
		name  string
		value float64
	}{
		{"cpus", 4},
		{"eff_loss", 3.2e-9},
		{"pipeline.pkts_per_sec", 1.5e6},
		{"pipeline.allocs_per_pkt", 0},
	} {
		rec, ok := run.Record(want.name)
		if !ok || rec.Value != want.value {
			t.Errorf("record %s = %+v (ok=%v), want %v", want.name, rec, ok, want.value)
		}
	}
	if _, ok := run.Record("pipeline.label"); ok {
		t.Error("non-numeric leaf imported as record")
	}
	if run.ID == "" {
		t.Error("import did not assign the content hash")
	}
}

func TestImportBenchRejectsMetricless(t *testing.T) {
	if _, err := ImportBench([]byte(`{"pr": "PR-1"}`), 1); err == nil {
		t.Fatal("document without numeric metrics imported")
	}
	if _, err := ImportBench([]byte(`not json`), 1); err == nil {
		t.Fatal("invalid JSON imported")
	}
}

func TestImportBenchFileNaming(t *testing.T) {
	if _, err := ImportBenchFile("testdata/nope.json"); err == nil {
		t.Fatal("non-BENCH name accepted")
	}
	run, err := ImportBenchFile("testdata/BENCH_9.json")
	if err != nil {
		t.Fatal(err)
	}
	if run.PR != 9 || run.Source != "BENCH_9.json" {
		t.Fatalf("PR=%d Source=%q", run.PR, run.Source)
	}
}

// TestImportIdempotent: re-importing the same corpus is a pure dedup — the
// content hash, not the file name or mtime, is the identity.
func TestImportIdempotent(t *testing.T) {
	dir := t.TempDir()
	for _, want := range []string{"(4 new, 0 deduplicated)", "(0 new, 4 deduplicated)"} {
		runs, err := ImportBenchFiles(benchFixtures)
		if err != nil {
			t.Fatal(err)
		}
		summary, err := Ingest(dir, runs...)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasSuffix(summary, want) {
			t.Fatalf("summary %q, want suffix %q", summary, want)
		}
	}
}

func TestImportBenchFilesMissing(t *testing.T) {
	if _, err := ImportBenchFiles([]string{"BENCH_99999.json"}); err == nil {
		t.Fatal("missing file imported")
	}
}
