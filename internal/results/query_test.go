package results

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden.\n got:\n%s\nwant:\n%s\n(re-run with -update if intended)", name, got, want)
	}
}

// benchFixtures are the historical benchmark artifacts of earlier PRs — the
// backfill corpus. The set is pinned so BENCH_10.json, also in testdata,
// doesn't move the goldens.
var benchFixtures = []string{
	"testdata/BENCH_4.json",
	"testdata/BENCH_6.json",
	"testdata/BENCH_8.json",
	"testdata/BENCH_9.json",
}

func seedBenchHistory(t *testing.T, b Backend, order []int) {
	t.Helper()
	paths := make([]string, len(order))
	for i, j := range order {
		paths[i] = benchFixtures[j]
	}
	runs, err := ImportBenchFiles(paths)
	if err != nil {
		t.Fatal(err)
	}
	added, err := NewStore(b).AddAll(runs)
	if err != nil {
		t.Fatal(err)
	}
	if added != len(benchFixtures) {
		t.Fatalf("imported %d/%d, want %d fresh", added, len(runs), len(benchFixtures))
	}
}

// TestQueryGolden locks the full query surface — list, show, diff, trend —
// against goldens, on BOTH backends, at two ingestion orders. The acceptance
// criterion under test: output is byte-identical across runs, backends, and
// ingestion interleavings, because ordering is canonical, never temporal.
func TestQueryGolden(t *testing.T) {
	type setup struct {
		name  string
		b     Backend
		order []int
	}
	setups := []setup{
		{"mem", NewMem(), []int{0, 1, 2, 3}},
		{"mem-reversed", NewMem(), []int{3, 2, 1, 0}},
	}
	for _, order := range [][]int{{0, 1, 2, 3}, {2, 0, 3, 1}} {
		f, err := OpenFile(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		name := "file"
		if order[0] != 0 {
			name = "file-shuffled"
		}
		setups = append(setups, setup{name, f, order})
	}

	var reference map[string][]byte
	for _, su := range setups {
		t.Run(su.name, func(t *testing.T) {
			seedBenchHistory(t, su.b, su.order)
			defer su.b.Close()

			runs, err := su.b.List()
			if err != nil {
				t.Fatal(err)
			}
			if len(runs) != len(benchFixtures) {
				t.Fatalf("store holds %d runs", len(runs))
			}

			out := map[string][]byte{}
			var buf bytes.Buffer
			if err := WriteList(&buf, su.b, ""); err != nil {
				t.Fatal(err)
			}
			out["query_list.golden"] = append([]byte(nil), buf.Bytes()...)

			buf.Reset()
			// Show the oldest run (PR 4 sorts first).
			if err := WriteShow(&buf, runs[0]); err != nil {
				t.Fatal(err)
			}
			out["query_show.golden"] = append([]byte(nil), buf.Bytes()...)

			buf.Reset()
			// Diff the two newest PRs.
			if err := WriteDiff(&buf, runs[len(runs)-2], runs[len(runs)-1]); err != nil {
				t.Fatal(err)
			}
			out["query_diff.golden"] = append([]byte(nil), buf.Bytes()...)

			buf.Reset()
			if err := WriteTrend(&buf, su.b, "", "pkts_per_sec"); err != nil {
				t.Fatal(err)
			}
			out["query_trend.golden"] = append([]byte(nil), buf.Bytes()...)

			if reference == nil {
				reference = out
				for name, data := range out {
					checkGolden(t, name, data)
				}
				return
			}
			for name, data := range out {
				if !bytes.Equal(data, reference[name]) {
					t.Errorf("%s differs between backends/orders:\n%s\nvs reference:\n%s",
						name, data, reference[name])
				}
			}
		})
	}
}

func TestWriteListKindFilter(t *testing.T) {
	b := NewMem()
	mustCommit(t, b, goldenRun(), &Run{Kind: "chaos", Name: "flap", Records: []Record{{Name: "x", Value: 1}}})
	var buf bytes.Buffer
	if err := WriteList(&buf, b, "chaos"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("flap")) || bytes.Contains(buf.Bytes(), []byte("golden")) {
		t.Fatalf("kind filter broken:\n%s", buf.Bytes())
	}
}
