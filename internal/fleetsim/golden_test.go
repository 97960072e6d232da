package fleetsim

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestMatrixGolden pins the full four-solution matrix byte for byte: the
// Pareto table plus a SHA-256 of the complete MatrixResult (every merged
// sample and every ShardStats) for 20K links over one year, at three
// constraint/deployment settings and two seeds. It is the only byte pin on
// the wharf and p4protect columns; the §4.8 report golden in
// internal/experiments covers corropt and lg alone. Regenerate with
// -update only for a deliberate change to the engine's output, and say why
// in the commit.
func TestMatrixGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("20K-link matrix golden skipped in -short mode")
	}
	sols := allSolutions(t)
	variants := []struct {
		constraint, deploy float64
	}{{0.75, 0}, {0.5, 0.5}, {0.9, 0}}
	var buf bytes.Buffer
	for _, seed := range []int64{1, 2} {
		for _, v := range variants {
			m := RunMatrix(Config{
				Links:          20_000,
				Horizon:        365 * 24 * time.Hour,
				Seed:           seed,
				Constraint:     v.constraint,
				DeployFraction: v.deploy,
			}, sols)
			fmt.Fprintf(&buf, "# constraint %g, deploy fraction %g\n", v.constraint, v.deploy)
			if err := m.WriteParetoTable(&buf); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, "sha256 %x\n\n", sha256.Sum256([]byte(fmt.Sprintf("%+v", m))))
		}
	}

	golden := filepath.Join("testdata", "matrix_20k.golden")
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
		t.Fatalf("matrix output differs from %s:\n got:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}
}
