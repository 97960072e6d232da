package results

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func mustCommit(t *testing.T, b Backend, runs ...*Run) []bool {
	t.Helper()
	added, err := b.Commit(runs)
	if err != nil {
		t.Fatal(err)
	}
	return added
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := goldenRun()
	added := mustCommit(t, f, r)
	if !added[0] {
		t.Fatal("first commit not added")
	}
	got, err := f.Get(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != r.ID || got.Name != r.Name || len(got.Records) != len(r.Records) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	// Re-commit deduplicates via the index.
	if added := mustCommit(t, f, goldenRun()); added[0] {
		t.Fatal("duplicate content re-added")
	}
	// Intra-batch duplicates deduplicate too.
	added = mustCommit(t, f, testRun(9, 1), testRun(9, 1))
	if !added[0] || added[1] {
		t.Fatalf("intra-batch dedup broken: %v", added)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Commit([]*Run{testRun(9, 2)}); err == nil {
		t.Fatal("commit after Close succeeded")
	}
}

func TestFileReopenRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 10; i++ {
		r := testRun(1, i)
		mustCommit(t, f, r)
		ids = append(ids, r.ID)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	g, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.Len() != len(ids) {
		t.Fatalf("reopened store holds %d runs, want %d", g.Len(), len(ids))
	}
	for _, id := range ids {
		if _, err := g.Get(id); err != nil {
			t.Fatalf("Get(%s) after reopen: %v", id, err)
		}
	}
	// The rebuilt index must keep deduplicating.
	if added := mustCommit(t, g, testRun(1, 3)); added[0] {
		t.Fatal("reopened store re-added existing content")
	}
}

func TestFileSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	f, err := openFile(dir, 512)
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		mustCommit(t, f, testRun(2, i))
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "segments", "seg-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}
	// Everything must survive reopen across the segment boundaries.
	g, err := openFile(dir, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.Len() != n {
		t.Fatalf("reopened rotated store holds %d runs, want %d", g.Len(), n)
	}
	runs, err := g.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != n {
		t.Fatalf("List returned %d runs, want %d", len(runs), n)
	}
}

func TestFileTornTrailingLine(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	good := testRun(3, 0)
	mustCommit(t, f, good)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a second entry without its newline.
	segs, _ := filepath.Glob(filepath.Join(dir, "segments", "seg-*.jsonl"))
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, got %d", len(segs))
	}
	h, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteString(`{"id":"deadbeefdeadbeefdeadbeefdeadbeef","kind":"bench","na`); err != nil {
		t.Fatal(err)
	}
	h.Close()

	g, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.Skipped != 1 {
		t.Fatalf("Skipped = %d, want 1 torn entry", g.Skipped)
	}
	if g.Len() != 1 {
		t.Fatalf("store holds %d runs after torn-line recovery, want 1", g.Len())
	}
	if _, err := g.Get(good.ID); err != nil {
		t.Fatalf("intact entry lost after torn-line recovery: %v", err)
	}
	// The store must still accept appends after recovery.
	next := testRun(3, 1)
	mustCommit(t, g, next)
	if _, err := g.Get(next.ID); err != nil {
		t.Fatal(err)
	}
}

func TestFileBlobs(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data := []byte("trace-ring tail\n")
	addr, err := f.PutBlob(data)
	if err != nil {
		t.Fatal(err)
	}
	if addr != BlobAddr(data) {
		t.Fatalf("PutBlob returned %s, want content address %s", addr, BlobAddr(data))
	}
	// Idempotent re-put.
	if addr2, err := f.PutBlob(data); err != nil || addr2 != addr {
		t.Fatalf("re-put: %s, %v", addr2, err)
	}
	got, err := f.GetBlob(addr)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("GetBlob = %q, %v", got, err)
	}
	if _, err := f.GetBlob("ffffffffffffffffffffffffffffffff"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing blob: err = %v, want ErrNotFound", err)
	}
	if _, err := f.GetBlob("f"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("short addr: err = %v, want ErrNotFound", err)
	}
}

func TestBackendContract(t *testing.T) {
	backends := map[string]func(t *testing.T) Backend{
		"mem": func(t *testing.T) Backend { return NewMem() },
		"file": func(t *testing.T) Backend {
			f, err := OpenFile(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return f
		},
	}
	for name, open := range backends {
		t.Run(name, func(t *testing.T) {
			b := open(t)
			defer b.Close()
			if _, err := b.Get("nope"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get(missing) = %v, want ErrNotFound", err)
			}
			r1, r2 := testRun(0, 1), testRun(0, 2)
			added := mustCommit(t, b, r1, r2, testRun(0, 1))
			if !added[0] || !added[1] || added[2] {
				t.Fatalf("added = %v", added)
			}
			runs, err := b.List()
			if err != nil || len(runs) != 2 {
				t.Fatalf("List = %d runs, %v", len(runs), err)
			}
			// ResolveID: exact, prefix, missing, ambiguous.
			if r, err := ResolveID(b, r1.ID); err != nil || r.ID != r1.ID {
				t.Fatalf("exact resolve: %v", err)
			}
			if r, err := ResolveID(b, r2.ID[:8]); err != nil || r.ID != r2.ID {
				t.Fatalf("prefix resolve: %v", err)
			}
			if _, err := ResolveID(b, "zzzz"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("missing resolve: %v", err)
			}
			if _, err := ResolveID(b, ""); err == nil {
				t.Fatal("empty prefix resolved despite 2 runs")
			}
		})
	}
}
