package results

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"linkguardian/internal/obs"
)

// faultBackend wraps a Backend and injects commit stalls and failures:
// every failEvery-th commit returns errInjected (without storing the
// batch), and every commit sleeps for stall outside any lock, so
// concurrent commits overlap.
type faultBackend struct {
	Backend
	stall     time.Duration
	failEvery int // 0 = never fail

	commits atomic.Uint64
}

var errInjected = errors.New("injected commit failure")

func (f *faultBackend) Commit(runs []*Run) ([]bool, error) {
	n := f.commits.Add(1)
	if f.stall > 0 {
		time.Sleep(f.stall)
	}
	if f.failEvery > 0 && n%uint64(f.failEvery) == 0 {
		return nil, errInjected
	}
	return f.Backend.Commit(runs)
}

func testRun(producer, i int) *Run {
	return &Run{
		Kind:   "bench",
		Name:   fmt.Sprintf("soak-%d-%d", producer, i),
		Config: map[string]string{"producer": fmt.Sprint(producer)},
		Records: []Record{
			{Name: "value", Value: float64(i)},
			{Name: "producer", Value: float64(producer)},
		},
	}
}

// TestStoreSoak is the concurrency soak: many producers Add runs at once
// into a stalling, intermittently failing backend. The guarantees under
// test: every Add reports exactly one of added, deduplicated or errored,
// the outcomes partition the total, and the backend holds exactly the runs
// reported added. Run under -race.
func TestStoreSoak(t *testing.T) {
	const (
		producers = 32
		perProd   = 150
	)
	fb := &faultBackend{Backend: NewMem(), stall: 100 * time.Microsecond, failEvery: 7}
	s := NewStore(fb)

	var deduped, errored atomic.Uint64
	var mu sync.Mutex
	addedIDs := map[string]bool{}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				ack := s.Add(testRun(p, i%100)) // i%100 forces intra-producer duplicates
				if ack.ID == "" {
					t.Error("ack without ID")
				}
				switch {
				case ack.Err != nil:
					if !errors.Is(ack.Err, errInjected) || ack.Added {
						t.Errorf("unexpected errored ack: %+v", ack)
					}
					errored.Add(1)
				case ack.Added:
					mu.Lock()
					if addedIDs[ack.ID] {
						t.Errorf("run %s added twice", ack.ID)
					}
					addedIDs[ack.ID] = true
					mu.Unlock()
				default:
					deduped.Add(1)
				}
			}
		}(p)
	}
	wg.Wait()

	const total = producers * perProd
	if got := uint64(len(addedIDs)) + deduped.Load() + errored.Load(); got != total {
		t.Fatalf("outcomes don't partition: %d added + %d deduped + %d errored != %d",
			len(addedIDs), deduped.Load(), errored.Load(), total)
	}
	if errored.Load() == 0 {
		t.Fatal("fault injection never fired — the test lost its teeth")
	}
	if deduped.Load() == 0 {
		t.Fatal("no duplicate deduplicated")
	}
	stored, err := fb.Backend.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) != len(addedIDs) {
		t.Fatalf("backend holds %d runs, acks said %d added", len(stored), len(addedIDs))
	}
	for _, r := range stored {
		if !addedIDs[r.ID] {
			t.Fatalf("backend holds %s, never acked added", r.ID)
		}
	}
}

// A failing commit stores nothing of the batch and AddAll returns its
// error.
func TestStoreAddAllCommitError(t *testing.T) {
	mem := NewMem()
	s := NewStore(&faultBackend{Backend: mem, failEvery: 1}) // every commit fails
	runs := make([]*Run, 20)
	for i := range runs {
		runs[i] = testRun(2, i)
	}
	added, err := s.AddAll(runs)
	if !errors.Is(err, errInjected) || added != 0 {
		t.Fatalf("AddAll = %d, %v; want 0, injected error", added, err)
	}
	if stored, _ := mem.List(); len(stored) != 0 {
		t.Fatalf("%d runs stored through failing commits", len(stored))
	}
}

func TestStoreAddAfterClose(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if ack := s.Add(testRun(4, 1)); ack.Err == nil || ack.Added {
		t.Fatalf("Add after Close = %+v, want an error", ack)
	}
}

func TestStorePutArtifact(t *testing.T) {
	for _, backend := range []struct {
		name string
		open func(t *testing.T) Backend
	}{
		{"mem", func(t *testing.T) Backend { return NewMem() }},
		{"file", func(t *testing.T) Backend {
			f, err := OpenFile(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return f
		}},
	} {
		t.Run(backend.name, func(t *testing.T) {
			b := backend.open(t)
			s := NewStore(b)
			files := []obs.Artifact{
				{Name: "violations.txt", Data: []byte("rule=no-loss\n")},
				{Name: "trace.jsonl", Data: []byte(`{"ev":"tx"}` + "\n")},
			}
			meta := map[string]string{"scenario": "flap", "seed": "42"}
			loc, err := s.PutArtifact("flap-0007-seed42", meta, files)
			if err != nil {
				t.Fatal(err)
			}
			const prefix = "results:"
			if len(loc) <= len(prefix) || loc[:len(prefix)] != prefix {
				t.Fatalf("locator %q missing results: prefix", loc)
			}
			id := loc[len(prefix):]

			// Re-registering identical artifacts yields the same locator (pure
			// content addressing) and no second run.
			loc2, err := s.PutArtifact("flap-0007-seed42", meta, files)
			if err != nil || loc2 != loc {
				t.Fatalf("re-put: %q, %v", loc2, err)
			}
			defer s.Close()

			run, err := b.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if run.Kind != "artifact" || run.Name != "flap-0007-seed42" {
				t.Fatalf("run = %+v", run)
			}
			if run.Config["scenario"] != "flap" || run.Config["seed"] != "42" {
				t.Fatalf("meta lost: %v", run.Config)
			}
			if len(run.Blobs) != len(files) {
				t.Fatalf("%d blobs, want %d", len(run.Blobs), len(files))
			}
			// Blobs are sorted by name regardless of the order handed in.
			if run.Blobs[0].Name != "trace.jsonl" || run.Blobs[1].Name != "violations.txt" {
				t.Fatalf("blob order: %+v", run.Blobs)
			}
			for _, ref := range run.Blobs {
				data, err := b.GetBlob(ref.Addr)
				if err != nil {
					t.Fatalf("blob %s: %v", ref.Name, err)
				}
				if int64(len(data)) != ref.Size {
					t.Fatalf("blob %s: %d bytes, ref says %d", ref.Name, len(data), ref.Size)
				}
				var want []byte
				for _, f := range files {
					if f.Name == ref.Name {
						want = f.Data
					}
				}
				if !bytes.Equal(data, want) {
					t.Fatalf("blob %s content mismatch", ref.Name)
				}
			}
			if runs, _ := b.List(); len(runs) != 1 {
				t.Fatalf("store holds %d runs after idempotent re-put", len(runs))
			}
		})
	}
}

func TestStoreAddAll(t *testing.T) {
	s := NewStore(NewMem())
	runs := []*Run{testRun(0, 1), testRun(0, 2), testRun(0, 1)}
	added, err := s.AddAll(runs)
	if err != nil {
		t.Fatal(err)
	}
	if added != 2 {
		t.Fatalf("added %d, want 2 (one duplicate)", added)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ack := s.Add(goldenRun())
	if ack.Err != nil || !ack.Added {
		t.Fatalf("ack = %+v", ack)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Get(ack.ID); err != nil {
		t.Fatal(err)
	}
}

func TestFromSnapshot(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("tx").Add(7)
	reg.Gauge("depth").Set(3)
	run := FromSnapshot("chaos", "flap", map[string]string{"seed": "1"}, reg.Snapshot())
	if rec, ok := run.Record("tx"); !ok || rec.Value != 7 || rec.Unit != "count" {
		t.Fatalf("counter record: %+v ok=%v", rec, ok)
	}
	if rec, ok := run.Record("depth"); !ok || rec.Value != 3 || rec.Unit != "gauge" {
		t.Fatalf("gauge record: %+v ok=%v", rec, ok)
	}
	if _, ok := run.Record("depth.hwm"); !ok {
		t.Fatal("gauge HWM record missing")
	}
}
