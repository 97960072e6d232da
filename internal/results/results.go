// Package results is the experiment-results service of the reproduction:
// one longitudinal store that every producer — cmd/paper, cmd/chaos,
// cmd/fleetsim, cmd/lglive — streams its evidence into, and one query
// surface (cmd/results) that answers "did PR N regress PR M?" across the
// whole history, the BENCH_*.json records of PRs 4–10 (testdata/) included.
//
// The moving parts:
//
//   - A Run is the unit of storage: an experiment execution described by its
//     canonical config, its metric Records, and content-addressed artifact
//     Blobs. Runs are content-hashed (hash.go): the ID is a pure function of
//     kind, name, PR, config, records and blob addresses, so identical runs
//     deduplicate and a reproducibility audit is an ID comparison.
//
//   - Backend (backend.go) is the swappable persistence seam. File
//     (file.go) implements it: an append-only segmented log with a
//     rebuild-on-open index and a content-addressed blob store. The tests
//     add an in-memory reference backend (mem_test.go).
//
//   - Store (store.go) is the write handle: Add and AddAll hash and commit
//     through the Backend in the caller's goroutine, Ingest is the
//     open-commit-close path of the one-shot producer CLIs, and Store
//     implements obs.ArtifactSink, so chaos flight-recorder artifacts
//     register as content-addressed blobs instead of bare-directory dumps.
//
// Determinism contract: query rendering (query.go) sorts runs by
// (kind, PR, name, ID) and records by name, so the rendered output is
// byte-identical regardless of ingestion order — in particular at any
// -workers count of the producing experiment.
package results

import (
	"sort"

	"linkguardian/internal/obs"
)

// Record is one named metric of a run.
type Record struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit,omitempty"`
}

// BlobRef points at one content-addressed artifact blob of a run.
type BlobRef struct {
	Name string `json:"name"` // file name within the artifact (e.g. trace.jsonl)
	Addr string `json:"addr"` // content address returned by Backend.PutBlob
	Size int64  `json:"size"`
}

// Run is one experiment execution. ID is the content hash of everything
// else except Source (provenance, not content) — see Hash.
type Run struct {
	ID      string            `json:"id"`
	Kind    string            `json:"kind"`             // bench | paper | chaos | fleetsim | lglive | artifact
	Name    string            `json:"name"`             // run key within the kind (e.g. BENCH_9, fig8/100G-1e-03-Ord)
	PR      int               `json:"pr,omitempty"`     // PR number for longitudinal trends; 0 = not tied to a PR
	Source  string            `json:"source,omitempty"` // provenance (file or command); excluded from the hash
	Config  map[string]string `json:"config,omitempty"`
	Records []Record          `json:"records,omitempty"`
	Blobs   []BlobRef         `json:"blobs,omitempty"`
}

// Normalize sorts the run's records and blobs into canonical order
// (records by name/unit/value, blobs by name). Hash and the query
// renderers call it; producers may submit in any order.
func (r *Run) Normalize() {
	sort.Slice(r.Records, func(i, j int) bool {
		a, b := r.Records[i], r.Records[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Unit != b.Unit {
			return a.Unit < b.Unit
		}
		return a.Value < b.Value
	})
	sort.Slice(r.Blobs, func(i, j int) bool { return r.Blobs[i].Name < r.Blobs[j].Name })
}

// Record returns the named record and whether it exists.
func (r *Run) Record(name string) (Record, bool) {
	for _, rec := range r.Records {
		if rec.Name == name {
			return rec, true
		}
	}
	return Record{}, false
}

// FromSnapshot converts an obs metrics snapshot into a Run: counters map to
// "count" records, gauges to value + .hwm records, histograms to .n and
// .sum records. Snapshots are already sorted by metric name, so the record
// set is deterministic.
func FromSnapshot(kind, name string, config map[string]string, s obs.Snapshot) *Run {
	r := &Run{Kind: kind, Name: name, Config: config}
	for _, c := range s.Counters {
		r.Records = append(r.Records, Record{Name: c.Name, Value: float64(c.Value), Unit: "count"})
	}
	for _, g := range s.Gauges {
		r.Records = append(r.Records,
			Record{Name: g.Name, Value: g.Value, Unit: "gauge"},
			Record{Name: g.Name + ".hwm", Value: g.HWM, Unit: "gauge"})
	}
	for _, h := range s.Histograms {
		r.Records = append(r.Records,
			Record{Name: h.Name + ".n", Value: float64(h.N), Unit: "count"},
			Record{Name: h.Name + ".sum", Value: h.Sum})
	}
	return r
}
