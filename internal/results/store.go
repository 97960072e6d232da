package results

import (
	"fmt"
	"sort"

	"linkguardian/internal/obs"
)

// Store is the handle producers hold: every write commits through the
// Backend in the caller's goroutine, so a returned call has either stored
// its runs or reported why not, and there is nothing to drain on exit.
type Store struct {
	Backend Backend
}

// Ack is the outcome of one Add.
type Ack struct {
	ID    string // content hash assigned to the run
	Added bool   // false when the run deduplicated against an existing ID
	Err   error  // non-nil when the commit failed; the run is not stored
}

// Open opens (creating if necessary) a file-backed store at dir.
func Open(dir string) (*Store, error) {
	b, err := OpenFile(dir)
	if err != nil {
		return nil, err
	}
	return NewStore(b), nil
}

// NewStore wraps an existing backend.
func NewStore(b Backend) *Store { return &Store{Backend: b} }

// Add assigns the run its content hash and commits it. Ownership of the
// run transfers to the store: it must not be mutated afterwards.
func (s *Store) Add(run *Run) Ack {
	if run.ID == "" {
		run.ID = run.Hash()
	}
	added, err := s.Backend.Commit([]*Run{run})
	return Ack{ID: run.ID, Added: err == nil && added[0], Err: err}
}

// AddAll commits every run as one batch. It returns the number added
// (non-duplicate) and the commit error, if any; on error nothing is stored.
func (s *Store) AddAll(runs []*Run) (added int, err error) {
	flags, err := s.Backend.Commit(runs)
	if err != nil {
		return 0, err
	}
	for _, a := range flags {
		if a {
			added++
		}
	}
	return added, nil
}

// Close closes the backend.
func (s *Store) Close() error { return s.Backend.Close() }

// PutArtifact implements obs.ArtifactSink: every file becomes a
// content-addressed blob and the set registers as one run of kind
// "artifact" named by the flight recorder's scenario-index-seed key, with
// the recorder's metadata as the run config. The returned locator
// ("results:<id>") replaces the bare directory path in failure reports;
// cmd/results show resolves it back to the blobs.
func (s *Store) PutArtifact(key string, meta map[string]string, files []obs.Artifact) (string, error) {
	run := &Run{Kind: "artifact", Name: key, Source: "flight-recorder"}
	if len(meta) > 0 {
		run.Config = make(map[string]string, len(meta))
		for k, v := range meta {
			run.Config[k] = v
		}
	}
	sorted := append([]obs.Artifact(nil), files...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for _, f := range sorted {
		addr, err := s.Backend.PutBlob(f.Data)
		if err != nil {
			return "", err
		}
		run.Blobs = append(run.Blobs, BlobRef{Name: f.Name, Addr: addr, Size: int64(len(f.Data))})
	}
	ack := s.Add(run)
	if ack.Err != nil {
		return "", ack.Err
	}
	return "results:" + ack.ID, nil
}

var _ obs.ArtifactSink = (*Store)(nil)

// Ingest is the one-shot producer path: it opens the file store at dir,
// commits the runs as one batch, closes the store, and returns the line a
// producer CLI prints.
func Ingest(dir string, runs ...*Run) (summary string, err error) {
	s, err := Open(dir)
	if err != nil {
		return "", err
	}
	added, err := s.AddAll(runs)
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("results: %d run(s) ingested into %s (%d new, %d deduplicated)",
		len(runs), dir, added, len(runs)-added), nil
}
