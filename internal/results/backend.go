package results

import (
	"errors"
	"sort"
)

// ErrNotFound is returned by Get/GetBlob for an unknown ID or address.
var ErrNotFound = errors.New("results: not found")

// Backend is the swappable persistence seam. Implementations must be safe
// for concurrent use: soak sweeps register flight-recorder artifacts from
// every worker while queries read.
//
// Commit is all-or-nothing per batch: on error no run from the batch is
// observable afterwards. added[i] reports whether runs[i] was new; a run
// whose ID already exists (including earlier in the same batch) is a
// dedup no-op.
type Backend interface {
	Commit(runs []*Run) (added []bool, err error)
	Get(id string) (*Run, error)
	List() ([]*Run, error)
	PutBlob(data []byte) (addr string, err error)
	GetBlob(addr string) ([]byte, error)
	Close() error
}

// sortRuns orders runs by (kind, PR, name, ID) — the canonical query order
// that makes rendered output independent of ingestion order.
func sortRuns(runs []*Run) {
	sort.Slice(runs, func(i, j int) bool {
		a, b := runs[i], runs[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.PR != b.PR {
			return a.PR < b.PR
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.ID < b.ID
	})
}

// ResolveID finds the unique run whose ID has the given prefix. It returns
// ErrNotFound when no run matches and an error naming the candidates when
// the prefix is ambiguous.
func ResolveID(b Backend, prefix string) (*Run, error) {
	if r, err := b.Get(prefix); err == nil {
		return r, nil
	}
	runs, err := b.List()
	if err != nil {
		return nil, err
	}
	var match *Run
	for _, r := range runs {
		if len(prefix) <= len(r.ID) && r.ID[:len(prefix)] == prefix {
			if match != nil {
				return nil, errors.New("results: ambiguous ID prefix " + prefix)
			}
			match = r
		}
	}
	if match == nil {
		return nil, ErrNotFound
	}
	return match, nil
}
