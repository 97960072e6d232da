package results

import "sync"

// Mem is the in-memory Backend: the reference implementation for the tests
// and the query goldens. Runs and blobs live in maps guarded by one mutex.
type Mem struct {
	mu    sync.Mutex
	runs  map[string]*Run
	blobs map[string][]byte
}

// NewMem returns an empty in-memory backend.
func NewMem() *Mem {
	return &Mem{runs: map[string]*Run{}, blobs: map[string][]byte{}}
}

// Commit stores the batch. Runs are retained by pointer: a committed run
// must not be mutated afterwards (Store.Add documents the ownership
// transfer).
func (m *Mem) Commit(runs []*Run) ([]bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	added := make([]bool, len(runs))
	for i, r := range runs {
		if r.ID == "" {
			r.ID = r.Hash()
		}
		if _, ok := m.runs[r.ID]; ok {
			continue
		}
		m.runs[r.ID] = r
		added[i] = true
	}
	return added, nil
}

// Get returns the run with the exact ID.
func (m *Mem) Get(id string) (*Run, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.runs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return r, nil
}

// List returns every run in canonical (kind, PR, name, ID) order.
func (m *Mem) List() ([]*Run, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Run, 0, len(m.runs))
	for _, r := range m.runs {
		out = append(out, r)
	}
	sortRuns(out)
	return out, nil
}

// PutBlob stores the bytes under their content address.
func (m *Mem) PutBlob(data []byte) (string, error) {
	addr := BlobAddr(data)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.blobs[addr]; !ok {
		m.blobs[addr] = append([]byte(nil), data...)
	}
	return addr, nil
}

// GetBlob returns the bytes at the content address.
func (m *Mem) GetBlob(addr string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.blobs[addr]
	if !ok {
		return nil, ErrNotFound
	}
	return b, nil
}

// Close is a no-op for the in-memory backend.
func (m *Mem) Close() error { return nil }
