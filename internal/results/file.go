package results

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// File is the durable Backend: an append-only segmented log of JSON run
// entries plus a content-addressed blob store.
//
// Layout under the store directory:
//
//	segments/seg-00000001.jsonl   one JSON-encoded Run per line, append-only
//	segments/seg-00000002.jsonl   (the active segment rotates at segmentBytes)
//	blobs/ab/<addr>               artifact blobs, keyed by BlobAddr(content)
//
// There is no separate index file to corrupt or drift: OpenFile rebuilds the
// id -> (segment, offset, length) index by scanning the segments, tolerating
// a truncated final line (a crash mid-append loses at most the torn entry —
// every earlier entry is still a complete line). Commits buffer one batch
// into a single write, so the log grows by whole batches.
type File struct {
	mu    sync.Mutex
	dir   string
	index map[string]fileRef
	order []string // ids in append order, for diagnostics and scans

	seg     *os.File // active segment
	segN    int
	segOff  int64
	maxSeg  int64
	Skipped int // torn trailing entries ignored during open
}

type fileRef struct {
	seg      int
	off, len int64
}

// segmentBytes rotates the active segment once it exceeds this size.
// Rotation happens between batches, so one batch may overshoot the limit.
const segmentBytes = 4 << 20

// OpenFile opens (creating if necessary) a file store rooted at dir and
// rebuilds the index from the segments on disk.
func OpenFile(dir string) (*File, error) { return openFile(dir, segmentBytes) }

func openFile(dir string, maxSeg int64) (*File, error) {
	f := &File{
		dir:    dir,
		index:  map[string]fileRef{},
		maxSeg: maxSeg,
	}
	if err := os.MkdirAll(f.segDir(), 0o755); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(dir, "blobs"), 0o755); err != nil {
		return nil, err
	}
	if err := f.rebuild(); err != nil {
		return nil, err
	}
	return f, nil
}

func (f *File) segDir() string { return filepath.Join(f.dir, "segments") }

func (f *File) segPath(n int) string {
	return filepath.Join(f.segDir(), fmt.Sprintf("seg-%08d.jsonl", n))
}

// rebuild scans every segment in name order and reconstructs the index.
func (f *File) rebuild() error {
	names, err := filepath.Glob(filepath.Join(f.segDir(), "seg-*.jsonl"))
	if err != nil {
		return err
	}
	sort.Strings(names)
	f.segN = 1
	for _, name := range names {
		var n int
		if _, err := fmt.Sscanf(filepath.Base(name), "seg-%08d.jsonl", &n); err != nil {
			continue
		}
		data, err := os.ReadFile(name)
		if err != nil {
			return err
		}
		var off int64
		for len(data) > 0 {
			nl := bytes.IndexByte(data, '\n')
			if nl < 0 {
				// Torn trailing entry from an interrupted append: every
				// complete line before it is intact. Truncate the torn bytes
				// away — appends go to the physical end of the file, so
				// leaving them would corrupt the next entry and skew every
				// indexed offset after it.
				f.Skipped++
				if err := os.Truncate(name, off); err != nil {
					return err
				}
				break
			}
			line := data[:nl]
			var hdr struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(line, &hdr); err != nil || hdr.ID == "" {
				f.Skipped++
			} else if _, ok := f.index[hdr.ID]; !ok {
				f.index[hdr.ID] = fileRef{seg: n, off: off, len: int64(nl)}
				f.order = append(f.order, hdr.ID)
			}
			off += int64(nl) + 1
			data = data[nl+1:]
		}
		f.segN = n
		f.segOff = off
	}
	if f.segOff >= f.maxSeg {
		f.segN++
		f.segOff = 0
	}
	seg, err := os.OpenFile(f.segPath(f.segN), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	f.seg = seg
	return nil
}

// Commit appends the batch as one write to the active segment, rotating it
// afterwards if it outgrew its size limit. Runs already present (by content
// hash) are skipped.
func (f *File) Commit(runs []*Run) ([]bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.seg == nil {
		return nil, fmt.Errorf("results: file store is closed")
	}
	added := make([]bool, len(runs))
	var buf bytes.Buffer
	type pending struct {
		id       string
		off, len int64
	}
	var news []pending
	for i, r := range runs {
		if r.ID == "" {
			r.ID = r.Hash()
		}
		if _, ok := f.index[r.ID]; ok {
			continue
		}
		dup := false
		for _, p := range news {
			if p.id == r.ID {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		off := int64(buf.Len())
		enc, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		buf.Write(enc)
		buf.WriteByte('\n')
		news = append(news, pending{id: r.ID, off: off, len: int64(len(enc))})
		added[i] = true
	}
	if buf.Len() == 0 {
		return added, nil
	}
	if _, err := f.seg.Write(buf.Bytes()); err != nil {
		return nil, err
	}
	for _, p := range news {
		f.index[p.id] = fileRef{seg: f.segN, off: f.segOff + p.off, len: p.len}
		f.order = append(f.order, p.id)
	}
	f.segOff += int64(buf.Len())
	if f.segOff >= f.maxSeg {
		if err := f.seg.Close(); err != nil {
			return nil, err
		}
		f.segN++
		f.segOff = 0
		seg, err := os.OpenFile(f.segPath(f.segN), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		f.seg = seg
	}
	return added, nil
}

func (f *File) readRef(ref fileRef) (*Run, error) {
	file, err := os.Open(f.segPath(ref.seg))
	if err != nil {
		return nil, err
	}
	defer file.Close()
	line := make([]byte, ref.len)
	if _, err := file.ReadAt(line, ref.off); err != nil {
		return nil, err
	}
	r := &Run{}
	if err := json.Unmarshal(line, r); err != nil {
		return nil, err
	}
	return r, nil
}

// Get reads the run with the exact ID back from its segment.
func (f *File) Get(id string) (*Run, error) {
	f.mu.Lock()
	ref, ok := f.index[id]
	f.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	return f.readRef(ref)
}

// List reads every run, returned in canonical (kind, PR, name, ID) order.
func (f *File) List() ([]*Run, error) {
	f.mu.Lock()
	refs := make([]fileRef, 0, len(f.order))
	for _, id := range f.order {
		refs = append(refs, f.index[id])
	}
	f.mu.Unlock()
	out := make([]*Run, 0, len(refs))
	for _, ref := range refs {
		r, err := f.readRef(ref)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	sortRuns(out)
	return out, nil
}

// Len returns the number of stored runs.
func (f *File) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.index)
}

// PutBlob stores the bytes content-addressed under blobs/, writing through
// a temp file + rename so a crash never leaves a torn blob at its final
// address.
func (f *File) PutBlob(data []byte) (string, error) {
	addr := BlobAddr(data)
	dir := filepath.Join(f.dir, "blobs", addr[:2])
	path := filepath.Join(dir, addr)
	if _, err := os.Stat(path); err == nil {
		return addr, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tmp, err := os.CreateTemp(dir, "put-*")
	if err != nil {
		return "", err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	return addr, nil
}

// GetBlob reads the bytes at the content address.
func (f *File) GetBlob(addr string) ([]byte, error) {
	if len(addr) < 2 {
		return nil, ErrNotFound
	}
	data, err := os.ReadFile(filepath.Join(f.dir, "blobs", addr[:2], addr))
	if os.IsNotExist(err) {
		return nil, ErrNotFound
	}
	return data, err
}

// Close closes the active segment; further commits fail.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.seg == nil {
		return nil
	}
	err := f.seg.Close()
	f.seg = nil
	return err
}
