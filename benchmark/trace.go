package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span is one timed interval of a traced run. Times are nanoseconds since
// the tracer started; Parent is the enclosing span's ID, or -1 at the top.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. It records from the
// harness goroutine only, so the open spans form a stack. A nil tracer
// records nothing: that is the untraced run.
type tracer struct {
	t0    time.Time
	spans []Span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span times fn under name, as a child of the innermost open span.
func (t *tracer) span(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, StartNs: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	fn()
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].EndNs = int64(time.Since(t.t0))
}

// selfTimes returns, per span, its duration minus the part of it that its
// child spans cover. Children may nest further or overlap each other; the
// cover is the union of their intervals clipped to the parent.
func selfTimes(spans []Span) []int64 {
	children := map[int][]Span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNs < kids[b].StartNs })
		var cover int64
		edge := s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, edge), min(k.EndNs, s.EndNs)
			if hi > lo {
				cover += hi - lo
				edge = hi
			}
		}
		self[i] = s.EndNs - s.StartNs - cover
	}
	return self
}

// traceFile is the layout of out/trace.<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []Span `json:"spans"`
}

// write fills in self times and stores the trace under dir.
func (t *tracer) write(dir, workload string, seed int64) error {
	for i, ns := range selfTimes(t.spans) {
		t.spans[i].SelfNs = ns
	}
	raw, err := json.MarshalIndent(traceFile{Workload: workload, Seed: seed, Spans: t.spans}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace."+workload+".json"), raw, 0o644)
}
