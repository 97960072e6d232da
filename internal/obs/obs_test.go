package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"linkguardian/internal/simtime"
)

func TestCounterAndCounterFunc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("tx")
	c.Inc()
	c.Add(9)
	var backing uint64 = 42
	r.CounterFunc("rx", func() uint64 { return backing })

	s := r.Snapshot()
	if got := s.Counter("tx"); got != 10 {
		t.Fatalf("tx = %d, want 10", got)
	}
	if got := s.Counter("rx"); got != 42 {
		t.Fatalf("rx = %d, want 42", got)
	}
	backing = 100
	if got := r.Snapshot().Counter("rx"); got != 100 {
		t.Fatalf("function counter not read at snapshot time: %d", got)
	}
	if got := s.Counter("missing"); got != 0 {
		t.Fatalf("missing counter = %d, want 0", got)
	}
}

func TestGaugeHighWaterMark(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth")
	g.Set(5)
	g.Set(17)
	g.Set(3)
	s := r.Snapshot()
	p := s.Gauge("depth")
	if p.Value != 3 || p.HWM != 17 {
		t.Fatalf("gauge = %+v, want value 3 hwm 17", p)
	}
}

func TestGaugeFuncHWMNeedsSample(t *testing.T) {
	r := NewRegistry()
	v := 1.0
	r.GaugeFunc("load", func() float64 { return v })
	r.Sample() // hwm 1
	v = 8
	r.Sample() // hwm 8
	v = 2
	p := r.Snapshot().Gauge("load")
	if p.Value != 2 || p.HWM != 8 {
		t.Fatalf("gauge = %+v, want value 2 hwm 8 (peak seen only at Sample)", p)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", 10, 100)
	for _, v := range []float64{1, 10, 11, 99, 100, 5000} {
		h.Observe(v)
	}
	s := r.Snapshot()
	hp, ok := s.Histogram("lat")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	// Buckets: (-inf,10], (10,100], (100,+inf) per upper-bound convention.
	want := []uint64{2, 3, 1}
	for i, w := range want {
		if hp.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%+v)", i, hp.Counts[i], w, hp)
		}
	}
	if hp.N != 6 || hp.Sum != 1+10+11+99+100+5000 {
		t.Fatalf("n=%d sum=%v", hp.N, hp.Sum)
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Gauge("x")
}

func TestSnapshotSortedAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("zebra").Inc()
	r.Counter("alpha").Add(2)
	r.Gauge("mid").Set(1)
	s := r.Snapshot()
	if s.Counters[0].Name != "alpha" || s.Counters[1].Name != "zebra" {
		t.Fatalf("counters not sorted: %+v", s.Counters)
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if back.Counter("alpha") != 2 || back.Gauge("mid").Value != 1 {
		t.Fatalf("round-tripped snapshot lost data: %+v", back)
	}
	if !strings.HasSuffix(buf.String(), "\n") {
		t.Fatal("WriteJSON output must end with a newline")
	}
}

func TestMergeSemantics(t *testing.T) {
	mk := func(c uint64, g, hwm float64, hv float64) Snapshot {
		r := NewRegistry()
		r.Counter("c").Add(c)
		gg := r.Gauge("g")
		gg.Set(hwm)
		gg.Set(g)
		r.Histogram("h", 10, 100).Observe(hv)
		return r.Snapshot()
	}
	a := mk(3, 1, 9, 5)
	b := mk(4, 2, 7, 50)
	m := a.Merge(b)
	if got := m.Counter("c"); got != 7 {
		t.Fatalf("merged counter = %d, want 7 (sum)", got)
	}
	gp := m.Gauge("g")
	if gp.Value != 2 || gp.HWM != 9 {
		t.Fatalf("merged gauge = %+v, want value max(1,2)=2 hwm max(9,7)=9", gp)
	}
	hp, _ := m.Histogram("h")
	if hp.N != 2 || hp.Counts[0] != 1 || hp.Counts[1] != 1 {
		t.Fatalf("merged histogram = %+v", hp)
	}

	// Disjoint names union.
	r := NewRegistry()
	r.Counter("only").Inc()
	u := a.Merge(r.Snapshot())
	if u.Counter("only") != 1 || u.Counter("c") != 3 {
		t.Fatalf("disjoint merge lost a series: %+v", u.Counters)
	}
}

// Merging shard snapshots in index order must be associative enough to be
// order-stable: a left fold over the same inputs yields identical bytes.
func TestMergeSnapshotsDeterministic(t *testing.T) {
	var snaps []Snapshot
	for i := 0; i < 5; i++ {
		r := NewRegistry()
		r.Counter("n").Add(uint64(i))
		g := r.Gauge("v")
		g.Set(float64(i * 3 % 7))
		r.Histogram("h", 1, 2, 4).Observe(float64(i))
		snaps = append(snaps, r.Snapshot())
	}
	m1 := MergeSnapshots(snaps...)
	m2 := MergeSnapshots(snaps...)
	var b1, b2 bytes.Buffer
	if err := m1.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := m2.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("repeated merge of identical snapshots differs")
	}
	if m1.Counter("n") != 0+1+2+3+4 {
		t.Fatalf("merged counter = %d", m1.Counter("n"))
	}
}

func TestDelaySampleBounded(t *testing.T) {
	var s DelaySample
	const total = 100_000
	for i := 0; i < total; i++ {
		s.Observe(simtime.Duration(i) * simtime.Microsecond)
	}
	if s.N() != total {
		t.Fatalf("N = %d, want %d", s.N(), total)
	}
	if s.Retained() > delayReservoirCap {
		t.Fatalf("reservoir grew to %d, cap is %d", s.Retained(), delayReservoirCap)
	}
	if got := s.Hist().N(); got != total {
		t.Fatalf("histogram n = %d, want %d (every observation counted)", got, total)
	}
}

func TestDelaySampleExactWhileSmall(t *testing.T) {
	var s DelaySample
	in := []simtime.Duration{5 * simtime.Microsecond, 2 * simtime.Millisecond, 7 * simtime.Nanosecond}
	for _, d := range in {
		s.Observe(d)
	}
	got := s.Samples()
	if len(got) != len(in) {
		t.Fatalf("retained %d, want %d", len(got), len(in))
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("sample %d = %v, want %v (insertion order below the cap)", i, got[i], in[i])
		}
	}
}

func TestDelaySampleDeterministic(t *testing.T) {
	run := func() []simtime.Duration {
		var s DelaySample
		for i := 0; i < 3*delayReservoirCap; i++ {
			s.Observe(simtime.Duration(i))
		}
		return s.Samples()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("reservoir diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestAddHistogramAndSum(t *testing.T) {
	h := NewHistogram(1, 10)
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)
	if h.Sum() != 55.5 {
		t.Fatalf("Sum = %v, want 55.5", h.Sum())
	}

	r := NewRegistry()
	r.AddHistogram("ext.hist", h)
	hp, ok := r.Snapshot().Histogram("ext.hist")
	if !ok {
		t.Fatal("externally owned histogram missing from snapshot")
	}
	if hp.N != 3 || hp.Sum != 55.5 {
		t.Fatalf("snapshot histogram = %+v, want n=3 sum=55.5", hp)
	}
	// The registry shares, not copies: later observations show up.
	h.Observe(2)
	if hp, _ = r.Snapshot().Histogram("ext.hist"); hp.N != 4 {
		t.Fatalf("snapshot n = %d after fourth observation, want 4", hp.N)
	}
}

func TestWriteMetricsFile(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(3)
	snap := r.Snapshot()

	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := WriteMetricsFile(path, snap); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) == 0 {
		t.Fatal("metrics file empty")
	}
	// Unwritable path surfaces the create error.
	if err := WriteMetricsFile(filepath.Join(t.TempDir(), "no", "such", "dir.json"), snap); err == nil {
		t.Fatal("expected error for unwritable path")
	}
}
