package obs

import (
	"net/http/httptest"
	"strings"
	"testing"
)

// promFixture builds a registry with one metric of each shape.
func promFixture() *Registry {
	r := NewRegistry()
	r.Counter("lg.protected").Add(12345)
	r.CounterFunc("live.app.rx", func() uint64 { return 77 })
	g := r.Gauge("lg.tx_buf_bytes")
	g.Set(2048)
	g.Set(512)
	h := r.Histogram("lg.retx_delay_us", 10, 100, 1000)
	h.Observe(3)
	h.Observe(42)
	h.Observe(42)
	h.Observe(5000)
	return r
}

// A lone snapshot with no labels renders plain, unlabeled series.
func TestWritePrometheus(t *testing.T) {
	var sb strings.Builder
	snaps := []LabeledSnapshot{{Snap: promFixture().Snapshot()}}
	if err := WritePrometheusLabeled(&sb, snaps); err != nil {
		t.Fatalf("WritePrometheusLabeled: %v", err)
	}
	got := sb.String()
	want := strings.Join([]string{
		"# TYPE lg_protected counter",
		"lg_protected 12345",
		"# TYPE live_app_rx counter",
		"live_app_rx 77",
		"# TYPE lg_tx_buf_bytes gauge",
		"lg_tx_buf_bytes 512",
		"# TYPE lg_tx_buf_bytes_hwm gauge",
		"lg_tx_buf_bytes_hwm 2048",
		"# TYPE lg_retx_delay_us histogram",
		`lg_retx_delay_us_bucket{le="10"} 1`,
		`lg_retx_delay_us_bucket{le="100"} 3`,
		`lg_retx_delay_us_bucket{le="1000"} 3`,
		`lg_retx_delay_us_bucket{le="+Inf"} 4`,
		"lg_retx_delay_us_sum 5087",
		"lg_retx_delay_us_count 4",
		"",
	}, "\n")
	if got != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestPrometheusHandler(t *testing.T) {
	reg := promFixture()
	h := PrometheusMultiHandler(func() []LabeledSnapshot {
		return []LabeledSnapshot{{Snap: reg.Snapshot()}}
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body := rec.Body.String()
	for _, line := range []string{"lg_protected 12345", `lg_retx_delay_us_bucket{le="+Inf"} 4`} {
		if !strings.Contains(body, line) {
			t.Fatalf("body missing %q:\n%s", line, body)
		}
	}
}

func TestPromNameSanitization(t *testing.T) {
	cases := map[string]string{
		"lg.protected":   "lg_protected",
		"9lives":         "_lives",
		"a-b/c d":        "a_b_c_d",
		"ok_name:colons": "ok_name:colons",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// labeledFixture builds two per-link registries of the multi-tenant shape:
// the same metrics on both links (differing only in label sets), plus one
// metric that exists on a single link, so the union ordering is exercised.
func labeledFixture() []LabeledSnapshot {
	mk := func(link string, protected uint64, buf float64) LabeledSnapshot {
		r := NewRegistry()
		r.Counter("lg.protected").Add(protected)
		r.Gauge("lg.tx_buf_bytes").Set(buf)
		h := r.Histogram("lg.retx_delay_us", 10, 100)
		h.Observe(3)
		h.Observe(42)
		return LabeledSnapshot{
			Labels: []Label{{"link", link}, {"role", "sender"}},
			Snap:   r.Snapshot(),
		}
	}
	a := mk("0", 100, 64)
	b := mk("1", 200, 128)
	// A metric only link 1 has: it must still get its own TYPE line.
	r := NewRegistry()
	r.Counter("lg.protected").Add(200)
	r.Counter("live.mux.unknown_link").Add(7)
	r.Gauge("lg.tx_buf_bytes").Set(128)
	h := r.Histogram("lg.retx_delay_us", 10, 100)
	h.Observe(3)
	h.Observe(42)
	b.Snap = r.Snapshot()
	return []LabeledSnapshot{a, b}
}

// TestWritePrometheusLabeled pins the exposition page byte for byte: every
// series of one metric contiguous under a single TYPE line, samples told
// apart only by their label sets, histogram buckets carrying le alongside
// the link labels.
func TestWritePrometheusLabeled(t *testing.T) {
	var sb strings.Builder
	if err := WritePrometheusLabeled(&sb, labeledFixture()); err != nil {
		t.Fatalf("WritePrometheusLabeled: %v", err)
	}
	got := sb.String()
	want := strings.Join([]string{
		"# TYPE lg_protected counter",
		`lg_protected{link="0",role="sender"} 100`,
		`lg_protected{link="1",role="sender"} 200`,
		"# TYPE live_mux_unknown_link counter",
		`live_mux_unknown_link{link="1",role="sender"} 7`,
		"# TYPE lg_tx_buf_bytes gauge",
		`lg_tx_buf_bytes{link="0",role="sender"} 64`,
		`lg_tx_buf_bytes{link="1",role="sender"} 128`,
		"# TYPE lg_tx_buf_bytes_hwm gauge",
		`lg_tx_buf_bytes_hwm{link="0",role="sender"} 64`,
		`lg_tx_buf_bytes_hwm{link="1",role="sender"} 128`,
		"# TYPE lg_retx_delay_us histogram",
		`lg_retx_delay_us_bucket{link="0",role="sender",le="10"} 1`,
		`lg_retx_delay_us_bucket{link="0",role="sender",le="100"} 2`,
		`lg_retx_delay_us_bucket{link="0",role="sender",le="+Inf"} 2`,
		`lg_retx_delay_us_sum{link="0",role="sender"} 45`,
		`lg_retx_delay_us_count{link="0",role="sender"} 2`,
		`lg_retx_delay_us_bucket{link="1",role="sender",le="10"} 1`,
		`lg_retx_delay_us_bucket{link="1",role="sender",le="100"} 2`,
		`lg_retx_delay_us_bucket{link="1",role="sender",le="+Inf"} 2`,
		`lg_retx_delay_us_sum{link="1",role="sender"} 45`,
		`lg_retx_delay_us_count{link="1",role="sender"} 2`,
		"",
	}, "\n")
	if got != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestPromLabelValueEscaping(t *testing.T) {
	var sb strings.Builder
	r := NewRegistry()
	r.Counter("x").Add(1)
	snaps := []LabeledSnapshot{{
		Labels: []Label{{"path", `a\b"c` + "\nd"}},
		Snap:   r.Snapshot(),
	}}
	if err := WritePrometheusLabeled(&sb, snaps); err != nil {
		t.Fatalf("WritePrometheusLabeled: %v", err)
	}
	want := `x{path="a\\b\"c\nd"} 1`
	if !strings.Contains(sb.String(), want) {
		t.Fatalf("escaped label missing %q:\n%s", want, sb.String())
	}
}

func TestPrometheusMultiHandler(t *testing.T) {
	snaps := labeledFixture()
	h := PrometheusMultiHandler(func() []LabeledSnapshot { return snaps })
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body := rec.Body.String()
	for _, line := range []string{
		`lg_protected{link="0",role="sender"} 100`,
		`lg_retx_delay_us_bucket{link="1",role="sender",le="+Inf"} 2`,
	} {
		if !strings.Contains(body, line) {
			t.Fatalf("body missing %q:\n%s", line, body)
		}
	}
}
