package core

import (
	"testing"

	"linkguardian/internal/obs"
	"linkguardian/internal/simtime"
)

func TestRecircOverheadEdgeCases(t *testing.T) {
	m := &Metrics{SenderLoops: 1000, ReceiverLoops: 500}
	cases := []struct {
		name     string
		window   simtime.Duration
		capacity float64
		wantTx   float64
		wantRx   float64
	}{
		{"zero window", 0, 1e9, 0, 0},
		{"negative window", -simtime.Second, 1e9, 0, 0},
		{"zero capacity", simtime.Second, 0, 0, 0},
		{"negative capacity", simtime.Second, -5, 0, 0},
		{"nominal", simtime.Second, 1e6, 1e-3, 5e-4},
		{"sub-second window", 100 * simtime.Millisecond, 1e6, 1e-2, 5e-3},
	}
	for _, c := range cases {
		tx, rx := m.RecircOverhead(c.window, c.capacity)
		if tx != c.wantTx || rx != c.wantRx {
			t.Errorf("%s: RecircOverhead = (%v, %v), want (%v, %v)", c.name, tx, rx, c.wantTx, c.wantRx)
		}
	}

	// Zero-loop metrics are zero overhead regardless of window.
	var empty Metrics
	if tx, rx := empty.RecircOverhead(simtime.Second, 1e6); tx != 0 || rx != 0 {
		t.Errorf("empty metrics: overhead = (%v, %v)", tx, rx)
	}
}

// RetxDelays must stay bounded no matter how long the run: the raw-slice
// representation this replaced grew without limit on multi-hour soaks.
func TestRetxDelaysBoundedMemory(t *testing.T) {
	var m Metrics
	const total = 200_000
	for i := 0; i < total; i++ {
		m.RetxDelays.Observe(simtime.Duration(i) * simtime.Nanosecond)
	}
	if m.RetxDelays.N() != total {
		t.Fatalf("N = %d, want %d (total count must not be lost)", m.RetxDelays.N(), total)
	}
	if kept := m.RetxDelays.Retained(); kept > 4096 {
		t.Fatalf("reservoir holds %d samples; must stay <= 4096", kept)
	}
	if got := m.RetxDelays.Hist().N(); got != total {
		t.Fatalf("histogram counted %d of %d observations", got, total)
	}
}

func TestMetricsRegisterExposesCounters(t *testing.T) {
	g := &Instance{M: Metrics{Protected: 11, Retransmits: 3, Timeouts: 2, TxBufBytes: 100, TxBufPeak: 500}}
	m := &g.M
	r := obs.NewRegistry()
	g.Register(r, "lg")
	s := r.Snapshot()
	if s.Counter("lg.protected") != 11 || s.Counter("lg.retransmits") != 3 || s.Counter("lg.timeouts") != 2 {
		t.Fatalf("counters not exposed: %+v", s.Counters)
	}
	if s.Gauge("lg.tx_buf_bytes").Value != 100 || s.Gauge("lg.tx_buf_peak").Value != 500 {
		t.Fatalf("gauges not exposed: %+v", s.Gauges)
	}
	// Function-backed: a later mutation is visible at the next snapshot.
	m.Protected = 50
	if got := r.Snapshot().Counter("lg.protected"); got != 50 {
		t.Fatalf("counter stale after mutation: %d", got)
	}
	if _, ok := s.Histogram("lg.retx_delay_us"); !ok {
		t.Fatal("retx-delay histogram missing")
	}
}
