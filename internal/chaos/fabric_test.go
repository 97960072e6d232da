package chaos

import (
	"bytes"
	"testing"
)

// fabricDigest runs the "spike" scenario on a 4-segment fabric and renders
// the report plus merged metrics for byte comparison.
func fabricDigest(t *testing.T, workers int) []byte {
	t.Helper()
	sc, ok := Named("spike", 77)
	if !ok {
		t.Fatal("spike scenario missing from catalog")
	}
	fr := RunFabric(sc, 4, workers)
	if fr.Failed() {
		t.Fatalf("fabric spike scenario violated invariants:\n%s", fr)
	}
	var buf bytes.Buffer
	buf.WriteString(fr.String())
	buf.WriteByte('\n')
	if err := fr.Metrics.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFabricChaosShardInvariance is the chaos half of the parallel
// engine's determinism regression: the same fabric chaos scenario must
// report byte-identically at worker caps 1, 2 and 4.
func TestFabricChaosShardInvariance(t *testing.T) {
	ref := fabricDigest(t, 1)
	for _, w := range []int{2, 4} {
		got := fabricDigest(t, w)
		if !bytes.Equal(ref, got) {
			l1, l2 := bytes.Split(ref, []byte("\n")), bytes.Split(got, []byte("\n"))
			for i := 0; i < len(l1) && i < len(l2); i++ {
				if !bytes.Equal(l1[i], l2[i]) {
					t.Fatalf("workers=1 vs workers=%d differ at line %d:\n %s\n %s", w, i+1, l1[i], l2[i])
				}
			}
			t.Fatalf("workers=1 vs workers=%d reports differ in length", w)
		}
	}
}

// TestFabricFaultsBite checks the fabric runner actually injects faults:
// the spike scenario must show retransmissions (recovered corruption) on
// every segment, and every segment must quiesce.
func TestFabricFaultsBite(t *testing.T) {
	sc, _ := Named("spike", 3)
	fr := RunFabric(sc, 2, 2)
	if len(fr.Segments) != 2 {
		t.Fatalf("got %d segment reports, want 2", len(fr.Segments))
	}
	for i, r := range fr.Segments {
		if r.Retx == 0 {
			t.Errorf("segment %d saw no retransmissions under a loss spike", i)
		}
		if !r.Quiesced {
			t.Errorf("segment %d failed to quiesce:\n%s", i, r)
		}
		if r.Failed() {
			t.Errorf("segment %d violations:\n%s", i, r)
		}
	}
	if fr.Metrics.Counter("engine.shard0.handoffs_out") == 0 {
		t.Error("no cross-shard handoffs during fabric chaos run")
	}
}
