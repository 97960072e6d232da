package chaos

import "testing"

// TestFabricFaultsBite checks the fabric runner actually injects faults:
// the spike scenario must show retransmissions (recovered corruption) on
// every segment, and every segment must quiesce.
func TestFabricFaultsBite(t *testing.T) {
	sc, _ := Named("spike", 3)
	fr := RunFabric(sc, 2)
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
	if fr.Metrics.Counter("x0.s0.sw6->s1.sw2.port.tx_frames") == 0 {
		t.Error("ring link x0 carried no frames during fabric chaos run")
	}
}
