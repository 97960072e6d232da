package bench

import (
	"testing"

	"linkguardian/internal/simtime"
)

// eventsPerPkt runs the sim rig through a 10 ms warm-up and then reports
// the events fired per packet delivered to h2 over the next 20 ms.
func eventsPerPkt(t *testing.T, loss float64) float64 {
	t.Helper()
	tb, rx, gen := newRig(loss)
	defer gen.Stop()
	tb.Sim.RunFor(10 * simtime.Millisecond)
	p0, e0 := *rx, tb.Sim.Q.Fired()
	tb.Sim.RunFor(20 * simtime.Millisecond)
	pkts, events := *rx-p0, tb.Sim.Q.Fired()-e0
	if pkts == 0 {
		t.Fatalf("loss %g: no packets delivered", loss)
	}
	return float64(events) / float64(pkts)
}

// cleanEventCeiling caps the clean rig's events per delivered packet. The
// ACK-view raise and the Tx-buffer drop are tickets, not events (9.72
// measured; 11.72 while each was an event per packet).
const cleanEventCeiling = 9.75

// TestLossyRigEventBudget bounds what the fast path and recovery cost the
// event queue. The clean rig stays under cleanEventCeiling. At 1e-3 loss
// the reordering buffer holds nearly every packet (the 98 % loaded link
// never lets it empty after the first loss), so each held packet must cost
// about one event per release — not one per recirculation loop. The lossy
// rig may fire at most one event per delivered packet more than the clean
// one.
func TestLossyRigEventBudget(t *testing.T) {
	clean := eventsPerPkt(t, 0)
	lossy := eventsPerPkt(t, 1e-3)
	t.Logf("events/pkt: clean %.2f, lossy %.2f", clean, lossy)
	if clean > cleanEventCeiling {
		t.Fatalf("clean rig fires %.2f events/pkt, over the ceiling of %.2f", clean, cleanEventCeiling)
	}
	if lossy > clean+1.0 {
		t.Fatalf("lossy rig fires %.2f events/pkt, over the clean rig's %.2f + 1.0", lossy, clean)
	}
}
