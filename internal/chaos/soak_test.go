package chaos

import (
	"testing"

	"linkguardian/internal/parallel"
)

// The tier-2 soak: 200 randomized scenarios across the fault catalog, all of
// which the shipped protocol must survive with zero invariant violations.
func TestSoakZeroViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("soak sweep skipped in -short mode")
	}
	res := Soak(20230823, 200, RunOpts{})
	if fails := res.Failures(); len(fails) > 0 {
		t.Fatalf("%d of %d scenarios violated invariants:\n%v", len(fails), len(res.Reports), res)
	}
	// Sanity: the sweep must have actually exercised the protocol.
	var tx uint64
	quiesced := 0
	for _, r := range res.Reports {
		tx += r.TxUnique
		if r.Quiesced {
			quiesced++
		}
	}
	if tx < 200*1000 {
		t.Fatalf("soak transmitted only %d protected packets", tx)
	}
	if quiesced != len(res.Reports) {
		t.Fatalf("only %d/%d scenarios quiesced", quiesced, len(res.Reports))
	}
}

// The soak report is bit-identical at any worker count: scenario i always
// runs in its own simulation seeded by SeedFor(master, i), and results merge
// in index order.
func TestSoakDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("soak determinism sweep skipped in -short mode")
	}
	const master, n = 7, 32
	parallel.SetWorkers(1)
	serial := Soak(master, n, RunOpts{}).String()
	parallel.SetWorkers(4)
	wide := Soak(master, n, RunOpts{}).String()
	parallel.SetWorkers(0) // restore the default pool size
	if serial != wide {
		t.Fatalf("soak report differs between 1 and 4 workers:\n--- workers=1\n%s\n--- workers=4\n%s", serial, wide)
	}
}
