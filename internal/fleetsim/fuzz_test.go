package fleetsim

import (
	"testing"
	"time"
)

// FuzzLinkLifecycle drives the per-link lifetime state machine (Weibull
// onset → corrupting → repair/disable → re-enable) with an adversarial op
// stream on a tiny two-pod shard and audits the full invariant set after
// every step: capacity never goes negative, repairs are only ever in
// flight for down corrupting links, the corrupting set stays sorted and
// duplicate-free, and every streaming aggregate matches brute-force
// recomputation. Crashers found by -fuzz land in testdata/fuzz/ and then
// run as regular regression cases during plain `go test`.
func FuzzLinkLifecycle(f *testing.F) {
	// Seeds: quiet stream, onset/repair interleave, rate edges (0 and 1),
	// and a burst hammering one link through repeated onsets.
	f.Add([]byte{}, int64(1))
	f.Add([]byte{0x00, 0x10, 0x20, 0x81, 0x02, 0x42}, int64(2))
	f.Add([]byte{0x0f, 0xff, 0x0f, 0x00, 0x0f, 0xff, 0x81, 0x81, 0x81}, int64(3))
	f.Add([]byte{0x07, 0x00, 0x07, 0x40, 0x07, 0x80, 0x07, 0xc0, 0x81, 0x07, 0x01}, int64(4))

	f.Fuzz(func(t *testing.T, ops []byte, seed int64) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		cfg := Config{
			Fabric:       Fabric{Pods: 2, ToRsPerPod: 4, FabricsPerPod: 2, SpinesPerPlane: 4},
			Horizon:      365 * 24 * time.Hour,
			SampleEvery:  24 * time.Hour,
			Seed:         seed,
			Constraint:   0.5,
			PodsPerShard: 2,
		}.normalized()
		for _, name := range []string{"corropt", "lg", "p4protect"} {
			sol, err := SolutionByName(name)
			if err != nil {
				t.Fatal(err)
			}
			s := newShard(cfg, 0, sol)
			nLinks := int32(len(s.links))
			now := time.Duration(0)
			for i := 0; i+1 < len(ops); i += 2 {
				op, arg := ops[i], ops[i+1]
				now += time.Duration(op%16) * time.Hour
				switch op % 3 {
				case 0: // corruption onset: link and loss rate from arg
					link := int32(arg) % nLinks
					// Spread rates across the edge set, including the
					// illegal >1 input the solution layer must clamp.
					q := []float64{0, 1e-8, 1e-5, 1e-4, 1e-3, 1e-2, 1, 2}[int(arg>>5)%8]
					s.onsetAt(now, link, q)
				case 1: // complete the earliest scheduled repair
					if len(s.repairs) > 0 {
						s.completeRepair()
					}
				case 2: // sample: flush the dirty-pod cache and aggregates
					ss := s.sample(now)
					if ss.minPodCap < -1e-9 || ss.minPodCap > 1+1e-9 {
						t.Fatalf("op %d: least pod capacity %g out of range", i, ss.minPodCap)
					}
					if ss.minPaths < 0 || ss.minPaths > s.maxPaths {
						t.Fatalf("op %d: least paths %d out of range", i, ss.minPaths)
					}
					if ss.penalty < -1e-9 {
						t.Fatalf("op %d: negative penalty %g", i, ss.penalty)
					}
				}
				if err := s.checkInvariants(); err != nil {
					t.Fatalf("%s: op %d (0x%02x,0x%02x): %v", name, i, op, arg, err)
				}
			}
			// Drain: every pending repair must re-enable cleanly. The audit
			// runs after each repair, so a repair that disables a healthy
			// link, and with it a drain that never ends, fails at once.
			for len(s.repairs) > 0 {
				s.completeRepair()
				if err := s.checkInvariants(); err != nil {
					t.Fatalf("%s: draining repairs: %v", name, err)
				}
			}
			for l := range s.links {
				if !s.links[l].up() {
					t.Fatalf("%s: link %d still down after repair drain", name, l)
				}
			}
		}
	})
}
