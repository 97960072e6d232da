package fleetsim

import "testing"

func TestSizing(t *testing.T) {
	c := DefaultFabric()
	if got := c.NumLinks(); got != 98304 {
		t.Fatalf("default fabric has %d links, want 98304 (~100K)", got)
	}
	if c.MaxToRPaths() != 192 {
		t.Fatalf("MaxToRPaths = %d, want 192 (Figure 4)", c.MaxToRPaths())
	}
	if tor, spine := c.TorLinksPerPod(), c.SpineLinksPerPod(); tor != 192 || spine != 192 {
		t.Fatalf("per-pod links: %d ToR + %d spine, want 192 + 192", tor, spine)
	}
	for links, want := range map[int]int{0: 1, 384: 1, 385: 2, 1_000_000: 2605} {
		if got := c.PodsFor(links); got != want {
			t.Errorf("PodsFor(%d) = %d, want %d", links, got, want)
		}
	}
}
