package fleetsim

// Fabric is the pod shape of the Facebook datacenter fabric of Figure 4:
// pods of 48 top-of-rack switches connected to 4 fabric switches each,
// with each fabric switch uplinked to the 48 spine switches of its spine
// plane. The default (256 pods) yields 98,304 switch-to-switch optical
// links — the paper's "about 100K links" at 1:1 oversubscription.
type Fabric struct {
	Pods           int
	ToRsPerPod     int
	FabricsPerPod  int
	SpinesPerPlane int
}

// DefaultFabric is the Figure 4 pod shape at ~100K-link scale.
func DefaultFabric() Fabric {
	return Fabric{Pods: 256, ToRsPerPod: 48, FabricsPerPod: 4, SpinesPerPlane: 48}
}

// NumLinks returns the total optical link count of the fabric.
func (c Fabric) NumLinks() int {
	return c.Pods * c.LinksPerPod()
}

// TorLinksPerPod is the number of ToR-to-fabric links in one pod.
func (c Fabric) TorLinksPerPod() int { return c.ToRsPerPod * c.FabricsPerPod }

// SpineLinksPerPod is the number of fabric-to-spine links in one pod.
func (c Fabric) SpineLinksPerPod() int { return c.FabricsPerPod * c.SpinesPerPlane }

// LinksPerPod is the total optical link count of one pod. Link IDs are laid
// out pod-major: pod p owns [p*LinksPerPod(), (p+1)*LinksPerPod()), ToR
// links first (ToR-major, one per fabric switch), spine links after
// (fabric-major, one per spine) — the layout of the packed per-shard state.
func (c Fabric) LinksPerPod() int { return c.TorLinksPerPod() + c.SpineLinksPerPod() }

// MaxToRPaths is the healthy per-ToR path count (192 for the default pod).
func (c Fabric) MaxToRPaths() int { return c.FabricsPerPod * c.SpinesPerPlane }

// PodsFor returns the smallest pod count whose fabric has at least the
// given number of links — how Config.Links becomes a concrete topology.
func (c Fabric) PodsFor(links int) int {
	per := c.LinksPerPod()
	if links <= per {
		return 1
	}
	return (links + per - 1) / per
}
