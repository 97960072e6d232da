package core

import "linkguardian/internal/simnet"

// ProtectBoth installs LinkGuardian on both directions of a link — the
// bidirectional-corruption extension sketched in §5: "it is simply a matter
// of running a parallel instance of LinkGuardian in the reverse direction",
// with the reliability of reverse-direction control messages increased by
// sending multiple copies.
//
// The returned instances protect the direction transmitted by link.A() and
// link.B() respectively, and start dormant. Each instance's control
// messages (loss notifications, PFC frames) are sent CtrlCopies times
// (forced to at least 3 here), and its receiver's explicit-ACK stream is
// already redundant by construction; all duplicates are absorbed
// idempotently on the other side.
func ProtectBoth(sim *simnet.Sim, link *simnet.Link, cfgAB, cfgBA Config) (ab, ba *Instance) {
	if cfgAB.CtrlCopies < 3 {
		cfgAB.CtrlCopies = 3
	}
	if cfgBA.CtrlCopies < 3 {
		cfgBA.CtrlCopies = 3
	}
	ab = Protect(sim, link.A(), cfgAB)
	ba = Protect(sim, link.B(), cfgBA)
	ab.peerSender = ba
	ba.peerSender = ab
	return ab, ba
}

// ProtectClasses installs two LinkGuardian instances on the same direction
// of a link, each protecting a different traffic class with its own
// ordering guarantee — §5's "run both LinkGuardian and LinkGuardianNB
// simultaneously on a corrupting link, each protecting a different class
// of traffic". The classify function routes packets: true → the first
// (typically Ordered, for RDMA) instance, false → the second (typically
// NonBlocking, for TCP). The instances use distinct channels so their
// sequence spaces, ACK streams, dummies and notifications never mix; the
// PFC backpressure of an ordered instance pauses the shared normal queue
// (and thus both classes), as it would on a per-port pause.
func ProtectClasses(sim *simnet.Sim, sendIfc *simnet.Ifc, cfgA, cfgB Config, classify func(*simnet.Packet) bool) (a, b *Instance) {
	cfgA.Channel = 0
	cfgA.ClassMatch = classify
	cfgB.Channel = 1
	cfgB.ClassMatch = func(p *simnet.Packet) bool { return !classify(p) }
	a = Protect(sim, sendIfc, cfgA)
	b = Protect(sim, sendIfc, cfgB)
	return a, b
}

// SetMode switches the instance between Ordered and NonBlocking at runtime
// (§3.5's "runtime option", used by the automatic-fallback controller of
// §5). Switching to NonBlocking lets any packets currently in the
// reordering buffer drain out of order; switching back to Ordered re-syncs
// ackNo to the next expected sequence number.
func (g *Instance) SetMode(m Mode) {
	if g.cfg.Mode == m {
		return
	}
	g.replayRing(false)
	defer g.armRing()
	g.cfg.Mode = m
	if m == Ordered {
		// Everything at or below latestRx has either been forwarded or is
		// unrecoverable; resume in-order delivery from the next packet.
		g.ackNo = g.latestRx.Add(1)
	} else {
		if g.paused {
			// NonBlocking mode never pauses the sender.
			g.paused = false
			g.sendPFC(simnet.KindResume)
		}
		// Outstanding loss records now close via the NB sweep path.
		for seq := range g.missing {
			g.armSweep(seq)
		}
	}
}

// Mode returns the instance's current operation mode.
func (g *Instance) Mode() Mode { return g.cfg.Mode }
