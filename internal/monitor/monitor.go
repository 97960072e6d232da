// Package monitor implements corruptd, the control-plane link-monitoring
// daemon of Appendix C: each switch's daemon polls its ports' MAC frame
// counters every second, estimates per-link loss rates over a moving window
// of up to 100M frames, and — when a link's loss rate reaches the 1e-8
// healthy threshold — notifies the upstream switch through a
// publish/subscribe bus so that LinkGuardian can be activated with the
// Equation 2 parameters for the measured rate.
//
// The paper's deployment uses Redis for the PubSub fabric; an in-memory
// bus is the equivalent substrate here.
package monitor

import (
	"linkguardian/internal/core"
	"linkguardian/internal/obs"
	"linkguardian/internal/simnet"
	"linkguardian/internal/simtime"
)

// Notification reports a corrupting link: the interface that transmits onto
// it and the measured loss rate.
type Notification struct {
	Link     string // interface name of the corrupting direction's sender
	LossRate float64
}

// Bus is a topic-based publish/subscribe fabric (the Redis stand-in).
// The zero value is not usable; create with NewBus.
type Bus struct {
	subs map[string][]func(Notification)
}

// NewBus returns an empty bus.
func NewBus() *Bus { return &Bus{subs: map[string][]func(Notification){}} }

// Subscribe registers a handler for a topic.
func (b *Bus) Subscribe(topic string, fn func(Notification)) {
	b.subs[topic] = append(b.subs[topic], fn)
}

// Publish delivers a notification to every subscriber of the topic.
func (b *Bus) Publish(topic string, n Notification) {
	for _, fn := range b.subs[topic] {
		fn(n)
	}
}

// Config parameterizes a corruptd daemon.
type Config struct {
	PollInterval simtime.Duration // counter polling period (1s in the paper)
	WindowFrames uint64           // moving window length (100M frames)
	Threshold    float64          // activation threshold (1e-8)
}

// DefaultConfig is the Appendix C configuration.
func DefaultConfig() Config {
	return Config{PollInterval: simtime.Second, WindowFrames: 100e6, Threshold: 1e-8}
}

// Daemon watches the ingress counters of a switch's interfaces and
// publishes a notification on the bus topic of the upstream (transmitting)
// switch when a link crosses the loss threshold.
type Daemon struct {
	sim  *simnet.Sim
	cfg  Config
	bus  *Bus
	sw   *simnet.Switch
	rows []*watchRow

	// Notified counts threshold crossings published.
	Notified int

	running bool
}

type watchRow struct {
	ifc      *simnet.Ifc
	hist     []counterSnap // ring of per-poll snapshots spanning the window
	fired    bool          // already notified for the current episode
	lastLoss float64       // loss rate over the window at the latest poll
}

type counterSnap struct{ all, bad uint64 }

// NewDaemon creates a daemon for a switch. It watches every interface the
// switch has at creation time.
func NewDaemon(sim *simnet.Sim, sw *simnet.Switch, bus *Bus, cfg Config) *Daemon {
	d := &Daemon{sim: sim, cfg: cfg, bus: bus, sw: sw}
	for _, ifc := range sw.Ifcs() {
		d.rows = append(d.rows, &watchRow{ifc: ifc})
	}
	return d
}

// Start begins polling.
func (d *Daemon) Start() {
	if d.running {
		return
	}
	d.running = true
	d.sim.Every(d.cfg.PollInterval, func() bool {
		d.poll()
		return d.running
	})
}

// Stop halts polling at the next tick.
func (d *Daemon) Stop() { d.running = false }

func (d *Daemon) poll() {
	for _, row := range d.rows {
		snap := counterSnap{all: row.ifc.In.RxAll, bad: row.ifc.In.RxBad}
		row.hist = append(row.hist, snap)
		// Trim the ring so it spans at most WindowFrames frames.
		for len(row.hist) > 2 && snap.all-row.hist[1].all >= d.cfg.WindowFrames {
			row.hist = row.hist[1:]
		}
		base := row.hist[0]
		dAll := snap.all - base.all
		dBad := snap.bad - base.bad
		if dAll == 0 {
			continue
		}
		loss := float64(dBad) / float64(dAll)
		row.lastLoss = loss
		if loss >= d.cfg.Threshold && !row.fired {
			row.fired = true
			d.Notified++
			// The corrupting direction is transmitted by the peer: tell
			// the peer's switch to activate LinkGuardian.
			peer := row.ifc.Peer()
			d.bus.Publish(peer.Node().NodeName(), Notification{
				Link:     peer.Name,
				LossRate: loss,
			})
		} else if loss < d.cfg.Threshold/10 {
			row.fired = false // healthy again; re-arm
		}
	}
}

// Register exposes the daemon's moving-window loss-rate estimates — one
// gauge per watched interface, named by the interface — plus the published
// notification count under the given prefix. The gauges are function-backed
// reads of the latest poll, so registration adds nothing to the poll loop.
func (d *Daemon) Register(r *obs.Registry, prefix string) {
	for _, row := range d.rows {
		row := row
		r.GaugeFunc(prefix+".loss_rate."+row.ifc.Name, func() float64 { return row.lastLoss })
	}
	r.CounterFunc(prefix+".notified", func() uint64 { return uint64(d.Notified) })
}

// Activator subscribes a switch's LinkGuardian instances to corruption
// notifications: when the local switch is told one of its egress links is
// corrupting, the matching instance is configured per Equation 2 and
// enabled.
type Activator struct {
	// Activated counts Enable calls performed.
	Activated int
}

// NewActivator wires the instances (keyed by their sender interface) to the
// bus topic of the owning switch.
func NewActivator(bus *Bus, sw *simnet.Switch, instances map[string]*core.Instance) *Activator {
	a := &Activator{}
	bus.Subscribe(sw.NodeName(), func(n Notification) {
		g, ok := instances[n.Link]
		if !ok || g.Enabled() {
			return
		}
		a.Activated++
		g.SetMeasuredLossRate(n.LossRate)
		g.Enable()
	})
	return a
}
