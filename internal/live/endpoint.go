package live

import (
	"math/rand"
	"net"

	"linkguardian/internal/core"
	"linkguardian/internal/obs"
	"linkguardian/internal/simnet"
	"linkguardian/internal/simtime"
)

// EndpointConfig parameterizes one live endpoint: one half of a protected
// link.
type EndpointConfig struct {
	// LinkRate paces the wire-facing egress port: the live link's line
	// rate. Loopback UDP has no inherent rate, so the port's strict-
	// priority scheduler provides the serialization discipline the
	// protocol's queues are designed around. Default 1Gbps.
	LinkRate simtime.Rate

	// LossRate is the measured corruption rate of the path (the configured
	// forward-path drop rate), feeding Equation 2 via ProtocolConfig.
	LossRate float64

	// Mode selects ordered LinkGuardian (default) or LinkGuardianNB.
	Mode core.Mode

	// AppHost names the local application host; DeliverTo is the local
	// routing label for frames bound to the remote endpoint. Both are
	// process-local — host names never cross the wire (the receiving side
	// stamps its own AppHost on arriving data) — but they must differ so
	// the switch can route wire-bound and app-bound traffic apart.
	AppHost, DeliverTo string
}

func (c *EndpointConfig) defaults() {
	if c.LinkRate == 0 {
		c.LinkRate = simtime.Gbps
	}
	if c.AppHost == "" {
		c.AppHost = "app"
	}
	if c.DeliverTo == "" {
		c.DeliverTo = "peer"
	}
}

// protocol is the endpoint's LinkGuardian configuration.
func (c *EndpointConfig) protocol() core.Config {
	cfg := ProtocolConfig(c.LinkRate, c.LossRate)
	cfg.Mode = c.Mode
	return cfg
}

// AppStats is the sending application's ground truth: what it offered to
// its stack. Written on the loop goroutine; read via Loop.Call or after
// the loop has stopped.
type AppStats struct {
	Tx uint64 // packets offered by the sending app
}

// Endpoint is one live process half: a host and switch topology, the
// LinkGuardian instance protecting (one direction of) its wire, and the
// link's slot on a shared-socket Mux. Build with NewSender/NewReceiver,
// then Start the mux: its loop runs the endpoint alongside every other
// link on the socket, and Mux.Close stops it.
type Endpoint struct {
	Loop *Loop // the mux's loop, shared by every link on its socket
	LG   *core.Instance
	Wire *MuxWire
	App  AppStats   // sending app's offered count (senders only)
	Flow *FlowAudit // per-flow delivery audit (receivers only)
	Reg  *obs.Registry

	cfg  EndpointConfig
	host *simnet.Host
	wifc *simnet.Ifc
	lgen *loadgen
}

// newEndpoint builds the topology both roles share (app host, switch, and
// a wire-facing link against a portal node) on m's loop and attaches the
// wire-facing interface to link id linkID of m, addressed to peer. The
// mux owns the socket and the loop.
func newEndpoint(cfg EndpointConfig, m *Mux, linkID uint16, peer *net.UDPAddr) (*Endpoint, error) {
	cfg.defaults()
	loop := m.loop
	ep := &Endpoint{Loop: loop, Reg: obs.NewRegistry(), cfg: cfg}
	ep.host = simnet.NewHost(loop.Sim, cfg.AppHost)
	ep.host.StackDelay = 0
	sw := simnet.NewSwitch(loop.Sim, "sw")
	hostLink := simnet.Connect(loop.Sim, ep.host, sw, simtime.Rate100G, 0)
	wire := simnet.Connect(loop.Sim, sw, &portal{loop: loop, name: "wire"}, cfg.LinkRate, 0)
	ep.wifc = wire.A()
	sw.AddRoute(cfg.DeliverTo, ep.wifc)
	sw.AddRoute(cfg.AppHost, hostLink.B())
	w, err := m.Attach(linkID, ep.wifc, peer, cfg.AppHost)
	if err != nil {
		return nil, err
	}
	ep.Wire = w
	return ep, nil
}

// NewSender builds the sending endpoint on link id linkID of m: app
// traffic egresses the switch onto the protected wire, stamped and
// buffered by a RoleSender instance; ACKs, loss notifications and PFC
// frames arriving on the wire drive its Tx buffer and pause state. The
// instance is enabled and runs once m starts; call before m.Start.
func NewSender(cfg EndpointConfig, m *Mux, linkID uint16, peer *net.UDPAddr) (*Endpoint, error) {
	ep, err := newEndpoint(cfg, m, linkID, peer)
	if err != nil {
		return nil, err
	}
	ep.LG = core.ProtectSender(ep.Loop, ep.wifc, ep.cfg.protocol())
	ep.protect()
	return ep, nil
}

// NewReceiver builds the receiving endpoint on link id linkID of m:
// protected frames arriving on the wire pass through a RoleReceiver
// instance — loss detection, the reordering buffer, the ACK streams — and
// recovered traffic is forwarded to the local app host, whose sink audits
// every flow's delivery sequence. Call before m.Start.
func NewReceiver(cfg EndpointConfig, m *Mux, linkID uint16, peer *net.UDPAddr) (*Endpoint, error) {
	ep, err := newEndpoint(cfg, m, linkID, peer)
	if err != nil {
		return nil, err
	}
	ep.LG = core.ProtectReceiver(ep.Loop, ep.wifc, ep.cfg.protocol())
	ep.Flow = newFlowAudit(ep.Reg)
	ep.host.Recycle = true
	ep.host.OnReceive = ep.flowSink
	ep.protect()
	return ep, nil
}

// protect enables the endpoint's instance — its replenishing queues fire
// from the moment the loop starts — and exposes its instrumentation in the
// obs registry.
func (ep *Endpoint) protect() {
	ep.LG.Enable()
	ep.LG.Register(ep.Reg, "lg")
	r := ep.Reg
	w := ep.Wire
	r.CounterFunc("live.app.tx", func() uint64 { return ep.App.Tx })
	r.CounterFunc("live.wire.tx_datagrams", func() uint64 { return w.Counters().TxDatagrams })
	r.CounterFunc("live.wire.rx_datagrams", func() uint64 { return w.Counters().RxDatagrams })
	r.CounterFunc("live.wire.tx_errors", func() uint64 { return w.Counters().TxErrors })
	r.CounterFunc("live.wire.send_retries", func() uint64 { return w.Counters().SendRetries })
	r.CounterFunc("live.wire.send_drops", func() uint64 { return w.Counters().SendDrops })
	r.CounterFunc("live.wire.decode_drops", func() uint64 { return w.Counters().DecodeDrops })
	r.CounterFunc("live.wire.encode_drops", func() uint64 { return w.Counters().EncodeDrops })
}

// NewLossModel builds a forward-path loss model: lossless at a
// non-positive rate, otherwise i.i.d. Bernoulli at rate, or — with a
// positive meanBurst — Gilbert–Elliott with that mean burst length.
func NewLossModel(rate, meanBurst float64) simnet.LossModel {
	switch {
	case rate <= 0:
		return simnet.NoLoss{}
	case meanBurst > 0:
		return simnet.NewGilbertElliott(rate, meanBurst)
	}
	return simnet.IIDLoss{P: rate}
}

// CorruptIngress drops frames from the wire's peer at the ingress MAC
// (Ifc.Receive runs the link's DropFn), as m decides from a stream seeded
// with seed: the live stand-in for the testbed's variable optical
// attenuator (§4 of the paper), which corrupts one direction of the link.
// Every live drop is decided here, in-process or split. Call before the
// mux starts.
func (ep *Endpoint) CorruptIngress(m simnet.LossModel, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	peer := ep.wifc.Peer()
	ep.wifc.Link().DropFn = func(_ *simnet.Packet, from *simnet.Ifc) bool {
		return from == peer && m.Drops(rng)
	}
}

// IngressDrops is the wire interface's In.RxBad: frames its ingress MAC
// dropped as corrupted. Read it on the loop or after the loop has stopped.
func (ep *Endpoint) IngressDrops() uint64 { return ep.wifc.In.RxBad }

// Snapshot captures the endpoint's registry from off the loop goroutine.
func (ep *Endpoint) Snapshot() (obs.Snapshot, bool) {
	var s obs.Snapshot
	ok := ep.Loop.Call(func() { s = ep.Reg.Snapshot() })
	return s, ok
}
