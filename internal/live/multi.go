package live

import (
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"time"

	"linkguardian/internal/core"
	"linkguardian/internal/obs"
	"linkguardian/internal/parallel"
	"linkguardian/internal/simtime"
)

// MultiConfig parameterizes a self-contained loopback run: N protected
// links, each sender → receiver, with every sender sharing one mux socket
// and event loop and every receiver sharing another (the reverse ACK path
// is lossless, like the paper's testbed where the attenuator corrupts one
// direction). Whatever N, the run has two sockets and two loops, one per
// side. A single protected link is Links=1. The load generator spreads
// Flows concurrent app flows across the links; each flow sticks to its
// link (flow-to-link affinity, like a real fabric's per-flow ECMP), so
// per-flow ordering audits compose per link.
type MultiConfig struct {
	Seed  int64
	Links int     // protected links sharing each mux socket (default 1)
	Flows int     // total concurrent flows across all links (default Links)
	Count uint64  // total packets offered across all links (required)
	Size  int     // app frame size in bytes (default 1000)
	PPS   float64 // aggregate offered rate across all links (default 20000)

	// Per-link corruption of the forward (data) path, dropped at the
	// receiver's ingress MAC: NewLossModel(LossRate, MeanBurst), MeanBurst 0
	// meaning i.i.d. Each link draws its fault stream from
	// parallel.SeedFor(Seed, link): the run is reproducible and the links'
	// loss processes are decorrelated.
	LossRate  float64
	MeanBurst float64

	LinkRate simtime.Rate // per-link line rate (default 1Gbps)
	Mode     core.Mode
	Batch    int // mux syscall batch size (default DefaultBatch)

	// Timeout bounds the whole run, every wait in it; zero derives a
	// generous deadline from Count/PPS. Settle is how long delivery may
	// stand still before the run ends undrained (default 500ms).
	Timeout time.Duration
	Settle  time.Duration

	// OnStart, if set, runs once everything is started — the hook lglive
	// uses to serve per-link labeled metrics. Cancel, if non-nil, aborts
	// the run when closed (graceful Ctrl-C): both loops are stopped before
	// any counter is frozen, and the report carries Drained=false.
	OnStart func(senders, receivers []*Endpoint)
	Cancel  <-chan struct{}
}

func (c *MultiConfig) defaults() error {
	if c.Count == 0 {
		return fmt.Errorf("live: multi needs Count > 0")
	}
	if c.Links <= 0 {
		c.Links = 1
	}
	if c.Links > 1<<16 {
		return fmt.Errorf("live: at most %d links per mux (16-bit link id)", 1<<16)
	}
	if c.Flows <= 0 {
		c.Flows = c.Links
	}
	if c.Flows < c.Links {
		return fmt.Errorf("live: need at least one flow per link (%d flows, %d links)", c.Flows, c.Links)
	}
	if c.Size <= 0 {
		c.Size = 1000
	}
	if c.PPS <= 0 {
		c.PPS = 20000
	}
	if c.LinkRate == 0 {
		c.LinkRate = simtime.Gbps
	}
	if c.Settle <= 0 {
		c.Settle = 500 * time.Millisecond
		if raceEnabled {
			// The last in-flight drops recover through ackNoTimeout plus
			// race-slowed loop latency (hundreds of ms on one core); the
			// plateau detector must outwait that tail, not declare it.
			c.Settle = 2 * time.Second
		}
	}
	if c.Timeout <= 0 {
		offered := time.Duration(float64(c.Count) / c.PPS * float64(time.Second))
		c.Timeout = 2*offered + 15*time.Second
	}
	return nil
}

// share splits total across n shards: shard i of a multi run's packet and
// flow budgets. The first total%n shards carry the remainder.
func share(total uint64, n, i int) uint64 {
	base, rem := total/uint64(n), total%uint64(n)
	if uint64(i) < rem {
		return base + 1
	}
	return base
}

// LinkReport is one protected link's outcome: the flow-level delivery
// audit, the transport counters of both halves, and the receiving MAC's
// ground truth of what the wire did to the traffic.
type LinkReport struct {
	Link    int
	Offered uint64 // packets the link's sending app offered
	Flows   int    // flows that delivered on this link

	Rx        uint64
	Lost      uint64
	Duplicate uint64
	OutOfSeq  uint64
	Gaps      uint64
	Short     uint64

	P50, P99, P999 time.Duration // delivery latency quantiles

	SenderWire   WireStats
	ReceiverWire WireStats

	// ProxyDropped is the receiver's IngressDrops: forward-path frames its
	// ingress MAC dropped as corrupted. The repository benchmark reads the
	// field under this name, which predates corruption at the MAC.
	ProxyDropped uint64
}

// Check is the per-link strict verdict: every offered packet delivered,
// and the link's flow audit clean (FlowAudit.Check).
func (lr *LinkReport) Check() error {
	if lr.Rx != lr.Offered {
		return fmt.Errorf("link %d: delivered %d of %d offered", lr.Link, lr.Rx, lr.Offered)
	}
	a := FlowAudit{Rx: lr.Rx, Short: lr.Short, Gaps: lr.Gaps, Lost: lr.Lost, OutOfSeq: lr.OutOfSeq, Duplicate: lr.Duplicate}
	if err := a.Check(); err != nil {
		return fmt.Errorf("link %d: %w", lr.Link, err)
	}
	return nil
}

// MultiReport is the outcome of one RunMulti.
type MultiReport struct {
	Links []LinkReport

	Offered   uint64
	Delivered uint64
	Lost      uint64
	Duplicate uint64
	OutOfSeq  uint64
	Dropped   uint64 // forward-path frames dropped at the receivers' ingress MACs
	Masked    uint64 // drops the apps never saw (Dropped, only when Lost == 0)

	P50, P99, P999 time.Duration // aggregate delivery latency across links

	SenderMux   MuxStats
	ReceiverMux MuxStats
	Batched     bool // real sendmmsg batching on this platform

	Elapsed time.Duration
	Drained bool
}

// Check aggregates the per-link verdicts into one strict outcome — the
// single exit code of `lglive -strict`.
func (r *MultiReport) Check() error {
	if !r.Drained {
		return fmt.Errorf("live: multi run did not drain: delivered %d of %d offered within deadline",
			r.Delivered, r.Offered)
	}
	var bad []string
	for i := range r.Links {
		if err := r.Links[i].Check(); err != nil {
			bad = append(bad, err.Error())
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("live: %d of %d links failed strict audit: %s",
			len(bad), len(r.Links), strings.Join(bad, "; "))
	}
	return nil
}

// String renders the one-screen summary lglive prints at exit.
func (r *MultiReport) String() string {
	return fmt.Sprintf(
		"links=%d offered=%d delivered=%d lost=%d dup=%d ooo=%d | wire: dropped=%d (masked %d) | "+
			"latency p50=%v p99=%v p99.9=%v | mux: rx_batches=%d rx_bundles=%d rx=%d "+
			"tx_batches=%d tx_bundles=%d tx=%d batched=%v | %.2fs",
		len(r.Links), r.Offered, r.Delivered, r.Lost, r.Duplicate, r.OutOfSeq,
		r.Dropped, r.Masked,
		r.P50, r.P99, r.P999,
		r.SenderMux.RxBatches+r.ReceiverMux.RxBatches, r.SenderMux.RxBundles+r.ReceiverMux.RxBundles,
		r.SenderMux.RxDatagrams+r.ReceiverMux.RxDatagrams,
		r.SenderMux.TxBatches+r.ReceiverMux.TxBatches, r.SenderMux.TxBundles+r.ReceiverMux.TxBundles,
		r.SenderMux.TxDatagrams+r.ReceiverMux.TxDatagrams,
		r.Batched, r.Elapsed.Seconds())
}

// LabeledSnapshots captures every endpoint registry with link and role
// labels, for the labeled Prometheus exposition. Each snapshot is taken
// on its endpoint's loop goroutine.
func LabeledSnapshots(senders, receivers []*Endpoint) []obs.LabeledSnapshot {
	out := make([]obs.LabeledSnapshot, 0, len(senders)+len(receivers))
	add := func(eps []*Endpoint, role string) {
		for i, ep := range eps {
			s, ok := ep.Snapshot()
			if !ok {
				continue
			}
			out = append(out, obs.LabeledSnapshot{
				Labels: []obs.Label{
					{Key: "link", Value: fmt.Sprintf("%d", i)},
					{Key: "role", Value: role},
				},
				Snap: s,
			})
		}
	}
	add(senders, "sender")
	add(receivers, "receiver")
	return out
}

// RunMulti wires N protected links — every sender half on one shared mux
// socket, every receiver half on another, each link's forward path
// corrupted at its receiver's ingress MAC — drives the flow-scale load
// generator across them, waits for all links to drain, and reports
// per-link and aggregate outcomes. Blocks until done, canceled or Timeout:
// the loops signal the end (all delivered, Tx buffers empty), the clock
// only bounds the waits.
func RunMulti(cfg MultiConfig) (*MultiReport, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	deadline := time.NewTimer(cfg.Timeout)
	defer deadline.Stop()

	sconn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	rconn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		_ = sconn.Close()
		return nil, err
	}
	smux, err := NewMux(sconn, cfg.Batch)
	if err != nil {
		_ = sconn.Close()
		_ = rconn.Close()
		return nil, err
	}
	rmux, err := NewMux(rconn, cfg.Batch)
	if err != nil {
		_ = sconn.Close()
		_ = rconn.Close()
		return nil, err
	}
	// Shutdown ordering: both loops halt before either mux is torn down
	// and before any counter is read — so the counters are frozen,
	// consistent, and safely readable off-loop.
	stopLoops := func() {
		smux.loop.Stop()
		rmux.loop.Stop()
	}
	defer func() {
		stopLoops()
		smux.Close()
		rmux.Close()
	}()

	senders := make([]*Endpoint, cfg.Links)
	receivers := make([]*Endpoint, cfg.Links)
	for i := 0; i < cfg.Links; i++ {
		epc := EndpointConfig{LinkRate: cfg.LinkRate, LossRate: cfg.LossRate, Mode: cfg.Mode, AppHost: "sender-app"}
		if senders[i], err = NewSender(epc, smux, uint16(i), rconn.LocalAddr().(*net.UDPAddr)); err != nil {
			return nil, err
		}
		epc.AppHost = "receiver-app"
		if receivers[i], err = NewReceiver(epc, rmux, uint16(i), sconn.LocalAddr().(*net.UDPAddr)); err != nil {
			return nil, err
		}
		receivers[i].CorruptIngress(NewLossModel(cfg.LossRate, cfg.MeanBurst), parallel.SeedFor(cfg.Seed, i))
	}

	// The receiving loop closes drained once the receivers have audited
	// every offered packet, publishing the total for the stall check.
	var delivered atomic.Uint64
	drained := rmux.loop.await(func() bool {
		sum := uint64(0)
		for _, ep := range receivers {
			sum += ep.Flow.Rx
		}
		delivered.Store(sum)
		return sum >= cfg.Count
	})

	start := time.Now()
	rmux.Start()
	smux.Start()
	if cfg.OnStart != nil {
		cfg.OnStart(senders, receivers)
	}

	// Launch each link's share of the load: flows and packets split across
	// links, flow ids globally unique via per-link bases.
	dones := make([]<-chan struct{}, cfg.Links)
	flowBase := uint32(0)
	for i := 0; i < cfg.Links; i++ {
		flows := int(share(uint64(cfg.Flows), cfg.Links, i))
		count := share(cfg.Count, cfg.Links, i)
		pps := cfg.PPS / float64(cfg.Links)
		done, err := senders[i].StartLoadgen(flowBase, flows, count, cfg.Size, pps)
		if err != nil {
			return nil, err
		}
		dones[i] = done
		flowBase += uint32(flows)
	}

	// Every wait below selects on the run's deadline and Cancel too.
	canceled, expired := false, false
	wait := func(ch <-chan struct{}, bound <-chan time.Time) bool {
		select {
		case <-ch:
			return true
		case <-bound:
		case <-deadline.C:
			expired = true
		case <-cfg.Cancel:
			canceled = true
		}
		return false
	}
	for _, done := range dones {
		if !wait(done, nil) {
			break
		}
	}
	if expired {
		return nil, fmt.Errorf("live: loadgen did not finish %d packets within %v", cfg.Count, cfg.Timeout)
	}

	// Drain on the receiving loop's signal. Only a stalled run needs the
	// clock: delivery that stands still for a Settle span ends it undrained.
	report := &MultiReport{Batched: smux.Batched()}
	stall := time.NewTicker(cfg.Settle)
	defer stall.Stop()
	for last := delivered.Load(); !canceled; last = delivered.Load() {
		report.Drained = wait(drained, stall.C)
		if report.Drained || expired || delivered.Load() == last {
			break
		}
	}

	// Quiesce: the senders' Tx buffers empty once the receivers' ACKs
	// cover all they sent, so the run's last recoveries have landed. The
	// protocol's own stall backstop bounds the wait.
	if !canceled && !expired {
		wait(TxDrained(senders...), time.After(time.Duration(ProtocolConfig(cfg.LinkRate, cfg.LossRate).AckNoTimeout)))
	}

	// Stop both loops before freezing any counter (see stopLoops); only
	// then close the muxes.
	stopLoops()
	smux.Close()
	rmux.Close()

	report.Elapsed = time.Since(start)
	report.Links = make([]LinkReport, cfg.Links)
	latAgg := make([]uint64, len(latencyBounds)+1)
	latN := uint64(0)
	for i := 0; i < cfg.Links; i++ {
		s, r := senders[i], receivers[i]
		a := r.Flow
		lr := &report.Links[i]
		*lr = LinkReport{
			Link:         i,
			Offered:      s.App.Tx,
			Flows:        a.Flows(),
			Rx:           a.Rx,
			Lost:         a.Lost,
			Duplicate:    a.Duplicate,
			OutOfSeq:     a.OutOfSeq,
			Gaps:         a.Gaps,
			Short:        a.Short,
			P50:          a.Quantile(0.50),
			P99:          a.Quantile(0.99),
			P999:         a.Quantile(0.999),
			SenderWire:   s.Wire.Counters(),
			ReceiverWire: r.Wire.Counters(),
			ProxyDropped: r.IngressDrops(),
		}
		report.Offered += lr.Offered
		report.Delivered += lr.Rx
		report.Lost += lr.Lost
		report.Duplicate += lr.Duplicate
		report.OutOfSeq += lr.OutOfSeq
		report.Dropped += lr.ProxyDropped
		for j, c := range a.Latency.Counts() {
			latAgg[j] += c
		}
		latN += a.Latency.N()
	}
	if report.Lost == 0 {
		report.Masked = report.Dropped
	}
	hp := obs.HistPoint{Bounds: latencyBounds, Counts: latAgg, N: latN}
	report.P50 = time.Duration(HistQuantile(hp, 0.50) * float64(time.Second))
	report.P99 = time.Duration(HistQuantile(hp, 0.99) * float64(time.Second))
	report.P999 = time.Duration(HistQuantile(hp, 0.999) * float64(time.Second))
	report.SenderMux = smux.Stats()
	report.ReceiverMux = rmux.Stats()
	if report.Drained && report.Delivered > cfg.Count {
		report.Drained = false
	}
	return report, nil
}
