// Command lglive runs the LinkGuardian state machines over real UDP
// sockets: live protected links on localhost (or any reachable path),
// with forward-path corruption at the receiver's ingress MAC standing in
// for the testbed's variable optical attenuator.
//
// Three roles compose protected links:
//
//	lglive -mode=demo                           # sender + receiver in one process
//	lglive -mode=demo -links=8 -flows=1000      # N links on two shared mux sockets
//	lglive -mode=receiver -listen A -peer B -loss 1e-3
//	lglive -mode=sender   -listen B -peer A -count 1000000 -pps 100000
//
// Data flows sender → receiver; ACKs, loss notifications and PFC frames
// return lossless (the attenuator corrupts one direction, §4 of the
// paper). Every endpoint rides a batched mux socket, and every run drops
// forward-path frames at the receiving endpoint's ingress MAC from a
// seeded stream (-loss, -burst, -burstlen, -seed). The demo puts all
// -links sender halves on one mux and all receiver halves on another,
// draws link i's stream from parallel.SeedFor(-seed, i), and spreads the
// flow-scale load generator across the links. A split run is the demo's
// link 0 in two processes: the receiver draws that link's stream, and the
// sender peers with it directly. The demo, sender and receiver serve
// Prometheus metrics on -http at /metrics, series labeled link="N"/role.
// Every role shuts down cleanly on SIGINT/SIGTERM — one signal stops every
// loop before any counter is frozen — and -strict folds the delivery
// audits into the exit code.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"linkguardian/internal/core"
	"linkguardian/internal/live"
	"linkguardian/internal/obs"
	"linkguardian/internal/parallel"
	"linkguardian/internal/results"
	"linkguardian/internal/simtime"
)

type options struct {
	mode     string
	listen   string
	peer     string
	httpAddr string

	count    uint64
	duration time.Duration
	pps      float64
	size     int

	loss      float64
	burst     bool
	meanBurst float64 // -burstlen under -burst, else 0 (i.i.d.)

	links int
	flows int
	batch int

	rateGbps   float64
	lgMode     string
	seed       int64
	strict     bool
	jsonOut    bool
	resultsDir string
}

func parseFlags() *options {
	o := &options{}
	flag.StringVar(&o.mode, "mode", "demo", "role: demo | sender | receiver")
	flag.StringVar(&o.listen, "listen", "127.0.0.1:0", "UDP address to bind")
	flag.StringVar(&o.peer, "peer", "", "UDP address frames are sent to (sender: the receiver; receiver: the sender)")
	flag.StringVar(&o.httpAddr, "http", "", "serve Prometheus metrics on this address at /metrics")
	flag.Uint64Var(&o.count, "count", 0, "packets to offer (sender/demo); 0 derives from -duration")
	flag.DurationVar(&o.duration, "duration", 10*time.Second, "offered-load duration when -count is 0; receiver auto-exit when set")
	flag.Float64Var(&o.pps, "pps", 20000, "offered packets per second")
	flag.IntVar(&o.size, "size", 1000, "app frame size in bytes (at least the 20-byte flow header)")
	flag.Float64Var(&o.loss, "loss", 1e-3, "forward-path corruption probability, dropped at the receiver's ingress MAC (demo, receiver); the sender sizes its retransmissions for it")
	flag.BoolVar(&o.burst, "burst", false, "use the Gilbert–Elliott burst-loss model instead of i.i.d.")
	flag.Float64Var(&o.meanBurst, "burstlen", 4, "mean burst length in frames for -burst (0 means i.i.d.)")
	flag.IntVar(&o.links, "links", 1, "protected links per shared mux socket (demo)")
	flag.IntVar(&o.flows, "flows", 0, "concurrent app flows across all links (demo; 0 means one per link)")
	flag.IntVar(&o.batch, "batch", 0, "mux syscall batch size (demo; 0 means the default)")
	flag.Float64Var(&o.rateGbps, "rate", 1, "protected link line rate in Gbit/s")
	flag.StringVar(&o.lgMode, "lg-mode", "ordered", "protocol mode: ordered | nb")
	flag.Int64Var(&o.seed, "seed", 1, "ingress-loss RNG seed: link i of the demo draws from parallel.SeedFor(seed, i), the receiver from link 0's stream (the sender draws no randomness)")
	flag.BoolVar(&o.strict, "strict", false, "exit non-zero unless the app-level audit is perfectly clean")
	flag.BoolVar(&o.jsonOut, "json", false, "dump the final metrics snapshot as JSON to stdout")
	flag.StringVar(&o.resultsDir, "results-dir", "", "demo: ingest the run's delivery audit and counters into the results store at this directory")
	flag.Parse()
	if !o.burst {
		o.meanBurst = 0
	}
	if o.count == 0 {
		o.count = uint64(o.pps * o.duration.Seconds())
	}
	return o
}

func (o *options) protocolMode() (core.Mode, error) {
	switch o.lgMode {
	case "ordered":
		return core.Ordered, nil
	case "nb":
		return core.NonBlocking, nil
	}
	return core.Ordered, fmt.Errorf("unknown -lg-mode %q (want ordered or nb)", o.lgMode)
}

func (o *options) linkRate() simtime.Rate {
	return simtime.Rate(o.rateGbps * float64(simtime.Gbps))
}

// serveMetrics starts a labeled /metrics listener if -http was given.
func serveMetrics(addr string, snap func() []obs.LabeledSnapshot) {
	if addr == "" {
		return
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.PrometheusMultiHandler(snap))
	go func() {
		if err := http.ListenAndServe(addr, mux); err != nil {
			fmt.Fprintf(os.Stderr, "lglive: metrics server: %v\n", err)
		}
	}()
}

// signalChan returns a channel closed on SIGINT/SIGTERM.
func signalChan() <-chan struct{} {
	done := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		close(done)
	}()
	return done
}

// registries merges the registries of endpoints whose loops have stopped.
func registries(eps ...[]*live.Endpoint) obs.Snapshot {
	var snaps []obs.Snapshot
	for _, set := range eps {
		for _, ep := range set {
			snaps = append(snaps, ep.Reg.Snapshot())
		}
	}
	return obs.MergeSnapshots(snaps...)
}

func runDemoMode(o *options) error {
	mode, err := o.protocolMode()
	if err != nil {
		return err
	}
	var senders, receivers []*live.Endpoint
	cfg := live.MultiConfig{
		Seed:      o.seed,
		Links:     o.links,
		Flows:     o.flows,
		Count:     o.count,
		Size:      o.size,
		PPS:       o.pps,
		LossRate:  o.loss,
		MeanBurst: o.meanBurst,
		LinkRate:  o.linkRate(),
		Mode:      mode,
		Batch:     o.batch,
		Cancel:    signalChan(),
		OnStart: func(s, r []*live.Endpoint) {
			senders, receivers = s, r
			serveMetrics(o.httpAddr, func() []obs.LabeledSnapshot {
				return live.LabeledSnapshots(s, r)
			})
		},
	}
	report, err := live.RunMulti(cfg)
	if err != nil {
		return err
	}
	fmt.Println(report)
	for i := range report.Links {
		lr := &report.Links[i]
		verdict := "ok"
		if err := lr.Check(); err != nil {
			verdict = err.Error()
		}
		fmt.Printf("link %d: offered=%d rx=%d lost=%d dup=%d ooo=%d flows=%d p99=%v | wire dropped=%d | %s\n",
			lr.Link, lr.Offered, lr.Rx, lr.Lost, lr.Duplicate, lr.OutOfSeq,
			lr.Flows, lr.P99, lr.ProxyDropped, verdict)
	}
	// RunMulti has stopped every loop: the registries are quiescent.
	if o.jsonOut {
		if err := registries(senders, receivers).WriteJSON(os.Stdout); err != nil {
			return err
		}
	}
	if o.resultsDir != "" {
		run := results.FromSnapshot("lglive", "demo", o.ingestConfig(), registries(senders, receivers))
		run.Records = append(run.Records,
			results.Record{Name: "audit.offered", Value: float64(report.Offered), Unit: "count"},
			results.Record{Name: "audit.delivered", Value: float64(report.Delivered), Unit: "count"},
			results.Record{Name: "audit.lost", Value: float64(report.Lost), Unit: "count"},
			results.Record{Name: "audit.duplicate", Value: float64(report.Duplicate), Unit: "count"},
			results.Record{Name: "audit.out_of_seq", Value: float64(report.OutOfSeq), Unit: "count"},
			results.Record{Name: "audit.masked", Value: float64(report.Masked), Unit: "count"},
			results.Record{Name: "wire.dropped", Value: float64(report.Dropped), Unit: "count"},
			results.Record{Name: "latency.p50_sec", Value: report.P50.Seconds()},
			results.Record{Name: "latency.p99_sec", Value: report.P99.Seconds()},
			results.Record{Name: "latency.p999_sec", Value: report.P999.Seconds()},
			results.Record{Name: "elapsed_sec", Value: report.Elapsed.Seconds()},
		)
		// Live runs ride the wall clock, so every execution is a distinct
		// data point: the content hash covers the measured counters.
		run.Source = "cmd/lglive"
		summary, err := results.Ingest(o.resultsDir, run)
		if err != nil {
			return err
		}
		fmt.Println(summary)
	}
	if o.strict {
		return report.Check()
	}
	return nil
}

// ingestConfig is the run configuration recorded with a live ingestion:
// the offered-load shape and impairment model, not the wall-clock outcome.
func (o *options) ingestConfig() map[string]string {
	return map[string]string{
		"seed":  fmt.Sprint(o.seed),
		"count": fmt.Sprint(o.count),
		"pps":   fmt.Sprint(o.pps),
		"size":  fmt.Sprint(o.size),
		"loss":  fmt.Sprint(o.loss),
		"links": fmt.Sprint(o.links),
		"flows": fmt.Sprint(o.flows),
		"mode":  o.lgMode,
	}
}

// endpoint is a standalone sender or receiver: link id 0 of a mux on the
// bound -listen socket, addressed to -peer. A receiver corrupts its
// ingress as the demo's link 0 does. mux.Close stops the loop
// first; the counters are frozen and plainly readable after it.
type endpoint struct {
	*live.Endpoint
	mux *live.Mux
}

// openEndpoint binds the socket, wraps it in a mux, builds the role's
// endpoint on link id 0, starts the mux and serves its labeled metrics.
func openEndpoint(o *options, role string) (*endpoint, error) {
	mode, err := o.protocolMode()
	if err != nil {
		return nil, err
	}
	if o.peer == "" {
		return nil, fmt.Errorf("-peer is required for this mode")
	}
	peer, err := net.ResolveUDPAddr("udp", o.peer)
	if err != nil {
		return nil, err
	}
	laddr, err := net.ResolveUDPAddr("udp", o.listen)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, err
	}
	m, err := live.NewMux(conn, 0)
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	cfg := live.EndpointConfig{LinkRate: o.linkRate(), LossRate: o.loss, Mode: mode}
	build := live.NewReceiver
	if role == "sender" {
		build = live.NewSender
	}
	ep, err := build(cfg, m, 0, peer)
	if err != nil {
		m.Close()
		return nil, err
	}
	if role == "receiver" {
		ep.CorruptIngress(live.NewLossModel(o.loss, o.meanBurst), parallel.SeedFor(o.seed, 0))
	}
	m.Start()
	e := &endpoint{Endpoint: ep, mux: m}
	serveMetrics(o.httpAddr, func() []obs.LabeledSnapshot {
		if role == "sender" {
			return live.LabeledSnapshots([]*live.Endpoint{ep}, nil)
		}
		return live.LabeledSnapshots(nil, []*live.Endpoint{ep})
	})
	fmt.Printf("lglive %s: %v -> %v\n", role, conn.LocalAddr(), peer)
	return e, nil
}

func runSenderMode(o *options) error {
	e, err := openEndpoint(o, "sender")
	if err != nil {
		return err
	}
	defer e.mux.Close()
	fmt.Printf("offering %d packets at %.0f pps\n", o.count, o.pps)
	done, err := e.StartLoadgen(0, 1, o.count, o.size, o.pps)
	if err != nil {
		return err
	}
	quit := signalChan()
	select {
	case <-done:
		// Give the final ACK round trips and any tail retransmissions a
		// moment before tearing the Tx buffer down.
		select {
		case <-time.After(2 * time.Second):
		case <-quit:
		}
	case <-quit:
	}
	e.mux.Close()
	w := e.Wire.Counters()
	fmt.Printf("app: tx=%d | wire: tx=%d rx=%d tx_errs=%d send_drops=%d decode_drops=%d\n",
		e.App.Tx, w.TxDatagrams, w.RxDatagrams, w.TxErrors, w.SendDrops, w.DecodeDrops)
	return writeJSON(o, e)
}

func runReceiverMode(o *options) error {
	e, err := openEndpoint(o, "receiver")
	if err != nil {
		return err
	}
	defer e.mux.Close()
	quit := signalChan()
	if o.duration > 0 {
		select {
		case <-quit:
		case <-time.After(o.duration):
		}
	} else {
		<-quit
	}
	e.mux.Close()
	a, w := e.Flow, e.Wire.Counters()
	fmt.Printf("app: rx=%d flows=%d lost=%d dup=%d ooo=%d gaps=%d | wire: tx=%d rx=%d dropped=%d tx_errs=%d decode_drops=%d\n",
		a.Rx, a.Flows(), a.Lost, a.Duplicate, a.OutOfSeq, a.Gaps,
		w.TxDatagrams, w.RxDatagrams, e.IngressDrops(), w.TxErrors, w.DecodeDrops)
	if err := writeJSON(o, e); err != nil {
		return err
	}
	if o.strict {
		if err := a.Check(); err != nil {
			return fmt.Errorf("strict: %w", err)
		}
	}
	return nil
}

// writeJSON dumps a closed endpoint's registry under -json.
func writeJSON(o *options, e *endpoint) error {
	if !o.jsonOut {
		return nil
	}
	return e.Reg.Snapshot().WriteJSON(os.Stdout)
}

func main() {
	o := parseFlags()
	var err error
	switch o.mode {
	case "demo":
		err = runDemoMode(o)
	case "sender":
		err = runSenderMode(o)
	case "receiver":
		err = runReceiverMode(o)
	default:
		err = fmt.Errorf("unknown -mode %q (want demo, sender or receiver)", o.mode)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "lglive: %v\n", err)
		os.Exit(1)
	}
}
