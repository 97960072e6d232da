package main

import (
	"fmt"
	"io"
	"time"

	"linkguardian/internal/live"
	"linkguardian/internal/parallel"
	"linkguardian/internal/simnet"
	"linkguardian/internal/simtime"
)

// The live workloads run the UDP dataplane over loopback: 4 protected
// links on one shared mux socket per side, 64 flows, 64 B frames (the
// smallest size, where per-packet cost dominates), 10G link rate.
//
// livePPS is an open-loop rate, fixed here and never recalibrated per
// run. On the 2-core calibration sandbox 45k pps drains clean and 60k pps
// never drains, but 30k pps, which takes a whole core, ran away (README,
// Known issues) whenever the sandbox gave the process half its usual
// share. 15k pps takes a third of the one processor a child runs on and
// survives that. Below saturation the honest cost is processor time per
// packet, not throughput.
const (
	liveLinks   = 4
	liveFlows   = 64
	liveFrame   = 64
	livePPS     = 15000
	liveIdlePPS = 100

	// liveSettle is how long delivery may stand still before a run counts
	// as not drained. The default of 500 ms is within reach of a stall of
	// the sandbox itself; a run that drains never waits for it.
	liveSettle = 2 * time.Second

	// liveMaxLagShare voids a slice's latency: latency is stamped at the
	// actual send, so a generator that ran late hides queueing delay.
	liveMaxLagShare = 0.05

	latencyHist = "live.flow.latency_seconds"
)

// liveRun is one RunMulti call's outcome.
type liveRun struct {
	rep    *live.MultiReport
	err    error
	count  uint64
	bounds []float64 // delivery-latency histogram merged over links
	counts []uint64
}

// check is the run's strict verdict: it ran, drained, and delivered every
// offered packet exactly once, in order, on every link.
func (lr *liveRun) check() error {
	if lr.err != nil {
		return lr.err
	}
	return lr.rep.Check()
}

func (lr *liveRun) lag() float64 {
	return lr.rep.Elapsed.Seconds() - float64(lr.count)/livePPS
}

// runLive offers count packets at pps over the standard topology.
func runLive(seed int64, loss float64, count uint64, pps float64, tr *tracer) *liveRun {
	lr := &liveRun{count: count}
	var receivers []*live.Endpoint
	cfg := live.MultiConfig{
		Seed: seed, Links: liveLinks, Flows: liveFlows, Count: count, Size: liveFrame,
		PPS: pps, LossRate: loss, LinkRate: simtime.Rate10G, Settle: liveSettle,
		OnStart: func(_, r []*live.Endpoint) { receivers = r },
	}
	tr.span("RunMulti", func() { lr.rep, lr.err = live.RunMulti(cfg) })
	// RunMulti has stopped every loop, so the registries are quiescent.
	for _, ep := range receivers {
		for _, h := range ep.Reg.Snapshot().Histograms {
			if h.Name != latencyHist {
				continue
			}
			if lr.counts == nil {
				lr.bounds, lr.counts = h.Bounds, make([]uint64, len(h.Counts))
			}
			for i, c := range h.Counts {
				lr.counts[i] += c
			}
		}
	}
	return lr
}

type liveFamily struct {
	loss  float64
	seed  int64
	count uint64 // packets per slice
	warm  uint64 // packets in the warm-up run
	idle  uint64 // packets in the idle leg

	runs    []*liveRun // the run that counts, per slice
	retried int        // slices whose first run failed its check
}

func newLiveFamily(loss float64, smoke bool) *liveFamily {
	f := &liveFamily{loss: loss, count: 2 * livePPS, warm: livePPS / 5, idle: 3 * liveIdlePPS}
	if smoke {
		f.count, f.warm, f.idle = livePPS/10, livePPS/100, liveIdlePPS/10
	}
	return f
}

func (f *liveFamily) setup(seed int64, tr *tracer) {
	f.seed, f.runs, f.retried = seed, nil, 0
	// The warm-up run pays for socket, proxy and loop bring-up and the
	// runtime's first growth; its packets are discarded.
	tr.span("warmup", func() { runLive(seed, f.loss, f.warm, livePPS, nil) })
}

// slice is one RunMulti. The protocol's recovery timeouts are wall-clock,
// and the calibration sandbox now and then stalls a process for longer
// than they last (README, Known issues), so a run that fails its check is
// repeated once with the same inputs; only a second failure fails the
// slice. Retries are counted and reported.
func (f *liveFamily) slice(i int, tr *tracer) float64 {
	seed := parallel.SeedFor(f.seed, i)
	lr := runLive(seed, f.loss, f.count, livePPS, tr)
	if err := lr.check(); err != nil {
		fmt.Fprintf(logw, "live slice %d failed, retrying once: %v\n", i, err)
		f.retried++
		lr = runLive(seed, f.loss, f.count, livePPS, tr)
	}
	f.runs = append(f.runs, lr)
	if lr.err != nil {
		return 1 // verify reports the error; the slice still counts as run
	}
	return float64(max(lr.rep.Delivered, 1))
}

// verify holds every run to MultiReport.Check: all offered packets
// delivered exactly once, in order, on every link, and the run drained.
func (f *liveFamily) verify() verdict {
	var v verdict
	for i, lr := range f.runs {
		v.attempted += lr.count
		err := lr.check()
		switch {
		case err == nil:
			continue
		case lr.err != nil || !lr.rep.Drained:
			v.failed += lr.count
		default:
			v.failed += max(lr.rep.Lost+lr.rep.Duplicate+lr.rep.OutOfSeq, 1)
		}
		v.errorf("slice %d: %v", i, err)
	}
	return v
}

// digest is empty: a live run depends on host timing, so nothing in it
// repeats exactly.
func (f *liveFamily) digest(io.Writer) {}

func (f *liveFamily) layers(r *run) {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	r.set("live.cpu_user_us_per_pkt", median(mapSamples(r.samples, func(s sample) float64 { return us(s.user) / s.units })))
	r.set("live.cpu_sys_us_per_pkt", median(mapSamples(r.samples, func(s sample) float64 { return us(s.sys) / s.units })))

	var ok []*liveRun
	var lags []float64
	for _, lr := range f.runs {
		if lr.err == nil {
			ok = append(ok, lr)
			lags = append(lags, lr.lag())
		}
	}
	r.set("live.loadgen_lag_s", median(lags))
	r.set("live.retried_slices", float64(f.retried))

	// Latency quantiles are interpolated inside the histogram's log-1.5
	// buckets, over the runs whose generator kept its schedule.
	var bounds []float64
	var counts []uint64
	for _, lr := range ok {
		if lr.counts == nil || lr.lag() > liveMaxLagShare*float64(lr.count)/livePPS {
			continue
		}
		if counts == nil {
			bounds, counts = lr.bounds, make([]uint64, len(lr.counts))
		}
		for i, c := range lr.counts {
			counts[i] += c
		}
	}
	for _, q := range []struct {
		name string
		q    float64
	}{{"live_latency_p50_us", 0.5}, {"live_latency_p99_us", 0.99}, {"live.latency_p999_us", 0.999}} {
		r.set(q.name, histQuantile(bounds, counts, q.q)*1e6)
	}

	var app, sendDrops, decodeDrops, dropped, masked float64
	var mux live.MuxStats
	for _, lr := range ok {
		for _, m := range []live.MuxStats{lr.rep.SenderMux, lr.rep.ReceiverMux} {
			mux.TxBatches += m.TxBatches
			mux.TxDatagrams += m.TxDatagrams
			mux.RxBatches += m.RxBatches
			mux.RxDatagrams += m.RxDatagrams
			mux.PartialSends += m.PartialSends
			mux.ArenaFrames = max(mux.ArenaFrames, m.ArenaFrames)
		}
		for _, l := range lr.rep.Links {
			sendDrops += float64(l.SenderWire.SendDrops + l.ReceiverWire.SendDrops)
			decodeDrops += float64(l.SenderWire.DecodeDrops + l.ReceiverWire.DecodeDrops)
			dropped += float64(l.ProxyDropped)
		}
		masked += float64(lr.rep.Masked)
		app += float64(lr.rep.Delivered)
	}
	tx, rx := float64(mux.TxDatagrams), float64(mux.RxDatagrams)
	r.set("live.mux.tx_datagrams_per_batch", tx/float64(mux.TxBatches))
	r.set("live.mux.rx_datagrams_per_batch", rx/float64(mux.RxBatches))
	r.set("live.mux.partial_sends", float64(mux.PartialSends))
	r.set("live.mux.arena_frames", float64(mux.ArenaFrames))
	r.set("live.wire.overhead_ratio", tx/app)
	r.set("live.wire.send_drops", sendDrops)
	r.set("live.wire.decode_drops", decodeDrops)
	r.set("live.proxy.dropped", dropped)
	r.set("live.proxy.masked_share", 1)
	if dropped > 0 {
		r.set("live.proxy.masked_share", masked/dropped)
	}

	// The idle leg: at 100 pps the links carry next to nothing, so what
	// the process burns is the fixed cost of timers, ACKs and dummies.
	r.leg("live.idle", func() {
		u0, s0 := cpuTimes()
		lr := runLive(f.seed, 0, f.idle, liveIdlePPS, r.tr)
		u1, s1 := cpuTimes()
		if lr.err == nil {
			r.set("live.idle_cpu_us_per_link_s", us(u1-u0+s1-s0)/(liveLinks*lr.rep.Elapsed.Seconds()))
		}
	})
	r.leg("simnet.codec", func() { codecLeg(r) })
}

// codecLeg times the wire codec alone on a data frame with an LG header,
// at the smallest and the largest frame size.
func codecLeg(r *run) {
	const n = 1 << 18
	for _, size := range []int{64, 1500} {
		p := &simnet.Packet{Kind: simnet.KindData, Size: size}
		p.LG.Present = true
		payload := make([]byte, size)
		buf := make([]byte, 0, simnet.MaxLinkDatagramBytes)
		var err error

		t0 := time.Now()
		for i := 0; i < n && err == nil; i++ {
			buf, err = simnet.AppendLinkDatagram(buf[:0], 3, p, payload)
		}
		enc := float64(time.Since(t0)) / n

		var q simnet.Packet
		t0 = time.Now()
		for i := 0; i < n && err == nil; i++ {
			var inner []byte
			if _, inner, err = simnet.SplitLinkDatagram(buf); err == nil {
				_, err = simnet.DecodeLGDatagram(inner, &q)
			}
		}
		dec := float64(time.Since(t0)) / n
		if err != nil {
			fmt.Fprintf(logw, "codec leg at %d B: %v\n", size, err)
			continue
		}
		r.set(fmt.Sprintf("simnet.codec_encode_ns.%d", size), enc)
		r.set(fmt.Sprintf("simnet.codec_decode_ns.%d", size), dec)
	}
}
