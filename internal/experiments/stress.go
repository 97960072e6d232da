package experiments

import (
	"fmt"
	"math"

	"linkguardian/internal/core"
	"linkguardian/internal/obs"
	"linkguardian/internal/parallel"
	"linkguardian/internal/simnet"
	"linkguardian/internal/simtime"
	"linkguardian/internal/stats"
)

// StressResult is one cell group of Figures 8/14/19 and Table 4: a
// line-rate MTU stress test of one (link speed, loss rate, mode)
// configuration.
type StressResult struct {
	Rate     simtime.Rate
	LossRate float64
	Mode     core.Mode

	Copies int // N from Equation 2

	// Figure 8.
	EffLossObserved float64 // (sent - delivered) / sent after drain
	EffLossAnalytic float64 // lossRate^(N+1)
	PacketsSent     uint64
	EffSpeedFrac    float64 // delivered rate / line rate during steady state

	// §4.1 "timeouts in practice".
	LossEvents, Timeouts uint64

	// Figure 14 (box summaries of periodic samples).
	TxBuf, RxBuf stats.Summary

	// Table 4 (fraction of pipeline packet capacity).
	RecircTx, RecircRx float64

	// Figure 19 (µs).
	RetxDelays *stats.Dist

	// Metrics is the run's full obs snapshot: protocol counters, port and
	// MAC counters of both protected-link directions, and the retx-delay
	// histogram. Snapshots from a sharded grid merge deterministically in
	// cell order (cmd/paper -metrics-out).
	Metrics obs.Snapshot

	// Trace holds the protected link's trace-ring contents when
	// StressOpts.TraceCap > 0 (the -trace flag of cmd/lgsim and cmd/paper).
	Trace []simnet.TraceEvent
}

// StressOpts scales the experiment.
type StressOpts struct {
	Duration  simtime.Duration // steady-state measurement window
	FrameSize int              // MTU-sized frames (1518B in the paper)
	Seed      int64

	// TraceCap, if positive, taps the protected link with a trace ring of
	// that capacity and returns its contents in StressResult.Trace.
	TraceCap int
}

// DefaultStressOpts runs a 20ms window — scaled down from the paper's
// multi-second runs; the shape metrics converge well before that.
func DefaultStressOpts() StressOpts {
	return StressOpts{Duration: 20 * simtime.Millisecond, FrameSize: 1518, Seed: 1}
}

// RunStress performs the §4.1 stress test for one configuration.
func RunStress(rate simtime.Rate, lossRate float64, mode core.Mode, opts StressOpts) StressResult {
	cfg := core.NewConfig(rate, lossRate)
	cfg.Mode = mode
	return RunStressConfig(cfg, rate, lossRate, opts)
}

// RunStressConfig is RunStress with a caller-supplied LinkGuardian
// configuration, for ablation sweeps.
func RunStressConfig(cfg core.Config, rate simtime.Rate, lossRate float64, opts StressOpts) StressResult {
	mode := cfg.Mode
	tb := NewTestbed(opts.Seed, rate, cfg)
	tb.SetLoss(lossRate)
	rxPkts, rxBytes := tb.CountReceived()
	tb.LG.Enable()

	reg := obs.NewRegistry()
	tb.LG.Register(reg, "lg")
	obs.RegisterLink(reg, "link", tb.Link)
	var tracer *simnet.Tracer
	if opts.TraceCap > 0 {
		tracer = simnet.NewTracer(opts.TraceCap)
		tracer.Tap(tb.Sim, tb.Link)
	}

	gen := tb.StartGenerator(opts.FrameSize)

	// Warm up, then measure delivered rate over the window while sampling
	// buffer occupancy.
	warm := opts.Duration / 10
	tb.Sim.RunFor(warm)
	startBytes := *rxBytes
	startAt := tb.Sim.Now()
	var txSamples, rxSamples []float64
	sampleEvery := opts.Duration / 200
	if sampleEvery <= 0 {
		sampleEvery = simtime.Millisecond / 10
	}
	tb.Sim.Every(sampleEvery, func() bool {
		tb.LG.Settle()
		txSamples = append(txSamples, float64(tb.LG.M.TxBufBytes))
		rxSamples = append(rxSamples, float64(tb.LG.M.RxBufBytes))
		reg.Sample()
		return gen.Sent() > 0 && tb.Sim.Now().Sub(startAt) < opts.Duration
	})
	tb.Sim.RunFor(opts.Duration)
	endBytes := *rxBytes
	elapsed := tb.Sim.Now().Sub(startAt)

	// Stop and drain everything still queued or in recovery.
	gen.Stop()
	tb.Sim.RunFor(opts.Duration/2 + 10*simtime.Millisecond)

	tb.LG.Settle()
	m := &tb.LG.M
	sent := gen.Sent()
	lost := int64(sent) - int64(*rxPkts)
	if lost < 0 {
		lost = 0
	}
	deliveredBits := float64(endBytes-startBytes) * 8
	wireFactor := float64(simtime.WireBytes(opts.FrameSize)) / float64(opts.FrameSize)
	effSpeed := deliveredBits * wireFactor / elapsed.Seconds() / float64(rate)

	retained := m.RetxDelays.Samples()
	delays := make([]float64, len(retained))
	for i, d := range retained {
		delays[i] = d.Seconds() * 1e6
	}
	recTx, recRx := m.RecircOverhead(elapsed+opts.Duration/10, cfg.PipelineCapacityPps)

	reg.Sample()
	var traceEvents []simnet.TraceEvent
	if tracer != nil {
		traceEvents = tracer.Events()
	}

	n := tb.LG.Copies()
	return StressResult{
		Rate:            rate,
		LossRate:        lossRate,
		Mode:            mode,
		Copies:          n,
		EffLossObserved: float64(lost) / float64(sent),
		EffLossAnalytic: math.Pow(lossRate, float64(n+1)),
		PacketsSent:     sent,
		EffSpeedFrac:    effSpeed,
		LossEvents:      m.LossEvents,
		Timeouts:        m.Timeouts,
		TxBuf:           stats.NewDist(txSamples).Summarize(),
		RxBuf:           stats.NewDist(rxSamples).Summarize(),
		RecircTx:        recTx,
		RecircRx:        recRx,
		RetxDelays:      stats.NewDist(delays),
		Metrics:         reg.Snapshot(),
		Trace:           traceEvents,
	}
}

// Figure8 runs the full grid of Figure 8 (and, as byproducts, Figure 14,
// Figure 19 and Table 4): {25G, 100G} x {1e-5, 1e-4, 1e-3} x {LG, LG_NB}.
// Each cell is an independent single-link simulation, so the 12-cell grid
// fans out across the parallel engine and merges in row-major order.
func Figure8(opts StressOpts) []StressResult {
	type cell struct {
		rate simtime.Rate
		loss float64
		mode core.Mode
	}
	var cells []cell
	for _, rate := range []simtime.Rate{simtime.Rate25G, simtime.Rate100G} {
		for _, loss := range []float64{1e-5, 1e-4, 1e-3} {
			for _, mode := range []core.Mode{core.NonBlocking, core.Ordered} {
				cells = append(cells, cell{rate, loss, mode})
			}
		}
	}
	return parallel.Map(len(cells), func(i int) StressResult {
		return RunStress(cells[i].rate, cells[i].loss, cells[i].mode, opts)
	})
}

// String formats the result as a Figure 8 row.
func (r StressResult) String() string {
	return fmt.Sprintf("%4s loss=%.0e %-5s N=%d effLoss(obs)=%.2e effLoss(analytic)=%.2e effSpeed=%5.1f%% timeouts=%d/%d",
		r.Rate, r.LossRate, r.Mode, r.Copies, r.EffLossObserved, r.EffLossAnalytic,
		r.EffSpeedFrac*100, r.Timeouts, r.LossEvents)
}
