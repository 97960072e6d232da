// Command lgsim runs a single-link LinkGuardian experiment on the simulated
// testbed of Figure 7 and reports effective loss rate, effective link
// speed, buffer usage and recovery statistics.
//
// Usage:
//
//	lgsim [-rate 100G] [-loss 1e-3] [-mode ordered|nb] [-duration 20ms]
//	      [-frame 1518] [-target 1e-8] [-seed 1]
//	      [-segments 1]
//	      [-trace out.json] [-trace-cap 4096] [-metrics-out metrics.json]
//	      [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -trace writes the protected link's trace ring: a ".jsonl" path gets one
// JSON object per line; any other extension gets the Chrome trace_event
// format that Perfetto loads directly.
//
// -segments > 1 runs the multi-segment fabric — N copies of the testbed
// joined in a ring of cross-shard links — on the sharded conservative
// engine, executing up to one shard per core concurrently. Results are
// identical at any core count; only wall time changes. -mode and -target
// configure every segment; -trace applies to a single link only.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"linkguardian/internal/core"
	"linkguardian/internal/experiments"
	"linkguardian/internal/obs"
	"linkguardian/internal/simtime"
)

func main() {
	rateStr := flag.String("rate", "100G", "link speed: 10G, 25G, 40G, 50G or 100G")
	loss := flag.Float64("loss", 1e-3, "corruption loss rate on the protected direction")
	modeStr := flag.String("mode", "ordered", "ordered (LinkGuardian) or nb (LinkGuardianNB)")
	duration := flag.Duration("duration", 20*time.Millisecond, "simulated measurement window")
	frame := flag.Int("frame", 1518, "stress-test frame size in bytes")
	target := flag.Float64("target", 1e-8, "operator target loss rate (Equation 2)")
	seed := flag.Int64("seed", 1, "simulation seed")
	tracePath := flag.String("trace", "", "write the protected link's trace (.jsonl = JSONL, else Chrome trace_event)")
	traceCap := flag.Int("trace-cap", 4096, "trace ring capacity (most recent events kept)")
	metricsOut := flag.String("metrics-out", "", "write the run's metrics snapshot as JSON")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile")
	memprofile := flag.String("memprofile", "", "write a heap profile")
	segments := flag.Int("segments", 1, "fabric segments (>1 runs the multi-segment fabric on the sharded engine)")
	flag.Parse()

	rate, err := parseRate(*rateStr)
	if err != nil {
		log.Fatal(err)
	}
	mode, ok := map[string]core.Mode{"ordered": core.Ordered, "nb": core.NonBlocking}[strings.ToLower(*modeStr)]
	if !ok {
		log.Fatalf("unknown -mode %q (want ordered or nb)", *modeStr)
	}
	if *segments > 1 && *tracePath != "" {
		log.Fatal("-trace taps the single protected link; it does not apply with -segments > 1")
	}

	stopProf, err := obs.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		log.Fatal(err)
	}

	opts := experiments.StressOpts{Duration: simtime.Duration(*duration), FrameSize: *frame, Seed: *seed}
	if *tracePath != "" {
		opts.TraceCap = *traceCap
	}

	cfg := core.NewConfig(rate, *loss)
	cfg.Mode = mode
	cfg.TargetLossRate = *target
	if *segments > 1 {
		fres := experiments.RunFabricStress(cfg, rate, *loss, *segments, 0, opts)
		if err := stopProf(); err != nil {
			log.Fatal(err)
		}
		if *metricsOut != "" {
			if err := obs.WriteMetricsFile(*metricsOut, fres.Metrics); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("fabric          : %d segments, %v, loss %.0e\n", *segments, rate, *loss)
		for i := 0; i < fres.Segments; i++ {
			fmt.Printf("segment s%d      : sent %d + cross %d, delivered %d\n",
				i, fres.Sent[i], fres.CrossTx[(i+fres.Segments-1)%fres.Segments], fres.Received[i])
		}
		for i := 0; i < fres.Segments; i++ {
			p := fmt.Sprintf("engine.shard%d", i)
			fmt.Printf("shard %d         : windows %d, stalls %d, handoffs out %d / in %d\n",
				i, fres.Metrics.Counter(p+".windows"), fres.Metrics.Counter(p+".lookahead_stalls"),
				fres.Metrics.Counter(p+".handoffs_out"), fres.Metrics.Counter(p+".handoffs_in"))
		}
		return
	}

	res := experiments.RunStressConfig(cfg, rate, *loss, opts)

	if err := stopProf(); err != nil {
		log.Fatal(err)
	}
	if *tracePath != "" {
		if err := obs.WriteTraceFile(*tracePath, res.Trace); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace           : %d events -> %s\n", len(res.Trace), *tracePath)
	}
	if *metricsOut != "" {
		if err := obs.WriteMetricsFile(*metricsOut, res.Metrics); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("link            : %v, %v mode, loss %.0e (target %.0e)\n", rate, mode, *loss, *target)
	fmt.Printf("retx copies (N) : %d (Equation 2)\n", res.Copies)
	fmt.Printf("packets sent    : %d MTU frames\n", res.PacketsSent)
	fmt.Printf("effective loss  : observed %.3e / analytic %.3e\n", res.EffLossObserved, res.EffLossAnalytic)
	fmt.Printf("effective speed : %.2f%% of line rate\n", res.EffSpeedFrac*100)
	fmt.Printf("loss events     : %d (timeouts: %d)\n", res.LossEvents, res.Timeouts)
	fmt.Printf("tx buffer (KB)  : %s\n", res.TxBuf)
	fmt.Printf("rx buffer (KB)  : %s\n", res.RxBuf)
	fmt.Printf("recirc overhead : tx %.3f%%, rx %.3f%% of pipeline capacity\n", res.RecircTx*100, res.RecircRx*100)
	if res.RetxDelays.N() > 0 {
		fmt.Printf("retx delay (µs) : p50 %.2f, p99 %.2f, max %.2f over %d recoveries\n",
			res.RetxDelays.Percentile(50), res.RetxDelays.Percentile(99), res.RetxDelays.Max(), res.RetxDelays.N())
	}
}

func parseRate(s string) (simtime.Rate, error) {
	for _, r := range []simtime.Rate{simtime.Rate10G, simtime.Rate25G, simtime.Rate40G, simtime.Rate50G, simtime.Rate100G} {
		if strings.EqualFold(s, r.String()) {
			return r, nil
		}
	}
	return 0, fmt.Errorf("unknown rate %q", s)
}
