package main

import (
	"fmt"
	"io"
	"time"

	"linkguardian/internal/core"
	"linkguardian/internal/experiments"
	"linkguardian/internal/parallel"
	"linkguardian/internal/simtime"
	"linkguardian/internal/transport"
)

// fctConfig is one (transport, flow size, protection) cell of a slice.
type fctConfig struct {
	flow string // names the transport and flow size in metric names
	key  string // flow plus protection
	tr   experiments.Transport
	size int
	prot experiments.Protection
}

// The cells of one sim_fct slice: the paper's two modal flow sizes, each
// on a corrupting link without and with LinkGuardian.
var fctConfigs = []fctConfig{
	{"dctcp143", "dctcp143.loss", experiments.TransDCTCP, 143, experiments.LossOnly},
	{"dctcp143", "dctcp143.lg", experiments.TransDCTCP, 143, experiments.LG},
	{"rdma24k", "rdma24k.loss", experiments.TransRDMA, 24387, experiments.LossOnly},
	{"rdma24k", "rdma24k.lg", experiments.TransRDMA, 24387, experiments.LG},
}

const fctLossRate = 1e-3

// fctCell is what one RunFCT call leaves behind: enough for the digest
// and the per-layer metrics without keeping every flow.
type fctCell struct {
	trials           int
	p50, p99, p999   float64 // simulated µs
	retransmits, rto int
}

type fctFamily struct {
	seed   int64
	trials int // per cell
	warm   int // trials per cell in the warm-up

	cells     [][]fctCell // [slice][config]
	requested int
	hostNs    map[string]float64 // host time inside RunFCT, by flow
	flows     map[string]int     // completed trials, by flow
}

func newFCTFamily(smoke bool) *fctFamily {
	f := &fctFamily{trials: 2500, warm: 1000}
	if smoke {
		f.trials, f.warm = 250, 50
	}
	return f
}

func (f *fctFamily) opts(size, trials int, seed int64) experiments.FCTOpts {
	o := experiments.DefaultFCTOpts(size)
	o.Trials, o.LossRate, o.Seed = trials, fctLossRate, seed
	return o
}

func (f *fctFamily) setup(seed int64, tr *tracer) {
	*f = fctFamily{seed: seed, trials: f.trials, warm: f.warm,
		hostNs: map[string]float64{}, flows: map[string]int{}}
	tr.span("warmup", func() {
		for _, c := range fctConfigs {
			experiments.RunFCT(c.tr, c.prot, f.opts(c.size, f.warm, seed))
		}
	})
}

func (f *fctFamily) slice(i int, tr *tracer) float64 {
	seed := parallel.SeedFor(f.seed, i)
	cells := make([]fctCell, len(fctConfigs))
	done := 0
	for ci, c := range fctConfigs {
		var res experiments.FCTResult
		t0 := time.Now()
		tr.span("RunFCT:"+c.key, func() { res = experiments.RunFCT(c.tr, c.prot, f.opts(c.size, f.trials, seed)) })
		f.hostNs[c.flow] += float64(time.Since(t0))
		f.flows[c.flow] += res.Trials
		cell := fctCell{trials: res.Trials, p50: res.P(50), p99: res.P(99), p999: res.P(99.9)}
		for _, st := range res.Flows {
			cell.retransmits += st.Retransmits
			cell.rto += st.RTOs
		}
		cells[ci] = cell
		done += res.Trials
		f.requested += f.trials
	}
	f.cells = append(f.cells, cells)
	return float64(done)
}

// verify counts trials that did not complete, and holds LinkGuardian to
// its purpose: a protected flow never waits for a retransmission timeout.
func (f *fctFamily) verify() verdict {
	v := verdict{attempted: uint64(f.requested)}
	for si, cells := range f.cells {
		for ci, cell := range cells {
			if miss := f.trials - cell.trials; miss > 0 {
				v.failed += uint64(miss)
				v.errorf("slice %d %s: %d of %d trials did not complete", si, fctConfigs[ci].key, miss, f.trials)
			}
			if fctConfigs[ci].prot == experiments.LG && cell.rto > 0 {
				v.failed += uint64(cell.rto)
				v.errorf("slice %d %s: %d timeouts on a protected link", si, fctConfigs[ci].key, cell.rto)
			}
		}
	}
	return v
}

func (f *fctFamily) digest(w io.Writer) {
	for si, cells := range f.cells {
		for ci, c := range cells {
			fmt.Fprintf(w, "%d %s trials=%d p50=%g p99=%g p99.9=%g retx=%d rto=%d\n",
				si, fctConfigs[ci].key, c.trials, c.p50, c.p99, c.p999, c.retransmits, c.rto)
		}
	}
}

func (f *fctFamily) layers(r *run) {
	for flow, ns := range f.hostNs {
		r.set("transport.ns_per_flow."+flow, ns/float64(f.flows[flow]))
	}
	var retx, rto int
	for ci, c := range fctConfigs {
		p999 := make([]float64, len(f.cells))
		for si, cells := range f.cells {
			p999[si] = cells[ci].p999
			retx += cells[ci].retransmits
			rto += cells[ci].rto
		}
		r.set("transport.fct_p999_us."+c.key, median(p999))
	}
	r.set("transport.retransmits", float64(retx))
	r.set("transport.rtos", float64(rto))

	// RunFCT does not expose its simulator, so events per flow come from
	// the same trial loop run here on one testbed per cell.
	var events, flows uint64
	depth := 0
	r.leg("transport.events", func() {
		for _, c := range fctConfigs {
			e, n, d := fctEvents(c, f.opts(c.size, f.warm, f.seed))
			events += e
			flows += n
			depth = max(depth, d)
		}
	})
	r.set("transport.events_per_flow", float64(events)/float64(flows))
	r.leg("eventq", func() { eventqLeg(r, depth) })
}

// fctEvents runs o.Trials sequential flows of one cell on a fresh testbed
// and returns the events fired, the flows completed and the deepest the
// event queue was seen between flows.
func fctEvents(c fctConfig, o experiments.FCTOpts) (events, flows uint64, depth int) {
	tb := experiments.NewTestbed(o.Seed, o.Rate, core.NewConfig(o.Rate, o.LossRate))
	tb.SetLoss(o.LossRate)
	if c.prot == experiments.LG {
		tb.LG.Enable()
	}
	var launch func()
	done := func(transport.FlowStats) {
		flows++
		depth = max(depth, tb.Sim.Q.Len())
		if int(flows) < o.Trials {
			tb.Sim.After(o.Gap, launch)
		}
	}
	launch = func() {
		id := int(flows) + 1
		if c.tr == experiments.TransRDMA {
			transport.StartRDMAWrite(tb.Sim, tb.EP1, tb.EP2, id, o.FlowSize, transport.DefaultRDMAOpts(), done)
		} else {
			transport.StartTCPFlow(tb.Sim, tb.EP1, tb.EP2, id, o.FlowSize, transport.DefaultTCPOpts(transport.DCTCP), done)
		}
	}
	launch()
	// A flow that loses every copy of a segment waits for its 1 ms RTO, so
	// a budget of 50 ms per flow is never reached by a run that progresses.
	deadline := tb.Sim.Now().Add(simtime.Duration(o.Trials) * 50 * simtime.Millisecond)
	for int(flows) < o.Trials && tb.Sim.Now().Before(deadline) {
		tb.Sim.RunFor(2 * simtime.Millisecond)
	}
	return tb.Sim.Q.Fired(), flows, depth
}
