package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"linkguardian/internal/core"
	"linkguardian/internal/eventq"
	"linkguardian/internal/simnet"
	"linkguardian/internal/transport"
)

// replayRun is everything a chain of FCT flows leaves behind that the
// control-stream replay could disturb.
type replayRun struct {
	Flows     []transport.FlowStats
	Metrics   core.Metrics
	Ports     [2][3]uint64 // TxFrames, TxBytes, BusyTime of A's and B's port
	Ifcs      [2]simnet.Counters
	Events    uint64 // Fired + Replayed
	Replayed  uint64
	NextPktID uint64
	NextDraw  int64
	NextSeq   eventq.Ticket // the next tie-break number, at the run's end
	Fcts      []float64
}

// runReplayChain runs opts.Trials back-to-back flows of one cell and
// snapshots the run. With tap set, a no-op delivery tap on the protected
// link makes it ineligible for the replay, so every control frame fires
// its events.
func runReplayChain(tr Transport, prot Protection, cfg core.Config, opts FCTOpts, tap bool) replayRun {
	tb := NewTestbed(opts.Seed, opts.Rate, cfg)
	if tap {
		tb.Link.TapDeliver(func(*simnet.Packet, *simnet.Ifc, bool) {})
	}
	c := startChain(tb, prot, opts, transportFlows(tr, opts))
	runChains(tb.Sim.RunFor, opts, c)
	tb.LG.Settle()
	r := replayRun{Flows: c.flows, Metrics: tb.LG.M, Fcts: c.fcts,
		Events: tb.Sim.Q.Fired() + tb.Sim.Q.Replayed(), Replayed: tb.Sim.Q.Replayed()}
	for i, ifc := range []*simnet.Ifc{tb.Link.A(), tb.Link.B()} {
		p := ifc.Port
		r.Ports[i] = [3]uint64{p.TxFrames, p.TxBytes, uint64(p.BusyTime)}
		r.Ifcs[i] = ifc.In
	}
	pkt := tb.Sim.NewPacket(simnet.KindData, 64, "")
	r.NextPktID = pkt.ID
	tb.Sim.Release(pkt)
	r.NextDraw = tb.Sim.Rng.Int63()
	r.NextSeq = tb.Sim.TicketAt(tb.Sim.Now())
	return r
}

// TestControlReplayMatchesEventPath runs FCT chains with the control
// streams replayed in closed form and again with every control frame on
// the event path, and requires the two runs to agree on everything they
// leave behind: per-flow FCTs and statistics, the instance's metrics, the
// protected link's port and MAC counters, the event count, the next packet
// ID, the next tie-break number and the next RNG draw.
func TestControlReplayMatchesEventPath(t *testing.T) {
	type cell struct {
		tr    Transport
		size  int
		prot  Protection
		burst float64
		tail  bool
	}
	var cells []cell
	for _, tr := range []struct {
		tr   Transport
		size int
	}{{TransDCTCP, 143}, {TransRDMA, 24387}} {
		for _, prot := range []Protection{LG, LGNB} {
			for _, burst := range []float64{0, 4} {
				cells = append(cells, cell{tr.tr, tr.size, prot, burst, true})
			}
		}
	}
	// The ACK stream alone.
	cells = append(cells, cell{TransDCTCP, 143, LG, 0, false})
	for _, c := range cells {
		name := fmt.Sprintf("%v/%d/%v/burst%g/tail=%v", c.tr, c.size, c.prot, c.burst, c.tail)
		t.Run(name, func(t *testing.T) {
			opts := DefaultFCTOpts(c.size)
			opts.Trials, opts.LossRate, opts.MeanBurst, opts.Seed = fctBlockSize, 1e-2, c.burst, 11
			cfg := fctConfig(c.prot, opts)
			cfg.TailLossDetection = c.tail
			got := runReplayChain(c.tr, c.prot, cfg, opts, false)
			want := runReplayChain(c.tr, c.prot, cfg, opts, true)
			if want.Replayed != 0 {
				t.Fatalf("tapped run replayed %d events", want.Replayed)
			}
			if got.Replayed == 0 || got.Metrics.LossEvents == 0 {
				t.Fatalf("untapped run replayed %d events over %d loss events; want both", got.Replayed, got.Metrics.LossEvents)
			}
			if len(got.Fcts) != opts.Trials {
				t.Fatalf("%d of %d flows completed", len(got.Fcts), opts.Trials)
			}
			got.Replayed = 0
			gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
			for i := range gv.NumField() {
				if g, w := gv.Field(i).Interface(), wv.Field(i).Interface(); !reflect.DeepEqual(g, w) {
					t.Errorf("%s differs from the event path:\n got %+v\nwant %+v", gv.Type().Field(i).Name, g, w)
				}
			}
		})
	}
}
