package bench

// Zero-allocation guardrails for the steady-state per-packet paths. These
// are plain tests, so `go test ./...` (tier 1) catches an allocation
// regression: after warmup, advancing the simulation must not allocate on
// the port→link→receive path, on the loss-notification→Tx-buffer→
// retransmission path, across the sharded engine's cross-shard handoffs,
// nor on the simulated transports' segment, ACK and timer path.

import (
	"fmt"
	"testing"

	"linkguardian/internal/core"
	"linkguardian/internal/experiments"
	"linkguardian/internal/parallel"
	"linkguardian/internal/simnet"
	"linkguardian/internal/simtime"
	"linkguardian/internal/transport"
)

// allocSlice is sized so one measured run carries ~800 packets — large
// enough that any per-packet allocation shows up as hundreds of allocs per
// run, small enough that the test stays fast.
const allocSlice = 100 * simtime.Microsecond

// newRig builds the benchmark's sim rig: one protected 100G link, 1500 B
// frames at 98 % of line rate, core.Ordered, a 256 KiB egress buffer, seed
// 1. It returns the testbed, the count of packets delivered to h2 and the
// running generator.
func newRig(loss float64) (*experiments.Testbed, *uint64, *experiments.Generator) {
	cfg := core.NewConfig(simtime.Rate100G, loss)
	cfg.Mode = core.Ordered
	tb := experiments.NewTestbed(1, simtime.Rate100G, cfg)
	tb.SetLoss(loss)
	tb.LG.Enable()
	rx, _ := tb.CountReceived()
	// A real switch has a finite shared buffer. The generator is PFC-
	// oblivious, so without a cap the paused backlog grows without bound
	// and its growth reads as hot-path allocation.
	tb.Link.A().Port.Q(simnet.PrioNormal).MaxBytes = 256 << 10
	return tb, rx, tb.StartGeneratorAt(1500, 0.98)
}

func measureHotPathAllocs(t *testing.T, loss float64) float64 {
	t.Helper()
	tb, _, gen := newRig(loss)
	defer gen.Stop()
	// Warm up pools, queues and the event heap to their high-water marks.
	for i := 0; i < 4; i++ {
		tb.Sim.RunFor(simtime.Millisecond)
	}
	return testing.AllocsPerRun(20, func() {
		tb.Sim.RunFor(allocSlice)
	})
}

// The clean steady-state path — generator → egress queue → wire → receiver
// → forward → sink — must be allocation-free per packet.
func TestHotPathZeroAllocClean(t *testing.T) {
	if avg := measureHotPathAllocs(t, 0); avg != 0 {
		t.Fatalf("clean hot path allocates: %.2f allocs per %v slice (~800 pkts)", avg, allocSlice)
	}
}

// The recovery path — corruption drop, loss notification, Tx-buffer claim,
// high-priority retransmission, reordering-buffer release — must also be
// allocation-free once pools are warm. At 1e-3 loss each measured slice
// carries ~1 loss event; averaging over 20 runs exercises the full
// machinery. A fraction of an alloc per run is tolerated for rare
// amortized growth (map resizing at a new high-water mark); a per-packet
// or per-loss regression shows up as hundreds.
func TestSenderRetxPathZeroAlloc(t *testing.T) {
	if avg := measureHotPathAllocs(t, 1e-3); avg >= 1 {
		t.Fatalf("lossy hot path allocates: %.2f allocs per %v slice (~800 pkts, ~1 loss)", avg, allocSlice)
	}
}

// TestFabricHotPathZeroAlloc is the same gate for the sharded engine: a
// 4-segment (8-switch) fabric at 1e-3 loss on every protected link, with
// cross-segment traffic crossing a shard boundary every window, so the
// outbox cells, barrier merge and packet materialization are all on the
// measured path. Workers 1 runs the four shards inline on one goroutine,
// workers 4 runs them concurrently; both must be allocation-free per 1 ms
// slice (~30k packets).
func TestFabricHotPathZeroAlloc(t *testing.T) {
	const loss = 1e-3
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			f := experiments.NewSegmented(1, 4, workers, simtime.Rate100G, core.NewConfig(simtime.Rate100G, loss))
			defer f.Eng.Close()
			f.SetLoss(loss)
			f.EnableAll()
			f.CountReceivedAll()
			for _, tb := range f.Segs {
				// Same finite-buffer guard as above; cross traffic adds to
				// the protected queue, so the generators leave headroom.
				tb.Link.A().Port.Q(simnet.PrioNormal).MaxBytes = 256 << 10
				defer tb.StartGeneratorAt(1500, 0.85).Stop()
			}
			stopCross, _ := f.CrossTraffic(1500, 0.1)
			defer stopCross()
			for i := 0; i < 10; i++ {
				f.Eng.RunFor(simtime.Millisecond)
			}
			if avg := testing.AllocsPerRun(5, func() { f.Eng.RunFor(simtime.Millisecond) }); avg != 0 {
				t.Fatalf("fabric hot path allocates: %.2f allocs per 1ms slice at workers=%d", avg, workers)
			}
		})
	}
}

// transportRig is the FCT testbed at 1e-3 loss with LinkGuardian enabled
// and one long flow started by start. It returns the testbed and the
// number of packets the flow's hosts have received so far.
func transportRig(start func(tb *experiments.Testbed)) (*experiments.Testbed, *uint64) {
	cfg := core.NewConfig(simtime.Rate100G, 1e-3)
	tb := experiments.NewTestbed(1, simtime.Rate100G, cfg)
	tb.SetLoss(1e-3)
	tb.LG.Enable()
	var rx uint64
	for _, h := range []*simnet.Host{tb.H1, tb.H2} {
		deliver := h.OnReceive
		h.OnReceive = func(p *simnet.Packet) { rx++; deliver(p) }
	}
	start(tb)
	return tb, &rx
}

// ackSlabAllowance is the one steady-state allocation a long TCP flow may
// still pay: a new chunk of its receiving endpoint's ACK-payload slab every
// 256 ACKs, about 0.004 per packet, amortized over the slice. A
// per-packet allocation reads as 1 or more.
const ackSlabAllowance = 0.05

// TestTransportPacketPathZeroAlloc extends the hot-path gate to the
// simulated transports: a long RDMA write and a long DCTCP flow cross the
// LinkGuardian-protected testbed at 1e-3 loss. Once the flow is in steady
// state, its data segments, ACKs, timers and released packets must cost
// nothing per packet: the RDMA write allocates nothing at all, and DCTCP
// only its amortized ACK slab, at most ackSlabAllowance per packet.
func TestTransportPacketPathZeroAlloc(t *testing.T) {
	const size = 128 << 20 // ~11 ms at line rate: never completes inside the measured window
	for _, c := range []struct {
		name      string
		start     func(tb *experiments.Testbed)
		allowance float64 // allocations per packet
	}{
		{"rdma", func(tb *experiments.Testbed) {
			transport.StartRDMAWrite(tb.Sim, tb.EP1, tb.EP2, 1, size, transport.DefaultRDMAOpts(), nil)
		}, 0},
		{"dctcp", func(tb *experiments.Testbed) {
			transport.StartTCPFlow(tb.Sim, tb.EP1, tb.EP2, 1, size, transport.DefaultTCPOpts(transport.DCTCP), nil)
		}, ackSlabAllowance},
	} {
		t.Run(c.name, func(t *testing.T) {
			tb, rx := transportRig(c.start)
			for i := 0; i < 4; i++ {
				tb.Sim.RunFor(simtime.Millisecond)
			}
			const runs = 20
			before := *rx
			avg := testing.AllocsPerRun(runs, func() { tb.Sim.RunFor(allocSlice) })
			pkts := float64(*rx-before) / (runs + 1) // AllocsPerRun adds a warm-up run
			if pkts < 100 {
				t.Fatalf("flow stalled: %.0f packets per %v slice", pkts, allocSlice)
			}
			if avg/pkts > c.allowance {
				t.Fatalf("%s packet path allocates: %.2f allocs per %v slice of %.0f packets (%.4f per packet, allowance %.2f)",
					c.name, avg, allocSlice, pkts, avg/pkts, c.allowance)
			}
		})
	}
}

// fctAllocBudget caps allocations per completed flow in the sim_fct cells:
// the flow's own state (endpoint conns, per-flow payload tables, the
// congestion controller) plus the testbed amortized over its block.
const fctAllocBudget = 10

// TestFCTAllocsPerFlow holds the four sim_fct cells — 143 B DCTCP and
// 24,387 B RDMA flows at 1e-3 loss, without and with LinkGuardian — to
// fctAllocBudget allocations per flow at one worker.
func TestFCTAllocsPerFlow(t *testing.T) {
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(0)
	const trials = 500
	for _, c := range []struct {
		tr   experiments.Transport
		size int
		prot experiments.Protection
	}{
		{experiments.TransDCTCP, 143, experiments.LossOnly},
		{experiments.TransDCTCP, 143, experiments.LG},
		{experiments.TransRDMA, 24387, experiments.LossOnly},
		{experiments.TransRDMA, 24387, experiments.LG},
	} {
		opts := experiments.DefaultFCTOpts(c.size)
		opts.Trials = trials
		var res experiments.FCTResult
		avg := testing.AllocsPerRun(1, func() { res = experiments.RunFCT(c.tr, c.prot, opts) })
		if res.Trials != trials {
			t.Fatalf("%v/%v: %d of %d trials completed", c.tr, c.prot, res.Trials, trials)
		}
		if perFlow := avg / trials; perFlow > fctAllocBudget {
			t.Errorf("%v/%v/%d: %.1f allocs per flow, budget %d", c.tr, c.prot, c.size, perFlow, fctAllocBudget)
		}
	}
}
