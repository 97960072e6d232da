package experiments

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"linkguardian/internal/core"
	"linkguardian/internal/obs"
	"linkguardian/internal/simnet"
	"linkguardian/internal/simtime"
)

// The reorder-buffer golden pins the ordered receiver's exact behavior: for
// every cell it records a hash of the forwarded stream — (time, seqNo, era,
// retx) of each packet leaving the reordering buffer — and every protocol
// counter after the link has drained. Any change to when a held packet is
// re-examined, in what order same-instant events run, or how loops are
// counted shows up here. Rerun with -update only for an intended behavior
// change.

const (
	rbTraffic = 3 * simtime.Millisecond // offered load stops here
	rbDrain   = 6 * simtime.Millisecond // counters are read here
	rbLoad    = 0.95
)

// rbInjector paces frames of a cycling size list onto an egress interface at
// a fraction of line rate, like the switch packet generator but with mixed
// frame sizes.
type rbInjector struct {
	sim   *simnet.Sim
	ifc   *simnet.Ifc
	dst   string
	rate  simtime.Rate
	sizes []int
	n     int
}

func (in *rbInjector) tick() {
	if in.sim.Now() >= simtime.Time(rbTraffic) {
		return
	}
	size := in.sizes[in.n%len(in.sizes)]
	in.n++
	p := in.sim.NewPacket(simnet.KindData, size, in.dst)
	p.FlowID = in.n
	in.ifc.Send(p)
	gap := simtime.Duration(float64(in.rate.Serialize(simtime.WireBytes(size))) / rbLoad)
	in.sim.After(gap, in.tick)
}

type rbCell struct {
	name  string
	rate  simtime.Rate
	loss  func() simnet.LossModel
	sizes []int
	// build installs the instances under test on the testbed (nil: the
	// testbed's own Ordered instance) and schedules any mid-run actions.
	build func(tb *Testbed, cfg core.Config) []*core.Instance
}

var (
	rbMTU = []int{1500}
	rbMix = []int{64, 1500, 9000, 1500, 64, 1500, 1500, 64}
)

func rbCells() []rbCell {
	iid := func(p float64) func() simnet.LossModel {
		return func() simnet.LossModel { return simnet.IIDLoss{P: p} }
	}
	ge := func() simnet.LossModel { return simnet.NewGilbertElliott(1e-2, 4) }
	var cells []rbCell
	for _, rate := range []simtime.Rate{simtime.Rate25G, simtime.Rate100G} {
		for _, l := range []struct {
			name string
			fn   func() simnet.LossModel
		}{{"iid1e-3", iid(1e-3)}, {"iid1e-2", iid(1e-2)}, {"ge1e-2b4", ge}} {
			for _, s := range []struct {
				name  string
				sizes []int
			}{{"mtu", rbMTU}, {"mix", rbMix}} {
				cells = append(cells, rbCell{
					name: fmt.Sprintf("%v/%s/%s", rate, l.name, s.name), rate: rate, loss: l.fn, sizes: s.sizes,
				})
			}
		}
	}
	cells = append(cells,
		rbCell{
			name: "100G/iid1e-2/mtu/setmode-nb-ordered", rate: simtime.Rate100G, loss: iid(1e-2), sizes: rbMTU,
			build: func(tb *Testbed, cfg core.Config) []*core.Instance {
				cfg.Mode = core.NonBlocking
				g := core.Protect(tb.Sim, tb.Link.A(), cfg)
				tb.Sim.At(simtime.Time(simtime.Millisecond), func() { g.SetMode(core.Ordered) })
				tb.Sim.At(simtime.Time(2*simtime.Millisecond), func() { g.SetMode(core.NonBlocking) })
				tb.Sim.At(simtime.Time(2500*simtime.Microsecond), func() { g.SetMode(core.Ordered) })
				return []*core.Instance{g}
			},
		},
		rbCell{
			name: "25G/iid1e-2/mix/disable-enable", rate: simtime.Rate25G, loss: iid(1e-2), sizes: rbMix,
			build: func(tb *Testbed, cfg core.Config) []*core.Instance {
				tb.Sim.At(simtime.Time(simtime.Millisecond), tb.LG.Disable)
				tb.Sim.At(simtime.Time(1200*simtime.Microsecond), tb.LG.Enable)
				return []*core.Instance{tb.LG}
			},
		},
	)
	return cells
}

// rbMetrics renders every Metrics field; the delay sample is reduced to its
// count and sum, since it holds a pointer.
func rbMetrics(m core.Metrics) string {
	var sum simtime.Duration
	for _, d := range m.RetxDelays.Samples() {
		sum += d
	}
	n := m.RetxDelays.N()
	m.RetxDelays = obs.DelaySample{}
	return fmt.Sprintf("%+v retx_delays_n=%d retx_delays_sum=%d", m, n, sum)
}

// runRBCell runs cell c and renders its golden lines. probe, if non-nil,
// sees the testbed and the enabled instances just before the run starts.
func runRBCell(c rbCell, probe func(tb *Testbed, insts []*core.Instance)) string {
	cfg := core.NewConfig(c.rate, 1e-2)
	tb := NewTestbed(1, c.rate, cfg)
	tb.Link.SetLoss(tb.Link.A(), c.loss())
	insts := []*core.Instance{tb.LG}
	if c.build != nil {
		insts = c.build(tb, cfg)
	}
	hashes := make([]uint64, len(insts))
	counts := make([]int, len(insts))
	for i, g := range insts {
		h := fnv.New64a()
		var rec [12]byte
		g.OnForward(func(p *simnet.Packet) {
			binary.LittleEndian.PutUint64(rec[0:], uint64(tb.Sim.Now()))
			binary.LittleEndian.PutUint16(rec[8:], p.LG.Seq.N)
			rec[10] = p.LG.Seq.Era
			rec[11] = 0
			if p.LG.Retx {
				rec[11] = 1
			}
			h.Write(rec[:])
			counts[i]++
			hashes[i] = h.Sum64()
		})
		g.Enable()
	}
	tb.CountReceived()
	tb.Link.A().Port.Q(simnet.PrioNormal).MaxBytes = 256 << 10
	fwd := &rbInjector{sim: tb.Sim, ifc: tb.Link.A(), dst: tb.H2.NodeName(), rate: c.rate, sizes: c.sizes}
	tb.Sim.After(0, fwd.tick)
	if probe != nil {
		probe(tb, insts)
	}
	tb.Sim.Run(simtime.Time(rbDrain))

	var b bytes.Buffer
	fmt.Fprintf(&b, "cell %s\n", c.name)
	for i, g := range insts {
		fmt.Fprintf(&b, "  lg%d forwarded=%d hash=%016x rx_held=%d\n", i, counts[i], hashes[i], g.RxHeldBytes())
		fmt.Fprintf(&b, "  lg%d %s\n", i, rbMetrics(g.M))
	}
	return b.String()
}

func TestReorderBufferGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, c := range rbCells() {
		buf.WriteString(runRBCell(c, nil))
	}
	golden := filepath.Join("testdata", "reorder_buffer.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (generate with: go test ./internal/experiments -run ReorderBufferGolden -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		gl, wl := bytes.Split(buf.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("reorder-buffer golden diverges at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("reorder-buffer golden length changed: %d vs %d lines", len(gl), len(wl))
	}
}
