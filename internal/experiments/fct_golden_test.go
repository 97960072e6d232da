package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// The FCT-cells golden pins the transports' exact per-flow behavior over
// the testbed: for every (transport, protection, flow size, loss process)
// cell it records each flow's completion time in ns, its recovery counters,
// the Figure 13 SACK/cwnd features and the segments the corrupting link
// dropped. A change
// to when a segment, ACK or timer fires, or to which packet the loss model
// hits, shows up here. Rerun with -update only for an intended behavior
// change.

const (
	fctGoldenTrials = 30
	fctGoldenLoss   = 1e-2 // high enough that a few dozen trials see losses
)

// fctGoldenCell runs one cell; burst > 0 replaces i.i.d. loss with a
// Gilbert–Elliott chain of that mean burst length, whose multi-segment
// holes reach the tail-probe and selective-repeat NAK paths.
func fctGoldenCell(tr Transport, prot Protection, size int, burst float64) string {
	opts := DefaultFCTOpts(size)
	opts.Trials, opts.LossRate, opts.MeanBurst = fctGoldenTrials, fctGoldenLoss, burst
	res := RunFCT(tr, prot, opts)
	var b bytes.Buffer
	fmt.Fprintf(&b, "cell %v/%v/%d/burst%g trials=%d\n", tr, prot, size, burst, res.Trials)
	for i, st := range res.Flows {
		var dropped []int
		if i < len(res.DroppedSegs) {
			dropped = res.DroppedSegs[i]
		}
		fmt.Fprintf(&b, "  %d fct=%d retx=%d rto=%d tlp=%d sacked=%t max_sacked=%d reduced=%t while_pending=%t pending=%d dropped=%v\n",
			i, st.FCT, st.Retransmits, st.RTOs, st.TLPs, st.EverSACKed, st.MaxSackedBytes,
			st.CwndReduced, st.ReducedWhilePending, st.PendingAtReduce, dropped)
	}
	return b.String()
}

func TestFCTCellsGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, tr := range []Transport{TransDCTCP, TransCubic, TransBBR, TransRDMA, TransRDMASR} {
		for _, prot := range []Protection{NoLoss, LossOnly, LG, LGNB} {
			buf.WriteString(fctGoldenCell(tr, prot, 143, 0))
			buf.WriteString(fctGoldenCell(tr, prot, 24387, 0))
			buf.WriteString(fctGoldenCell(tr, prot, 24387, 4))
		}
	}
	golden := filepath.Join("testdata", "fct_cells.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (generate with: go test ./internal/experiments -run FCTCellsGolden -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		gl, wl := bytes.Split(buf.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("FCT-cells golden diverges at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("FCT-cells golden length changed: %d vs %d lines", len(gl), len(wl))
	}
}
