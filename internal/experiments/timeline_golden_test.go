package experiments

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"linkguardian/internal/core"
	"linkguardian/internal/simnet"
	"linkguardian/internal/simtime"
)

// The protocol-timeline golden pins what the reorder-buffer golden cannot
// see: the sender's Tx-buffer state and the ACK stream at every instant,
// not only after the drain. For every reorder-buffer cell it hashes
//   - each instance's OutstandingTx(), M.TxBufBytes and M.SenderLoops,
//     sampled every rbSample, and
//   - every LGAck header delivered over the link (time, direction,
//     LatestRx, validity, corruption verdict).
// A Tx-buffer entry retired or an ACK view raised even one event early or
// late changes a hash. Rerun with -update only for an intended behavior
// change.

const rbSample = 100 * simtime.Nanosecond

// timelineHash folds little-endian words into an FNV-1a hash.
type timelineHash struct {
	h hash.Hash64
	n int
}

func (t *timelineHash) words(ws ...uint64) {
	var b [8]byte
	for _, w := range ws {
		binary.LittleEndian.PutUint64(b[:], w)
		t.h.Write(b[:])
	}
	t.n++
}

func runTimelineCell(c rbCell) string {
	var txs []*timelineHash
	acks := &timelineHash{h: fnv.New64a()}
	runRBCell(c, func(tb *Testbed, insts []*core.Instance) {
		for range insts {
			txs = append(txs, &timelineHash{h: fnv.New64a()})
		}
		tb.Sim.Every(rbSample, func() bool {
			for i, g := range insts {
				g.Settle()
				txs[i].words(uint64(g.OutstandingTx()), uint64(g.M.TxBufBytes), g.M.SenderLoops)
			}
			return tb.Sim.Now() < simtime.Time(rbDrain)
		})
		a := tb.Link.A()
		tb.Link.TapDeliver(func(p *simnet.Packet, from *simnet.Ifc, corrupted bool) {
			if !p.LGAck.Present {
				return
			}
			flags := uint64(0)
			if from == a {
				flags |= 1
			}
			if p.LGAck.Valid {
				flags |= 2
			}
			if corrupted {
				flags |= 4
			}
			// The constant last word keeps the golden hashes as recorded,
			// when each record ended in the ACK's channel, always 0.
			acks.words(uint64(tb.Sim.Now()), flags, uint64(p.LGAck.LatestRx.N),
				uint64(p.LGAck.LatestRx.Era), 0)
		})
	})
	var b bytes.Buffer
	fmt.Fprintf(&b, "cell %s\n", c.name)
	for i, t := range txs {
		fmt.Fprintf(&b, "  lg%d tx samples=%d hash=%016x\n", i, t.n, t.h.Sum64())
	}
	fmt.Fprintf(&b, "  acks n=%d hash=%016x\n", acks.n, acks.h.Sum64())
	return b.String()
}

func TestProtocolTimelineGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, c := range rbCells() {
		buf.WriteString(runTimelineCell(c))
	}
	golden := filepath.Join("testdata", "protocol_timeline.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (generate with: go test ./internal/experiments -run ProtocolTimelineGolden -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		gl, wl := bytes.Split(buf.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("protocol-timeline golden diverges at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("protocol-timeline golden length changed: %d vs %d lines", len(gl), len(wl))
	}
}
