//go:build !linux

// Portable send backend: on platforms without sendmmsg the mux writes
// one bundle per WriteToUDP. The bundles, the demux and the arena
// ownership discipline are identical to the Linux path — only the syscall
// amortization across peers and bundles is lost, so the multi-link
// harness and its tests run everywhere while the batching speedup is
// claimed only where Mux.Batched() reports true.

package live

import (
	"fmt"
	"net"
)

// batchedSyscalls reports at build time that this platform moves one
// bundle per syscall.
const batchedSyscalls = false

// batchIO holds the portable writer's bundle buffer: a bundle is copied
// together here before its one WriteToUDP.
type batchIO struct {
	wbuf []byte
}

func (m *Mux) initBatchIO() { m.bio.wbuf = make([]byte, 0, bundleBufBytes) }

// bundleCap is the Ethernet-MTU bundle: with no portable way to read the
// route MTU, no bundle risks IP fragmentation.
func bundleCap(*net.UDPAddr) int { return portableBundleBytes }

// sockaddr carries no platform representation; the portable writer uses
// the peer's net.UDPAddr directly.
type sockaddr struct{}

func mkSockaddr(a *net.UDPAddr) (sockaddr, error) {
	if a == nil || a.IP == nil {
		return sockaddr{}, fmt.Errorf("nil peer address")
	}
	return sockaddr{}, nil
}

// writeBatchSys writes the frames one bundle per syscall, reporting how
// many frames made it before the first error — the same partial-completion
// contract as sendmmsg.
func (m *Mux) writeBatchSys(frames []*frame) (int, error) {
	for i := 0; i < len(frames); {
		j := bundleEnd(frames, i)
		b := m.bio.wbuf[:0]
		for _, f := range frames[i:j] {
			b = append(b, f.data[:f.n]...)
		}
		if _, err := m.conn.WriteToUDP(b, frames[i].wire.to.addr); err != nil {
			return i, err
		}
		m.txBundles.Add(1)
		i = j
	}
	return len(frames), nil
}
