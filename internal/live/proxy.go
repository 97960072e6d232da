package live

import (
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"linkguardian/internal/simnet"
)

// Proxy is the in-path impairment relay of a three-terminal deployment
// (lglive -mode=sender|proxy|receiver): the live stand-in for the
// testbed's variable optical attenuator (§4 of the paper) between two
// processes. In-process runs (RunMulti) need no relay; they corrupt at the
// receiver's ingress MAC instead. It forwards datagrams from its listen
// socket to a target address. Loss acts per frame, as on the link: every
// record of an arriving mux bundle draws its own verdict from a seeded
// loss model (i.i.d. Bernoulli or bursty Gilbert–Elliott — the same
// simnet.LossModel implementations the simulated links use), and the
// survivors go on as one bundle. Jitter and reordering act on whole
// datagrams: a forwarded bundle is delayed by a uniform jitter, and
// occasionally swapped with its successor.
//
// Impairments are deliberately separable: jitter spreads inter-arrival
// times but preserves order (a single FIFO forwarder carries every
// datagram — per-datagram timers would let the OS scheduler shuffle
// arbitrarily deep, an impairment no physical link exhibits), while
// ReorderProb injects the bounded adjacent-swap reordering a real
// multi-lane path can produce.
//
// The proxy reads only the mux's record lengths, never a frame's
// contents; like an attenuator, it degrades the channel without knowing
// the protocol. A malformed tail is one more unit with its own verdict.
type Proxy struct {
	conn *net.UDPConn
	to   *net.UDPAddr

	model   simnet.LossModel
	rng     *rand.Rand
	jitter  time.Duration
	reorder float64

	forwarded atomic.Uint64
	dropped   atomic.Uint64
	delayed   atomic.Uint64
	swapped   atomic.Uint64

	fq     chan fwdItem
	closed chan struct{}
	fdone  chan struct{}
}

// fwdItem is one datagram waiting in the forwarder's FIFO.
type fwdItem struct {
	b      []byte
	frames uint64 // records b carries
	due    time.Time
}

// ProxyImpair bundles the proxy's impairment knobs.
type ProxyImpair struct {
	// Model decides per-frame corruption; nil means lossless.
	Model simnet.LossModel
	// Jitter, if positive, delays each surviving datagram by a uniform
	// random span in [0, Jitter). Order is preserved.
	Jitter time.Duration
	// ReorderProb is the per-datagram probability of being held back and
	// emitted after its successor (one adjacent swap).
	ReorderProb float64
}

// NewProxy starts an impairment relay on listen, forwarding to target.
// Close releases the sockets.
func NewProxy(listen, target string, imp ProxyImpair, seed int64) (*Proxy, error) {
	laddr, err := net.ResolveUDPAddr("udp", listen)
	if err != nil {
		return nil, err
	}
	taddr, err := net.ResolveUDPAddr("udp", target)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, err
	}
	if imp.Model == nil {
		imp.Model = simnet.NoLoss{}
	}
	p := &Proxy{
		conn:    conn,
		to:      taddr,
		model:   imp.Model,
		rng:     rand.New(rand.NewSource(seed)),
		jitter:  imp.Jitter,
		reorder: imp.ReorderProb,
		fq:      make(chan fwdItem, 4096),
		closed:  make(chan struct{}),
		fdone:   make(chan struct{}),
	}
	_ = conn.SetReadBuffer(4 << 20)
	_ = conn.SetWriteBuffer(4 << 20)
	go p.forward()
	go p.run()
	return p, nil
}

// Addr returns the proxy's bound listen address — the address senders
// target when the proxy was started on port 0.
func (p *Proxy) Addr() *net.UDPAddr { return p.conn.LocalAddr().(*net.UDPAddr) }

// Forwarded returns how many frames reached the target socket.
func (p *Proxy) Forwarded() uint64 { return p.forwarded.Load() }

// Dropped returns how many frames the loss model corrupted.
func (p *Proxy) Dropped() uint64 { return p.dropped.Load() }

// Delayed returns how many datagrams were jittered rather than forwarded
// immediately.
func (p *Proxy) Delayed() uint64 { return p.delayed.Load() }

// Swapped returns how many adjacent-pair reorders were injected.
func (p *Proxy) Swapped() uint64 { return p.swapped.Load() }

// Close stops the relay, flushes datagrams still queued in the forwarder,
// and releases the socket.
func (p *Proxy) Close() {
	select {
	case <-p.closed:
		return
	default:
	}
	close(p.closed)
	_ = p.conn.Close()
	<-p.fdone
}

// run reads datagrams, applies the per-frame drop and the per-datagram
// jitter/swap decisions in arrival order, and feeds the forwarder FIFO. A
// datagram chosen for reordering is held until the next survivor, then
// enqueued behind it.
func (p *Proxy) run() {
	var held *fwdItem
	enqueue := func(it fwdItem) bool {
		select {
		case p.fq <- it:
			return true
		case <-p.closed:
			return false
		}
	}
	defer func() {
		if held != nil {
			enqueue(*held)
		}
		close(p.fq)
	}()
	buf := make([]byte, bundleBufBytes)
	keep := make([]byte, 0, bundleBufBytes)
	for {
		n, _, err := p.conn.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		keep = keep[:0]
		frames := uint64(0)
		for b := buf[:n]; len(b) > 0; {
			_, rest, _ := nextRecord(b)
			unit := b[:len(b)-len(rest)]
			b = rest
			if p.model.Drops(p.rng) {
				p.dropped.Add(1)
				continue
			}
			keep = append(keep, unit...)
			frames++
		}
		if frames == 0 {
			continue
		}
		var delay time.Duration
		if p.jitter > 0 {
			delay = time.Duration(p.rng.Int63n(int64(p.jitter)))
			p.delayed.Add(1)
		}
		it := fwdItem{b: append([]byte(nil), keep...), frames: frames, due: time.Now().Add(delay)}
		if held == nil && p.reorder > 0 && p.rng.Float64() < p.reorder {
			held = &it // emitted right after the next survivor
			continue
		}
		if !enqueue(it) {
			return
		}
		if held != nil {
			p.swapped.Add(1)
			ok := enqueue(*held)
			held = nil
			if !ok {
				return
			}
		}
	}
}

// forward drains the FIFO: sleep until each datagram's due time, then write
// it out. Order is exactly the enqueue order regardless of due times, so
// jitter stretches spacing without shuffling.
func (p *Proxy) forward() {
	defer close(p.fdone)
	for it := range p.fq {
		if wait := time.Until(it.due); wait > 0 {
			time.Sleep(wait)
		}
		if _, err := p.conn.WriteToUDP(it.b, p.to); err == nil {
			p.forwarded.Add(it.frames)
		}
	}
}
