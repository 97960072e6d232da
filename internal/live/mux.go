package live

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"linkguardian/internal/simnet"
)

// DefaultBatch is the mux's default syscall batch size: how many datagrams
// one recvmmsg/sendmmsg call moves. 32 amortizes the ~1–2µs syscall cost
// to noise without adding meaningful batching latency at the rates a
// userspace link sustains.
const DefaultBatch = 32

// sendQueueDepth bounds datagrams waiting for the flush goroutine. A full
// queue sheds the frame as a wire loss (the protocol's own retransmission
// recovers it), exactly like a full kernel buffer would.
const sendQueueDepth = 4096

// cacheFrames sizes the loop-local frame stash (see Mux.cache).
const cacheFrames = 64

// flushYields is how many times the flush goroutine yields the core to
// producers before writing an under-full batch (see flushLoop).
const flushYields = 4

// Mux is the live dataplane's transport: one UDP socket shared by a
// process's protected links (a standalone endpoint is link id 0 of its
// own mux), moving datagrams in batches because one syscall per datagram
// caps throughput, and one event Loop running every attached link — the
// way one switch pipeline runs LinkGuardian for all the links it hosts.
// Outbound, per-link wires enqueue encoded frames and a single flush
// goroutine writes them in sendmmsg batches, each frame carrying its own
// destination address. Inbound, a single read goroutine fills recvmmsg
// batches from the frame arena, resolves each datagram's wire by the
// 16-bit link-id prefix (simnet.AppendLinkDatagram) and hands the batch to
// the loop, which decodes every frame and injects it on its link's
// topology — so the loop's single-threading contract is untouched.
//
// On non-Linux builds the batched syscalls degrade to a one-datagram-
// at-a-time portable path (see batch_portable.go); the framing, the
// demux and the arena discipline are identical.
type Mux struct {
	conn  *net.UDPConn
	rc    syscall.RawConn
	batch int
	arena arena
	loop  *Loop

	wires []*MuxWire // indexed by link id; nil slots are unknown links

	sendq chan *frame

	// inbox is the handoff from the read goroutine to the loop goroutine;
	// pump drains it with a ping-pong buffer pair so the steady state
	// appends into warm arrays.
	inbox struct {
		mu sync.Mutex
		q  []*frame
	}
	spare       []*frame    // pump-owned second buffer
	wakePending atomic.Bool // a pump is queued on the loop
	pumpFn      func()      // pump bound once, so waking the loop never allocates

	// cache is a loop-owned frame stash between the loop and the arena:
	// carry draws from it and the receive path returns to it, so the
	// steady state touches the arena mutex once per half-cache refill or
	// spill instead of once per frame.
	cache []*frame

	// frameByID parks the arena frame whose bytes a decoded packet's
	// payload aliases, keyed by packet id, until Sim.OnRelease proves the
	// payload dead. Loop goroutine only.
	frameByID map[uint64]*frame

	stage []*MuxWire // groupByLink scratch: wires present in the batch

	// Batch I/O seams: tests substitute these to exercise partial
	// completions and error paths without a cooperating kernel.
	readBatch  func([]*frame) (int, error)
	writeBatch func([]*frame) (int, error)

	bio batchIO // platform-specific persistent syscall state

	rxBatches      atomic.Uint64
	rxDatagrams    atomic.Uint64
	unknownLink    atomic.Uint64
	shortDatagrams atomic.Uint64
	txBatches      atomic.Uint64
	txDatagrams    atomic.Uint64
	partialSends   atomic.Uint64

	started bool
	stop    sync.Once
	quit    chan struct{}
	rdone   chan struct{}
	wdone   chan struct{}
}

// MuxStats is a point-in-time copy of the mux's shared-socket counters.
type MuxStats struct {
	RxBatches      uint64 // recvmmsg calls that returned ≥1 datagram
	RxDatagrams    uint64 // datagrams read off the socket
	UnknownLink    uint64 // datagrams for a link id with no attached wire
	ShortDatagrams uint64 // datagrams shorter than the link-id prefix
	TxBatches      uint64 // sendmmsg calls that accepted ≥1 datagram
	TxDatagrams    uint64 // datagrams written to the socket
	PartialSends   uint64 // sendmmsg completions with k < n accepted
	ArenaFrames    uint64 // frame-arena population high-water mark
}

// NewMux wraps an open UDP socket in a batched multi-link transport with
// its own stopped event loop. Build every link's topology on that loop
// and Attach its wire, then Start; Close stops the loop, releases the
// socket and stops the I/O goroutines.
func NewMux(conn *net.UDPConn, batch int) (*Mux, error) {
	if batch <= 0 {
		batch = DefaultBatch
	}
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, fmt.Errorf("live: mux raw conn: %w", err)
	}
	m := &Mux{
		conn:  conn,
		rc:    rc,
		batch: batch,
		loop:  NewLoop(),
		sendq: make(chan *frame, sendQueueDepth),
		quit:  make(chan struct{}),
		rdone: make(chan struct{}),
		wdone: make(chan struct{}),

		cache:     make([]*frame, 0, cacheFrames),
		frameByID: make(map[uint64]*frame),
	}
	m.pumpFn = m.pump
	// Payload bytes of decoded data frames alias the arena frame they
	// arrived in; the packet's release is the proof the payload is dead,
	// so that is where the frame goes back to the arena.
	m.loop.Sim.OnRelease = m.reclaim
	m.readBatch = m.readBatchSys
	m.writeBatch = m.writeBatchSys
	m.initBatchIO()
	// Seed the arena so the first batches draw warm frames; steady-state
	// growth beyond this tracks the in-flight high-water mark.
	m.arena.prealloc(2 * batch)
	// Socket buffers sized for bursts: a paced catch-up batch or a
	// retransmission volley must not shed frames in the kernel. (Losses
	// there are recovered by the protocol anyway — they are wire losses —
	// but the smoke tests want the baseline clean.) Errors are ignored:
	// the OS clamps to its limits.
	_ = conn.SetReadBuffer(4 << 20)
	_ = conn.SetWriteBuffer(4 << 20)
	return m, nil
}

// Batched reports whether this build moves datagrams with real
// recvmmsg/sendmmsg batches (Linux) or the portable one-at-a-time path.
func (m *Mux) Batched() bool { return batchedSyscalls }

// Stats snapshots the mux counters; safe from any goroutine.
func (m *Mux) Stats() MuxStats {
	return MuxStats{
		RxBatches:      m.rxBatches.Load(),
		RxDatagrams:    m.rxDatagrams.Load(),
		UnknownLink:    m.unknownLink.Load(),
		ShortDatagrams: m.shortDatagrams.Load(),
		TxBatches:      m.txBatches.Load(),
		TxDatagrams:    m.txDatagrams.Load(),
		PartialSends:   m.partialSends.Load(),
		ArenaFrames:    m.arena.frames(),
	}
}

// Attach connects one protected link to the shared socket: frames
// egressing ifc — an interface built on the mux's loop — are framed with
// linkID's prefix and sent to peer; datagrams arriving with that prefix
// are decoded on the loop goroutine and injected through ifc.Receive,
// data frames stamped for deliverTo. Must be called before Start.
func (m *Mux) Attach(linkID uint16, ifc *simnet.Ifc, peer *net.UDPAddr, deliverTo string) (*MuxWire, error) {
	if m.started {
		return nil, fmt.Errorf("live: mux already started")
	}
	if int(linkID) < len(m.wires) && m.wires[linkID] != nil {
		return nil, fmt.Errorf("live: link id %d already attached", linkID)
	}
	dst, err := mkSockaddr(peer)
	if err != nil {
		return nil, fmt.Errorf("live: link %d peer %v: %w", linkID, peer, err)
	}
	w := &MuxWire{
		mux:       m,
		ifc:       ifc,
		linkID:    linkID,
		peer:      peer,
		dst:       dst,
		deliverTo: deliverTo,
	}
	for int(linkID) >= len(m.wires) {
		m.wires = append(m.wires, nil)
	}
	m.wires[linkID] = w
	ifc.Link().Carrier = w.carry
	return w, nil
}

// Start begins pumping the loop and launches the shared read and flush
// goroutines.
func (m *Mux) Start() {
	m.loop.Start()
	m.startIO()
}

// startIO launches the read and flush goroutines without the loop.
func (m *Mux) startIO() {
	if m.started {
		return
	}
	m.started = true
	go m.readLoop()
	go m.flushLoop()
}

// Close stops the mux: the loop halts, the socket is closed (unblocking
// the read goroutine), the flush goroutine drains, and every frame still
// parked in the send queue or the inbox returns to the arena. Safe to
// call more than once. A process with several muxes stops every loop
// before it closes any socket, so no loop sends to a closed peer.
func (m *Mux) Close() {
	m.stop.Do(func() {
		m.loop.Stop()
		close(m.quit)
		_ = m.conn.Close()
		if m.started {
			<-m.rdone
			<-m.wdone
		}
		m.arena.putAll(m.inbox.q)
		m.inbox.q = nil
	})
}

// readLoop is the shared inbound pump: fill a batch of arena frames with
// recvmmsg, hand the datagrams to the loop's inbox, replace the consumed
// slots, repeat. It exits when the socket closes.
func (m *Mux) readLoop() {
	defer close(m.rdone)
	frames := make([]*frame, m.batch)
	for i := range frames {
		frames[i] = m.arena.get()
	}
	defer func() {
		for _, f := range frames {
			if f != nil {
				m.arena.put(f)
			}
		}
	}()
	for {
		n, err := m.readBatch(frames)
		if err != nil {
			return // socket closed for shutdown (or unrecoverable)
		}
		if n == 0 {
			continue
		}
		m.rxBatches.Add(1)
		m.rxDatagrams.Add(uint64(n))
		m.dispatchBatch(frames[:n])
		m.arena.fill(frames[:n])
	}
}

// dispatchBatch takes ownership of a batch of received frames: each lands
// in the inbox, stamped with its wire, or back in the arena. The whole
// batch costs one inbox lock and at most one loop wakeup.
func (m *Mux) dispatchBatch(frames []*frame) {
	k := 0
	for _, f := range frames {
		if m.resolve(f) {
			frames[k] = f
			k++
		}
	}
	if k == 0 {
		return
	}
	m.inbox.mu.Lock()
	m.inbox.q = append(m.inbox.q, frames[:k]...)
	m.inbox.mu.Unlock()
	if m.wakePending.CompareAndSwap(false, true) && !m.loop.Do(m.pumpFn) {
		// Loop stopped: leave the frames parked; Close reclaims them.
		m.wakePending.Store(false)
	}
}

// resolve stamps a received frame with the wire its link-id prefix names.
// Frames with no usable prefix or no attached wire are consumed (counted,
// returned to the arena) and resolve to false.
func (m *Mux) resolve(f *frame) bool {
	link, _, err := simnet.SplitLinkDatagram(f.data[:f.n])
	if err != nil {
		m.shortDatagrams.Add(1)
		m.arena.put(f)
		return false
	}
	if int(link) < len(m.wires) {
		if w := m.wires[link]; w != nil {
			f.wire = w
			return true
		}
	}
	m.unknownLink.Add(1)
	m.arena.put(f)
	return false
}

// pump drains the inbox on the loop goroutine, swapping in the spare
// buffer so the read goroutine never waits on decode.
func (m *Mux) pump() {
	m.wakePending.Store(false)
	m.inbox.mu.Lock()
	q := m.inbox.q
	m.inbox.q = m.spare[:0]
	m.inbox.mu.Unlock()
	for i, f := range q {
		f.wire.deliverFrame(f)
		q[i] = nil
	}
	m.spare = q[:0]
}

// reclaim is the Sim.OnRelease observer: when the packet whose payload
// aliases a parked frame dies, the frame returns to the cache.
func (m *Mux) reclaim(p *simnet.Packet) {
	if len(m.frameByID) == 0 {
		return
	}
	if f, ok := m.frameByID[p.ID]; ok {
		delete(m.frameByID, p.ID)
		m.putFrame(f)
	}
}

// getFrame draws a frame from the loop-local cache, refilling half of it
// from the arena when dry (loop goroutine only).
func (m *Mux) getFrame() *frame {
	n := len(m.cache)
	if n == 0 {
		m.cache = m.cache[:cacheFrames/2]
		m.arena.fill(m.cache)
		n = len(m.cache)
	}
	f := m.cache[n-1]
	m.cache[n-1] = nil
	m.cache = m.cache[:n-1]
	return f
}

// putFrame returns a frame to the loop-local cache, spilling half back to
// the arena when full (loop goroutine only).
func (m *Mux) putFrame(f *frame) {
	if len(m.cache) == cap(m.cache) {
		half := len(m.cache) / 2
		m.arena.putAll(m.cache[half:])
		for i := half; i < len(m.cache); i++ {
			m.cache[i] = nil
		}
		m.cache = m.cache[:half]
	}
	m.cache = append(m.cache, f)
}

// flushLoop is the shared outbound pump: collect queued frames up to the
// batch size, write them with sendmmsg (retrying partial completions),
// return the frames to the arena.
func (m *Mux) flushLoop() {
	defer close(m.wdone)
	batch := make([]*frame, 0, m.batch)
	putAll := func() {
		m.arena.putAll(batch)
		batch = batch[:0]
	}
	defer putAll()
	for {
		select {
		case f := <-m.sendq:
			batch = append(batch, f)
		case <-m.quit:
			// Drain what the loops already queued; the socket may already
			// be closed, in which case sendBatch surfaces hard errors.
			for {
				select {
				case f := <-m.sendq:
					batch = append(batch, f)
					if len(batch) == m.batch {
						m.sendBatch(batch)
						putAll()
					}
					continue
				default:
				}
				break
			}
			if len(batch) > 0 {
				m.sendBatch(batch)
			}
			return
		}
		yields := 0
	collect:
		for len(batch) < m.batch {
			select {
			case f := <-m.sendq:
				batch = append(batch, f)
			default:
				// The queue outran us. Yield the core a few times before
				// settling for a short batch: on a saturated single core the
				// producers only run while we are off it, and a sendmmsg of
				// one datagram amortizes nothing. The yields cost ~1µs of
				// extra latency on a lone frame — far below every protocol
				// timescale — and in steady state the backlog they build
				// keeps every later batch full with no further yielding.
				if yields < flushYields {
					yields++
					runtime.Gosched()
					continue
				}
				break collect
			}
		}
		m.sendBatch(batch)
		putAll()
	}
}

// groupByLink stable-partitions a batch by wire (bucket sort over the
// wires actually present, O(n)). Cross-link ordering carries no meaning —
// the links are independent — while each link's own frames keep their
// order, and the contiguous runs let writeBatch coalesce same-size frames
// into single GSO sends. The per-wire stage slices and the touched list
// are flush-goroutine scratch, warm after the first batches.
func (m *Mux) groupByLink(batch []*frame) {
	touched := m.stage[:0]
	for _, f := range batch {
		w := f.wire
		if len(w.txStage) == 0 {
			touched = append(touched, w)
		}
		w.txStage = append(w.txStage, f)
	}
	m.stage = touched[:0]
	if len(touched) < 2 {
		if len(touched) == 1 {
			touched[0].txStage = touched[0].txStage[:0]
		}
		return // zero or one wire: the batch is already one run
	}
	i := 0
	for _, w := range touched {
		for j, f := range w.txStage {
			batch[i] = f
			i++
			w.txStage[j] = nil
		}
		w.txStage = w.txStage[:0]
	}
}

// sendBatch writes one batch, walking past partial completions (the
// kernel accepting k < n messages is normal backpressure) and retrying
// transient errors with a bounded backoff (maxSendAttempts, sendBackoff).
// Frames that could not be written are counted against their wire
// as send drops — wire losses the protocol recovers. The caller returns
// the frames to the arena afterwards.
func (m *Mux) sendBatch(batch []*frame) {
	m.groupByLink(batch)
	sent, attempts := 0, 0
	for sent < len(batch) {
		n, err := m.writeBatch(batch[sent:])
		if n > 0 {
			for k := sent; k < sent+n; {
				w := batch[k].wire
				j := k + 1
				for j < sent+n && batch[j].wire == w {
					j++
				}
				w.txDatagrams.Add(uint64(j - k))
				k = j
			}
			m.txBatches.Add(1)
			m.txDatagrams.Add(uint64(n))
			if sent+n < len(batch) {
				m.partialSends.Add(1)
			}
			sent += n
			attempts = 0
			if err == nil {
				continue
			}
		}
		if err == nil {
			continue
		}
		if !transientSendErr(err) {
			for _, f := range batch[sent:] {
				f.wire.txErrors.Add(1)
			}
			return
		}
		if attempts == maxSendAttempts-1 {
			for _, f := range batch[sent:] {
				f.wire.sendDrops.Add(1)
			}
			return
		}
		for _, f := range batch[sent:] {
			f.wire.sendRetries.Add(1)
		}
		time.Sleep(sendBackoff[attempts])
		attempts++
	}
}

// MuxWire binds one protected link's wire-facing interface to the shared
// mux socket: the live half of a protected link. Outbound, it is the
// Link.Carrier — every frame the interface's port finishes serializing is
// framed by the simnet datagram codec and queued for the socket; simulated
// propagation is bypassed because the physical path is real. Inbound, it
// decodes each datagram into a pooled packet and injects it through
// Ifc.Receive — the link's fault verdict, counters, PFC absorption and
// the LinkGuardian ingress hooks all run exactly as if the frame had
// arrived over a simulated link. Decode and injection run on the mux's
// loop, like every other link's; the syscalls are shared and batched.
type MuxWire struct {
	mux       *Mux
	ifc       *simnet.Ifc
	linkID    uint16
	peer      *net.UDPAddr
	dst       sockaddr // platform destination for per-message sendmmsg
	deliverTo string

	// Loop-owned counters (loop goroutine only).
	rxDatagrams uint64
	decodeDrops uint64
	encodeDrops uint64

	// Flush-goroutine counters (atomics: written off-loop, read anywhere).
	txDatagrams atomic.Uint64
	txErrors    atomic.Uint64
	sendRetries atomic.Uint64
	sendDrops   atomic.Uint64
	sendQFull   atomic.Uint64

	txStage []*frame // groupByLink scratch (flush goroutine only)
}

// LinkID returns the wire's link id on the shared socket.
func (w *MuxWire) LinkID() uint16 { return w.linkID }

// Counters folds both counter families into the WireStats shape. Call on
// the loop goroutine (or after the loop has stopped) for an exact read;
// the tx side is atomically coherent from anywhere.
func (w *MuxWire) Counters() WireStats {
	return WireStats{
		TxDatagrams: w.txDatagrams.Load(),
		RxDatagrams: w.rxDatagrams,
		TxErrors:    w.txErrors.Load(),
		SendRetries: w.sendRetries.Load(),
		SendDrops:   w.sendDrops.Load() + w.sendQFull.Load(),
		DecodeDrops: w.decodeDrops,
		EncodeDrops: w.encodeDrops,
	}
}

// SendQueueFull returns how many frames were shed because the mux send
// queue was full — included in Counters().SendDrops.
func (w *MuxWire) SendQueueFull() uint64 { return w.sendQFull.Load() }

// carry is the Link.Carrier hook (loop goroutine): encode the frame into
// an arena buffer with the link-id prefix and hand it to the flush
// goroutine. A full send queue sheds the frame as a wire loss.
func (w *MuxWire) carry(pkt *simnet.Packet, from *simnet.Ifc) {
	m := w.mux
	defer m.loop.Release(pkt)
	if from != w.ifc {
		w.encodeDrops++
		return
	}
	f := m.getFrame()
	payload, _ := pkt.Payload.([]byte)
	b, err := simnet.AppendLinkDatagram(f.data[:0], w.linkID, pkt, payload)
	if err != nil {
		w.encodeDrops++
		m.putFrame(f)
		return
	}
	f.n = len(b)
	f.wire = w
	select {
	case m.sendq <- f:
	default:
		w.sendQFull.Add(1)
		m.putFrame(f)
	}
}

// deliverFrame decodes one datagram and injects the frame into the
// interface's ingress MAC; a rejected datagram is dropped and counted —
// the exact analogue of a frame failing its FCS check. If the
// decoded packet carries payload bytes, they alias the arena frame, which
// is parked until the packet's release; otherwise the frame goes straight
// back to the arena.
func (w *MuxWire) deliverFrame(f *frame) {
	m := w.mux
	pkt := m.loop.NewPacket(simnet.KindData, 0, "")
	payload, err := simnet.DecodeLGDatagram(f.data[simnet.LinkIDBytes:f.n], pkt)
	if err != nil {
		w.decodeDrops++
		m.loop.Release(pkt)
		m.putFrame(f)
		return
	}
	if len(payload) > 0 {
		pkt.Payload = payload
		m.frameByID[pkt.ID] = f
	} else {
		m.putFrame(f)
	}
	if pkt.Kind == simnet.KindData {
		// An L2 link carries no host routing: the receiving switch half
		// is told where its protected traffic terminates.
		pkt.ToHost = w.deliverTo
	}
	w.rxDatagrams++
	w.ifc.Receive(pkt)
}
