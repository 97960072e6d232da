package live

import (
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"linkguardian/internal/simnet"
)

// DefaultBatch is the mux's default flush size: how many frames one
// sendmmsg call moves. 32 amortizes the ~1–2µs syscall cost to noise
// without adding meaningful batching latency at the rates a userspace link
// sustains.
const DefaultBatch = 32

// Bundle sizes. A bundle never exceeds maxBundleBytes (nor its peer's
// route MTU, see bundleCap), so a bundleBufBytes receive buffer holds any
// UDP datagram; portableBundleBytes is an Ethernet MTU less the IPv4 and
// UDP headers; maxBundleFrames is the kernel's cap on the iovecs of one
// message (UIO_MAXIOV), one per frame.
const (
	maxBundleBytes      = 65000
	portableBundleBytes = 1472
	bundleBufBytes      = 64 << 10
	maxBundleFrames     = 1024
)

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
// own mux), moving frames in bundles because the kernel charges about the
// same for every datagram whatever its size, and one event Loop running
// every attached link — the way one switch pipeline runs LinkGuardian for
// all the links it hosts. Outbound, per-link wires enqueue encoded frames
// and a single flush goroutine writes each batch with one sendmmsg: one
// datagram per destination peer, a bundle of the batch's frames for that
// peer in batch order. Inbound, a single read goroutine reads one bundle
// per syscall — a bundle is already a batch — splits it into arena
// frames, resolves every frame's
// wire by its 16-bit link id (simnet.AppendLinkDatagram) and hands the
// frames to the loop, which decodes every frame and injects it on its
// link's topology — so the loop's single-threading contract is untouched.
//
// On non-Linux builds sendmmsg degrades to one WriteToUDP per bundle (see
// batch_portable.go); the bundles, the demux and the arena discipline are
// identical.
type Mux struct {
	conn  *net.UDPConn
	rc    syscall.RawConn
	batch int
	arena arena
	loop  *Loop

	wires []*MuxWire // indexed by link id; nil slots are unknown links
	peers []*muxPeer // distinct destinations of the attached wires

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

	// rx is the read goroutine's state: the bundle buffer, and the arena
	// frames the next records are copied into, drawn with one fill per
	// bundle.
	rx struct {
		buf   []byte
		stash []*frame
		used  int
	}

	// writeBatch is the send seam: tests substitute it to exercise partial
	// completions and error paths without a cooperating kernel.
	writeBatch func([]*frame) (int, error)

	bio batchIO // platform-specific persistent syscall state

	rxBundles      atomic.Uint64
	rxDatagrams    atomic.Uint64
	unknownLink    atomic.Uint64
	shortDatagrams atomic.Uint64
	txBatches      atomic.Uint64
	txBundles      atomic.Uint64
	txDatagrams    atomic.Uint64
	partialSends   atomic.Uint64

	started bool
	stop    sync.Once
	quit    chan struct{}
	rdone   chan struct{}
	wdone   chan struct{}
}

// muxPeer is one destination of the mux's bundles. Wires attached to the
// same address share it, so their frames share bundles.
type muxPeer struct {
	addr *net.UDPAddr
	dst  sockaddr // platform destination for per-message sendmmsg
	cap  int      // bundle byte cap (bundleCap)
	idx  int      // position in Mux.peers
}

// MuxStats is a point-in-time copy of the mux's shared-socket counters.
// Datagrams are link frames (bundle records); bundles are the UDP
// datagrams on the socket.
type MuxStats struct {
	RxBatches      uint64 // socket reads: one bundle each, so equal to RxBundles
	RxBundles      uint64 // bundles read off the socket
	RxDatagrams    uint64 // records split out of them
	UnknownLink    uint64 // records for a link id with no attached wire
	ShortDatagrams uint64 // malformed records: no complete link id, or a length past the bundle
	TxBatches      uint64 // sendmmsg calls that accepted ≥1 bundle
	TxBundles      uint64 // bundles written to the socket
	TxDatagrams    uint64 // frames those bundles carried
	PartialSends   uint64 // sendmmsg completions that left frames of the batch unsent
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
	m.rx.buf = make([]byte, bundleBufBytes)
	m.rx.stash = make([]*frame, batch)
	// Payload bytes of decoded data frames alias the arena frame they
	// arrived in; the packet's release is the proof the payload is dead,
	// so that is where the frame goes back to the arena.
	m.loop.Sim.OnRelease = m.reclaim
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

// Batched reports whether this build sends its bundles with real sendmmsg
// batches (Linux) or the portable one-at-a-time path.
func (m *Mux) Batched() bool { return batchedSyscalls }

// Stats snapshots the mux counters; safe from any goroutine.
func (m *Mux) Stats() MuxStats {
	return MuxStats{
		RxBatches:      m.rxBundles.Load(),
		RxBundles:      m.rxBundles.Load(),
		RxDatagrams:    m.rxDatagrams.Load(),
		UnknownLink:    m.unknownLink.Load(),
		ShortDatagrams: m.shortDatagrams.Load(),
		TxBatches:      m.txBatches.Load(),
		TxBundles:      m.txBundles.Load(),
		TxDatagrams:    m.txDatagrams.Load(),
		PartialSends:   m.partialSends.Load(),
		ArenaFrames:    m.arena.frames(),
	}
}

// Attach connects one protected link to the shared socket: frames
// egressing ifc — an interface built on the mux's loop — are framed with
// linkID and bundled to peer; records arriving with that link id are
// decoded on the loop goroutine and injected through ifc.Receive, data
// frames stamped for deliverTo. Must be called before Start.
func (m *Mux) Attach(linkID uint16, ifc *simnet.Ifc, peer *net.UDPAddr, deliverTo string) (*MuxWire, error) {
	if m.started {
		return nil, fmt.Errorf("live: mux already started")
	}
	if int(linkID) < len(m.wires) && m.wires[linkID] != nil {
		return nil, fmt.Errorf("live: link id %d already attached", linkID)
	}
	to, err := m.peer(peer)
	if err != nil {
		return nil, fmt.Errorf("live: link %d peer %v: %w", linkID, peer, err)
	}
	w := &MuxWire{
		mux:       m,
		ifc:       ifc,
		linkID:    linkID,
		to:        to,
		deliverTo: deliverTo,
	}
	for int(linkID) >= len(m.wires) {
		m.wires = append(m.wires, nil)
	}
	m.wires[linkID] = w
	ifc.Link().Carrier = w.carry
	return w, nil
}

// peer returns the mux's destination for addr, adding it — with its
// bundle cap read once here — on first use.
func (m *Mux) peer(addr *net.UDPAddr) (*muxPeer, error) {
	for _, p := range m.peers {
		if p.addr.IP.Equal(addr.IP) && p.addr.Port == addr.Port && p.addr.Zone == addr.Zone {
			return p, nil
		}
	}
	dst, err := mkSockaddr(addr)
	if err != nil {
		return nil, err
	}
	p := &muxPeer{addr: addr, dst: dst, cap: bundleCap(addr), idx: len(m.peers)}
	m.peers = append(m.peers, p)
	return p, nil
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

// Close stops the mux: the loop halts, the flush goroutine writes what
// the loop had queued, the socket is closed (unblocking the read
// goroutine), and every frame still parked in the inbox returns to the
// arena. Safe to call more than once. A process with several muxes stops
// every loop before it closes any socket, so no loop sends to a closed
// peer.
func (m *Mux) Close() {
	m.stop.Do(func() {
		m.loop.Stop()
		close(m.quit)
		if m.started {
			<-m.wdone
		}
		_ = m.conn.Close()
		if m.started {
			<-m.rdone
		}
		m.arena.putAll(m.inbox.q)
		m.inbox.q = nil
	})
}

// readLoop is the shared inbound pump: read a bundle, split it into the
// stash's arena frames, hand those to the loop's inbox, repeat. It exits
// when the socket closes.
func (m *Mux) readLoop() {
	defer close(m.rdone)
	m.arena.fill(m.rx.stash)
	defer func() { m.arena.putAll(m.rx.stash) }()
	for {
		n, err := m.conn.Read(m.rx.buf)
		if err != nil {
			return // socket closed for shutdown (or unrecoverable)
		}
		m.rxBundles.Add(1)
		m.unbundle(m.rx.buf[:n])
		m.flushRx()
	}
}

// unbundle splits one received bundle into the read goroutine's stash of
// arena frames, one per record, each stamped with the wire resolve names.
// Records that resolve to no wire take no frame. A full stash is handed on
// mid-bundle.
func (m *Mux) unbundle(b []byte) {
	records := uint64(0)
	for len(b) > 0 {
		start := b
		rec, rest, _ := nextRecord(b)
		b = rest
		records++
		w := m.resolve(rec)
		if w == nil {
			continue
		}
		f := m.rx.stash[m.rx.used]
		f.n = copy(f.data[:], start[:recordHdrBytes+len(rec)])
		f.wire = w
		m.rx.used++
		if m.rx.used == len(m.rx.stash) {
			m.flushRx()
		}
	}
	m.rxDatagrams.Add(records)
}

// resolve returns the wire a received record's link id names. Records
// that are malformed (nil, shorter than the link id, longer than any link
// datagram) or name no attached wire are counted and resolve to nil.
func (m *Mux) resolve(rec []byte) *MuxWire {
	link, _, err := simnet.SplitLinkDatagram(rec)
	if err != nil || len(rec) > simnet.MaxLinkDatagramBytes {
		m.shortDatagrams.Add(1)
		return nil
	}
	if int(link) < len(m.wires) {
		if w := m.wires[link]; w != nil {
			return w
		}
	}
	m.unknownLink.Add(1)
	return nil
}

// flushRx hands the stash's filled frames to the loop — one inbox lock
// and at most one loop wakeup — and refills their slots with one arena
// fill.
func (m *Mux) flushRx() {
	got := m.rx.stash[:m.rx.used]
	if len(got) == 0 {
		return
	}
	m.rx.used = 0
	m.inbox.mu.Lock()
	m.inbox.q = append(m.inbox.q, got...)
	m.inbox.mu.Unlock()
	if m.wakePending.CompareAndSwap(false, true) && !m.loop.Do(m.pumpFn) {
		// Loop stopped: leave the frames parked; Close reclaims them.
		m.wakePending.Store(false)
	}
	m.arena.fill(got)
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
// batch size, write them as bundles with sendmmsg (retrying partial
// completions), return the frames to the arena.
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
			// Drain what the loop queued before it stopped; Close keeps
			// the socket open until this returns.
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

// bundleEnd returns the end of the bundle that starts at frames[i]: the
// frames that follow it to the same peer, as many as fit the peer's cap
// and one message's iovecs. A frame bigger than the cap goes alone.
func bundleEnd(frames []*frame, i int) int {
	p, size := frames[i].wire.to, frames[i].n
	j := i + 1
	for j < len(frames) && j-i < maxBundleFrames && frames[j].wire.to == p && size+frames[j].n <= p.cap {
		size += frames[j].n
		j++
	}
	return j
}

// sendBatch writes one batch, walking past partial completions (the
// kernel accepting k < n bundles is normal backpressure) and retrying
// transient errors with a bounded backoff (maxSendAttempts, sendBackoff).
// Frames that could not be written are counted against their wire
// as send drops — wire losses the protocol recovers. The caller returns
// the frames to the arena afterwards.
func (m *Mux) sendBatch(batch []*frame) {
	if len(m.peers) > 1 {
		// One run per peer, in batch order, for writeBatch to bundle.
		slices.SortStableFunc(batch, func(a, b *frame) int { return a.wire.to.idx - b.wire.to.idx })
	}
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
// framed by the simnet datagram codec and queued for its peer's next
// bundle; simulated propagation is bypassed because the physical path is
// real. Inbound, it decodes each frame into a pooled packet and injects it through
// Ifc.Receive — the link's fault verdict, counters, PFC absorption and
// the LinkGuardian ingress hooks all run exactly as if the frame had
// arrived over a simulated link. Decode and injection run on the mux's
// loop, like every other link's; the syscalls are shared and batched.
type MuxWire struct {
	mux       *Mux
	ifc       *simnet.Ifc
	linkID    uint16
	to        *muxPeer
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
}

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

// carry is the Link.Carrier hook (loop goroutine): encode the frame into
// an arena buffer as one bundle record and hand it to the flush
// goroutine. A full send queue sheds the frame as a wire loss.
func (w *MuxWire) carry(pkt *simnet.Packet, from *simnet.Ifc) {
	m := w.mux
	defer m.loop.Release(pkt)
	if from != w.ifc {
		w.encodeDrops++
		return
	}
	f := m.getFrame()
	b, err := simnet.AppendLinkDatagram(f.data[recordHdrBytes:recordHdrBytes], w.linkID, pkt, payloadBytes(pkt))
	if err != nil {
		w.encodeDrops++
		m.putFrame(f)
		return
	}
	f.data[0], f.data[1] = byte(len(b)), byte(len(b)>>8)
	f.n = recordHdrBytes + len(b)
	f.wire = w
	select {
	case m.sendq <- f:
	default:
		w.sendQFull.Add(1)
		m.putFrame(f)
	}
}

// payloadBytes returns the app bytes a live packet carries. Payload holds
// a *[]byte whose slice a loadgen slab or an arena frame owns, so setting
// it boxes a pointer and never allocates.
func payloadBytes(pkt *simnet.Packet) []byte {
	if b, ok := pkt.Payload.(*[]byte); ok {
		return *b
	}
	return nil
}

// deliverFrame decodes one frame and injects it into the interface's
// ingress MAC; a rejected frame is dropped and counted — the exact
// analogue of a frame failing its FCS check. If the decoded packet carries
// payload bytes, they alias the arena frame, which is parked until the
// packet's release; otherwise the frame goes straight back to the arena.
func (w *MuxWire) deliverFrame(f *frame) {
	m := w.mux
	pkt := m.loop.NewPacket(simnet.KindData, 0, "")
	payload, err := simnet.DecodeLGDatagram(f.data[recordHdrBytes+simnet.LinkIDBytes:f.n], pkt)
	if err != nil {
		w.decodeDrops++
		m.loop.Release(pkt)
		m.putFrame(f)
		return
	}
	if len(payload) > 0 {
		f.payload = payload
		pkt.Payload = &f.payload
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
