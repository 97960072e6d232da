package core

import (
	"fmt"

	"linkguardian/internal/seqnum"
	"linkguardian/internal/simnet"
	"linkguardian/internal/simtime"
)

// stampAtWire runs in the sender's egress pipeline as a packet is dequeued
// for transmission on the protected link: it adds the LinkGuardian data
// header with a fresh seqNo and uses egress mirroring to buffer a copy
// (Appendix A.1/A.2). Stamping happens at wire time — after any queueing —
// so the Tx buffer holds a packet only for the ACK round trip, not for time
// spent in the egress queue.
func (g *Instance) stampAtWire(pkt *simnet.Packet) {
	if !g.enabled || pkt.Kind != simnet.KindData || pkt.LG.Present {
		return
	}
	seq := g.nextSeq
	g.nextSeq = seq.Next()
	pkt.LG = simnet.LGData{Present: true, Seq: seq}
	pkt.Size += simnet.LGHeaderBytes
	g.lastTx = seq
	g.buffer(pkt, seq)
	g.M.Protected++
}

// loopTime is one recirculation loop for a packet of the given frame size:
// a pipeline traversal plus serialization at the recirculation port.
func (g *Instance) loopTime(size int) simtime.Duration {
	return g.cfg.PipelineLatency + g.cfg.RecircRate.Serialize(simtime.WireBytes(size))
}

// newTxEntry draws a zeroed entry from the instance's free list.
func (g *Instance) newTxEntry() *txEntry {
	e := g.txFree
	if e == nil {
		return &txEntry{}
	}
	g.txFree = e.next
	*e = txEntry{}
	return e
}

// freeTxEntry recycles a retired entry. The caller must have released the
// entry's buffered packet (or transferred its ownership) first.
func (g *Instance) freeTxEntry(e *txEntry) {
	*e = txEntry{next: g.txFree}
	g.txFree = e
}

// buffer places a copy of a protected packet into the recirculating Tx
// buffer (egress mirroring, Appendix A.2). If the recirculation buffer cap
// is reached the copy is not stored; the packet is then unprotected.
func (g *Instance) buffer(pkt *simnet.Packet, seq seqnum.Seq) {
	g.settleTx()
	if g.M.TxBufBytes+pkt.Size > g.cfg.RecircBufBytes {
		g.M.TxBufDrops++
		return
	}
	e := g.newTxEntry()
	e.pkt = g.rt.ClonePacket(pkt)
	e.seq = seq
	e.insertAt = g.rt.Now()
	e.loop = g.loopTime(pkt.Size)
	g.txPut(e)
	g.M.TxBufBytes += pkt.Size
	if g.M.TxBufBytes > g.M.TxBufPeak {
		g.M.TxBufPeak = g.M.TxBufBytes
	}
}

// nextLoopBoundary returns the first loop-completion instant of e at or
// after t, and the number of loops completed by then: the instant at which
// the buffered copy can next be acted upon (dropped or retransmitted). The
// copy is only examined at its recirculation-loop completions, which is
// what makes recirculation-based retransmission take microseconds (§5).
func (e *txEntry) nextLoopBoundary(t simtime.Time) (simtime.Time, uint64) {
	elapsed := t.Sub(e.insertAt)
	k := int64(elapsed)/int64(e.loop) + 1
	if int64(elapsed)%int64(e.loop) == 0 && k > 1 {
		k--
	}
	if k < 1 {
		k = 1
	}
	return e.insertAt.Add(simtime.Duration(k * int64(e.loop))), uint64(k)
}

// Tx buffer table sizes; at txTabMax every seq.N has its own slot.
const (
	txTabMin = 64
	txTabMax = 1 << 16
)

// txGet returns the buffered entry for seq, or nil.
func (g *Instance) txGet(seq seqnum.Seq) *txEntry {
	e := g.txTab[int(seq.N)&(len(g.txTab)-1)]
	if e == nil || e.seq != seq {
		return nil
	}
	return e
}

// txPut stores e in its seq's slot, replacing an entry with the same seq as
// a map would. A slot held by another seq doubles the table until the two
// part. At txTabMax only two eras of one seq.N could still meet, and the
// era scheme keeps them from being outstanding together.
func (g *Instance) txPut(e *txEntry) {
	for {
		slot := &g.txTab[int(e.seq.N)&(len(g.txTab)-1)]
		switch {
		case *slot == nil:
			g.txCount++
			*slot = e
			return
		case (*slot).seq == e.seq:
			*slot = e
			return
		}
		if len(g.txTab) == txTabMax {
			panic(fmt.Sprintf("core: Tx buffer holds seqNos %v and %v at once", (*slot).seq, e.seq))
		}
		tab := make([]*txEntry, 2*len(g.txTab))
		for _, o := range g.txTab {
			if o != nil {
				tab[int(o.seq.N)&(len(tab)-1)] = o
			}
		}
		g.txTab = tab
	}
}

// txDel removes e from the Tx buffer if e itself still holds its slot. A
// drop or retransmission pending across Disable and Enable retires an
// entry the re-enable already cleared, while the restarted sequence may
// have put a new entry with the same seq there.
func (g *Instance) txDel(e *txEntry) {
	slot := &g.txTab[int(e.seq.N)&(len(g.txTab)-1)]
	if *slot == e {
		*slot = nil
		g.txCount--
	}
}

// retire accounts a claimed entry at its loop boundary, drops it from the
// Tx buffer and returns both the buffered packet and the entry itself to
// their free lists.
func (g *Instance) retire(e *txEntry) {
	g.M.SenderLoops += e.pendLoops
	g.M.TxBufBytes -= e.pkt.Size
	g.txDel(e)
	g.rt.Release(e.pkt)
	g.freeTxEntry(e)
}

// settleTx retires, in firing order, every entry handleAck claimed whose
// loop boundary has passed.
func (g *Instance) settleTx() {
	for {
		e, ok := g.txRetire.pop(g.rt)
		if !ok {
			return
		}
		g.retire(e)
	}
}

// releaseEntry immediately retires a buffered packet that nothing has
// claimed — the Disable drain path. Claimed entries (released already set)
// are left to their pending drop or retransmission.
func (g *Instance) releaseEntry(e *txEntry, at simtime.Time) {
	if e.released {
		return
	}
	e.released = true
	_, loops := e.nextLoopBoundary(at)
	e.pendLoops = loops
	g.retire(e)
}

// onReverse runs at the sender's ingress for packets arriving from the
// receiver switch: it consumes explicit ACKs and loss notifications, strips
// piggybacked ACK headers, and lets regular reverse traffic continue into
// the switch pipeline. Consumed control frames are terminal and return to
// the packet free list.
func (g *Instance) onReverse(pkt *simnet.Packet) bool {
	if !g.enabled {
		return false
	}
	switch pkt.Kind {
	case simnet.KindLGAck:
		if !pkt.LGAck.Present {
			return false
		}
		if pkt.LGAck.Valid {
			g.handleAck(pkt.LGAck.LatestRx)
		}
		g.rt.Release(pkt)
		return true
	case simnet.KindLossNotif:
		if !pkt.Notif.Present {
			return false
		}
		g.handleNotif(&pkt.Notif)
		g.rt.Release(pkt)
		return true
	}
	if pkt.LGAck.Present && pkt.LGAck.Valid {
		g.handleAck(pkt.LGAck.LatestRx)
		pkt.LGAck = simnet.LGAck{}
		pkt.Size -= simnet.LGHeaderBytes
	}
	return false
}

// handleAck advances the sender's copy of latestRxSeqNo and claims the
// successfully delivered buffered packets for a drop at their next loop
// boundary (Figure 18: seqNo <= latestRxSeqNo and no retransmission
// requested → drop). Sequence numbers are stamped in increasing order and
// the ACK is cumulative, so only the newly covered range (senderLatestRx,
// latestRx] can hold droppable entries — the walk is per acked seqNo (the
// hardware's per-seqNo register lookup), not per outstanding entry. The
// drop only lets time pass, so it waits in txRetire under a ticket for the
// boundary instead of an event.
func (g *Instance) handleAck(latestRx seqnum.Seq) {
	g.settleTx()
	g.M.AcksReceived++
	if seqnum.LessEq(latestRx, g.senderLatestRx) {
		return
	}
	// The receiver cannot have received a seqNo beyond the last one
	// transmitted, so an ACK ahead of lastTx is stale state from a previous
	// sequence epoch — e.g. a control frame stamped before a SeedSequence
	// re-base and still in flight. Trusting it would advance the watermark
	// past packets not yet sent, permanently stranding their Tx-buffer
	// entries behind the cumulative-ACK frontier.
	if seqnum.Less(g.lastTx, latestRx) {
		g.M.AcksStale++
		return
	}
	prev := g.senderLatestRx
	g.senderLatestRx = latestRx
	now := g.rt.Now()
	n := seqnum.Distance(prev, latestRx)
	for i := 1; i <= n; i++ {
		e := g.txGet(prev.Add(i))
		if e == nil || e.released || e.retxReq {
			continue
		}
		e.released = true // claim now; account at the loop boundary
		at, loops := e.nextLoopBoundary(now)
		e.pendLoops = loops
		g.txRetire.add(g.rt.TicketAt(at), e)
	}
}

// txRetxFire is the typed loop-boundary retransmission event: a0 is the
// Instance, a1 the claimed txEntry. N high-priority copies go out, then the
// entry retires.
func txRetxFire(a0, a1 any) {
	g := a0.(*Instance)
	e := a1.(*txEntry)
	g.M.Retransmits++
	for i := 0; i < g.copies; i++ {
		c := g.rt.ClonePacket(e.pkt)
		c.LG.Retx = true
		c.Prio = simnet.PrioHigh
		g.M.RetxCopies++
		g.sendIfc.EnqueueDirect(c)
	}
	g.retire(e)
}

// handleNotif processes a loss notification: for every missing seqNo whose
// buffered copy exists, N copies are retransmitted through the strict
// high-priority queue at the entry's next recirculation-loop boundary
// (§3.4, Appendix A.2). The notification header is read synchronously; the
// caller may release the carrying packet as soon as this returns.
func (g *Instance) handleNotif(n *simnet.LossNotif) {
	g.settleTx()
	now := g.rt.Now()
	for _, seq := range n.MissingSeqs() {
		e := g.txGet(seq)
		if e == nil || e.released {
			continue
		}
		e.released = true // claimed by the retransmission event
		e.retxReq = true
		at, loops := e.nextLoopBoundary(now)
		e.pendLoops = loops
		g.rt.AtCall(at, txRetxFire, g, e)
	}
	// The notification also carries the post-gap latestRxSeqNo.
	g.handleAck(n.LatestRx)
}

// replenishDummiesFire is the typed dummy-pacing event. On an idle link it
// replays both control streams in closed form instead (replay.go).
func replenishDummiesFire(a0, _ any) {
	g := a0.(*Instance)
	if !g.atFixedPoint() || !g.replayStreams(&g.dummy) {
		g.replenishDummies()
	}
}

// seedDummies bootstraps the self-replenishing dummy-packet queue (§3.2):
// a strictly lowest-priority queue whose packets carry the last transmitted
// seqNo, letting the receiver detect tail losses without a timeout. The
// queue is replenished (paced) after each transmission.
func (g *Instance) seedDummies() {
	q := g.sendIfc.Port.Q(simnet.PrioLow)
	if g.dummy.hook == nil {
		g.dummy.hook = func(pkt *simnet.Packet) {
			// Stamp the freshest lastTx at wire time.
			pkt.LG.LastTx = g.lastTx
			g.dummyOut--
			g.M.DummiesSent++
			g.dummy.next = g.rt.AfterCall(g.cfg.DummyInterval, replenishDummiesFire, g, nil)
		}
		chainDequeue(q, g.dummy.hook)
	}
	g.replenishDummies()
}

func (g *Instance) replenishDummies() {
	if !g.enabled || !g.cfg.TailLossDetection || g.dummyOut > 0 {
		return
	}
	d := g.rt.NewPacket(simnet.KindDummy, simtime.MinFrame, "")
	d.Prio = simnet.PrioLow
	d.LG = simnet.LGData{Present: true, Dummy: true}
	g.dummyOut++
	g.sendIfc.EnqueueDirect(d)
}
