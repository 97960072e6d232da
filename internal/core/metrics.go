package core

import (
	"linkguardian/internal/obs"
	"linkguardian/internal/simtime"
)

// Metrics exposes the instrumentation the paper's evaluation reads: buffer
// occupancy (Figure 14), retransmission delays (Figure 19), ackNoTimeout
// counts (§4.1), recirculation overhead (Table 4) and protocol activity
// counters.
type Metrics struct {
	// Sender side.
	Protected    uint64 // packets stamped and transmitted
	Retransmits  uint64 // retransmission events (one per lost packet)
	RetxCopies   uint64 // total retransmitted copies placed on the wire
	DummiesSent  uint64
	TxBufBytes   int    // current Tx buffer occupancy (gauge)
	TxBufPeak    int    // high-water mark
	TxBufDrops   uint64 // packets not buffered because the cap was hit
	SenderLoops  uint64 // Tx-buffer recirculation loop count (Table 4)
	AcksReceived uint64
	AcksStale    uint64 // ACKs discarded for acking beyond lastTx (stale epoch)

	// Receiver side. ReceiverLoops counts a loop that only sends a held
	// packet round again when that loop is replayed, the next time the
	// reordering buffer is touched: a mid-run read (live /metrics) can lag
	// by the loops of packets still held. Once the buffer has drained the
	// total is exact.
	Delivered       uint64 // protected packets forwarded onward
	Duplicates      uint64 // de-duplicated extra retransmission copies
	LossEvents      uint64 // detected gap events
	LostPackets     uint64 // individual missing sequence numbers notified
	TailDetections  uint64 // losses detected via dummy packets
	Timeouts        uint64 // ackNoTimeout firings (§4.1 "Timeouts in practice")
	Unrecovered     uint64 // packets abandoned (timeout in Ordered, never seen in NB)
	RxBufBytes      int    // reordering-buffer occupancy (gauge)
	RxBufPeak       int
	RxBufOverflows  uint64 // reordering-buffer tail drops (Figure 9b)
	ReceiverLoops   uint64 // reordering-buffer recirculation loops (Table 4)
	Pauses, Resumes uint64
	PauseRefreshes  uint64 // quanta-keepalive pause frames re-sent mid-pause
	AcksSent        uint64 // explicit ACK packets
	AcksPiggybacked uint64

	// RetxDelays samples the receiver-observed delay from loss detection
	// to successful receipt of the retransmission (Figure 19). It is a
	// bounded histogram-plus-reservoir rather than a raw slice, so memory
	// stays fixed on multi-hour soaks.
	RetxDelays obs.DelaySample
}

// RecircOverhead returns sender- and receiver-side recirculation overheads
// as fractions of the switch pipeline's packet processing capacity over an
// observation window (Table 4).
func (m *Metrics) RecircOverhead(window simtime.Duration, capacityPps float64) (tx, rx float64) {
	if window <= 0 || capacityPps <= 0 {
		return 0, 0
	}
	secs := window.Seconds()
	return float64(m.SenderLoops) / secs / capacityPps,
		float64(m.ReceiverLoops) / secs / capacityPps
}

// Register exposes every metric of M under the given prefix in an obs
// registry. Counters and gauges are function-backed (read at snapshot time,
// zero hot-path cost); tx_buf_bytes and sender_loops settle the instance
// first, since Tx-buffer retirements are applied lazily. The
// retransmission-delay histogram is adopted directly.
func (g *Instance) Register(r *obs.Registry, prefix string) {
	m := &g.M
	p := func(name string) string { return prefix + "." + name }
	counters := []struct {
		name string
		v    *uint64
	}{
		{"protected", &m.Protected},
		{"retransmits", &m.Retransmits},
		{"retx_copies", &m.RetxCopies},
		{"dummies_sent", &m.DummiesSent},
		{"tx_buf_drops", &m.TxBufDrops},
		{"acks_received", &m.AcksReceived},
		{"acks_stale", &m.AcksStale},
		{"delivered", &m.Delivered},
		{"duplicates", &m.Duplicates},
		{"loss_events", &m.LossEvents},
		{"lost_packets", &m.LostPackets},
		{"tail_detections", &m.TailDetections},
		{"timeouts", &m.Timeouts},
		{"unrecovered", &m.Unrecovered},
		{"rx_buf_overflows", &m.RxBufOverflows},
		{"receiver_loops", &m.ReceiverLoops},
		{"pauses", &m.Pauses},
		{"resumes", &m.Resumes},
		{"pause_refreshes", &m.PauseRefreshes},
		{"acks_sent", &m.AcksSent},
		{"acks_piggybacked", &m.AcksPiggybacked},
	}
	for _, c := range counters {
		v := c.v
		r.CounterFunc(p(c.name), func() uint64 { return *v })
	}
	r.CounterFunc(p("sender_loops"), func() uint64 { g.settleTx(); return m.SenderLoops })
	r.GaugeFunc(p("tx_buf_bytes"), func() float64 { g.settleTx(); return float64(m.TxBufBytes) })
	r.GaugeFunc(p("tx_buf_peak"), func() float64 { return float64(m.TxBufPeak) })
	r.GaugeFunc(p("rx_buf_bytes"), func() float64 { return float64(m.RxBufBytes) })
	r.GaugeFunc(p("rx_buf_peak"), func() float64 { return float64(m.RxBufPeak) })
	r.AddHistogram(p("retx_delay_us"), m.RetxDelays.Hist())
}
