// Package core implements LinkGuardian: link-local retransmission that
// masks corruption packet losses between a sender switch and a receiver
// switch (§3 of the paper).
//
// A LinkGuardian instance protects one direction of one link. The sender
// side stamps each transmitted packet with a 16-bit sequence number (plus
// era bit), buffers a copy in a recirculation-based Tx buffer, and
// retransmits N copies through a strict high-priority queue when the
// receiver notifies a loss. The receiver side detects losses from sequence
// gaps, acknowledges via piggybacked and self-replenishing explicit ACKs
// (§3.1), detects tail losses with a self-replenishing dummy-packet queue at
// the sender (§3.2), optionally restores ordering with a recirculation
// reordering buffer protected by PFC-based backpressure (§3.3, Algorithms 1
// and 2), and falls back to an ackNoTimeout when every copy of a packet is
// lost (§3.5).
//
// The non-blocking variant (LinkGuardianNB) disables the reordering buffer
// and forwards retransmissions out of order, trading ordering for lower
// overheads (§4.3–§4.4).
package core

import (
	"linkguardian/internal/lgmodel"
	"linkguardian/internal/simtime"
)

// Mode selects between the ordered (default) and non-blocking variants.
type Mode int

// Operation modes (§3, "Operation modes").
const (
	// Ordered is LinkGuardian's default mode: packet order is preserved
	// using the receiver-side reordering buffer.
	Ordered Mode = iota
	// NonBlocking is LinkGuardianNB: retransmissions are forwarded out of
	// order and no receiver-side buffering is used.
	NonBlocking
)

func (m Mode) String() string {
	if m == NonBlocking {
		return "LG_NB"
	}
	return "LG"
}

// Config parameterizes a LinkGuardian instance. NewConfig fills in the
// paper's defaults for a given link speed and measured loss rate.
type Config struct {
	// Mode selects ordered LinkGuardian or non-blocking LinkGuardianNB.
	Mode Mode

	// TargetLossRate is the operator-specified effective loss rate the
	// instance must achieve (§3.4). Default 1e-8.
	TargetLossRate float64

	// ActualLossRate is the measured corruption loss rate of the link, as
	// reported by the monitoring daemon. With RetxCopies == 0 it feeds
	// Equation 2 to pick the number of retransmitted copies.
	ActualLossRate float64

	// RetxCopies, if positive, overrides Equation 2's choice of N.
	RetxCopies int

	// CtrlCopies is the number of copies sent for control messages (loss
	// notifications and PFC pause/resume). Default 1: the reverse
	// direction is assumed lossless (§3). Raising it lets a control
	// message survive the loss of a copy; the chaos scenarios that corrupt
	// control frames and the live dataplane do. Duplicates are absorbed
	// idempotently.
	CtrlCopies int

	// TailLossDetection enables the dummy-packet queue (§3.2). Disabled
	// only by the Table 2 mechanism-ablation experiments.
	TailLossDetection bool

	// Backpressure enables Algorithm 2's pause/resume mechanism in
	// Ordered mode. Disabling it reproduces Figure 9b's overflow behavior.
	Backpressure bool

	// AckNoTimeout bounds how long the ordered receiver stalls waiting for
	// a retransmission before skipping the lost packet (§3.5). The paper
	// uses 7.5µs at 25G and 7µs at 100G.
	AckNoTimeout simtime.Duration

	// PauseThreshold and ResumeThreshold are the reordering-buffer byte
	// levels of Algorithm 2 (Figure 6).
	PauseThreshold, ResumeThreshold int

	// MaxConsecutiveLoss is the number of 1-bit reTxReqs registers the
	// sender provisions; losses of longer runs are only recovered via the
	// ackNoTimeout path. The implementation provisions 5 (§3.5).
	MaxConsecutiveLoss int

	// RecircRate and PipelineLatency define the recirculation loop used
	// for both the Tx buffer and the reordering buffer. The recirculation
	// port runs at 100G regardless of the protected link's speed.
	RecircRate      simtime.Rate
	PipelineLatency simtime.Duration

	// RecircLoopLatency is the flight time of one receiver-side
	// reordering-buffer recirculation: egress-to-ingress turnaround of a
	// dedicated recirculation port, much shorter than a full forwarding
	// pipeline traversal. A packet that loses its Algorithm 1 race pays
	// this penalty before being re-checked; making it a full pipeline
	// traversal would collapse the post-recovery drain rate and pause the
	// link far more than the ~8% of Figure 8.
	RecircLoopLatency simtime.Duration

	// RecircPorts is the number of internal recirculation ports serving
	// the instance (switch pipes have ~2 per pipe, §5). The reordering
	// buffer drains at RecircPorts × RecircRate in aggregate — without
	// the second port, a 100G protected link could never clear its
	// reordering backlog between losses and would pause far more than
	// the ~8% the paper measures.
	RecircPorts int

	// RecircBufBytes caps the recirculation buffers (the testbed restricts
	// them to 200KB, §4).
	RecircBufBytes int

	// TimerQuantum is the period of the switch packet generator's timer
	// packets used for timekeeping (10Mpps → 100ns, §3.5). Timeout checks
	// and pause/resume transmissions are quantized to it.
	TimerQuantum simtime.Duration

	// PauseQuanta bounds how long a single PFC pause frame holds the
	// sender's queue without a refresh (real PFC pause-quanta semantics).
	// While the reordering buffer stays above the resume threshold the
	// receiver refreshes the pause every PauseRefresh, so the bound only
	// bites when control frames are corrupted: a lost resume stalls the
	// sender for at most one quantum instead of forever (§5, "Handling
	// bursty losses"). Zero disables expiry (legacy infinite pause).
	PauseQuanta  simtime.Duration
	PauseRefresh simtime.Duration

	// AckInterval and DummyInterval pace the self-replenishing queues.
	// The hardware replenishes per-packet at line rate; pacing to 200ns
	// keeps simulation cost sane while preserving sub-µs signal freshness.
	AckInterval, DummyInterval simtime.Duration

	// PipelineCapacityPps is the switch pipeline's packet processing
	// capacity, used only to report recirculation overhead as a fraction
	// (Table 4). The paper's 10Mpps timer stream is ~1% of capacity,
	// implying ~1Gpps.
	PipelineCapacityPps float64
}

// NewConfig returns the paper's parameterization for a link of the given
// speed with the given measured corruption loss rate (§4 "Parameters" and
// Appendix B.1).
func NewConfig(speed simtime.Rate, actualLossRate float64) Config {
	c := Config{
		Mode:                Ordered,
		TargetLossRate:      1e-8,
		ActualLossRate:      actualLossRate,
		TailLossDetection:   true,
		Backpressure:        true,
		MaxConsecutiveLoss:  5,
		RecircRate:          simtime.Rate100G,
		RecircPorts:         2,
		RecircLoopLatency:   500 * simtime.Nanosecond,
		PipelineLatency:     1500 * simtime.Nanosecond,
		RecircBufBytes:      200 << 10,
		TimerQuantum:        100 * simtime.Nanosecond,
		PauseQuanta:         10 * simtime.Microsecond,
		PauseRefresh:        4 * simtime.Microsecond,
		AckInterval:         200 * simtime.Nanosecond,
		DummyInterval:       200 * simtime.Nanosecond,
		PipelineCapacityPps: 1e9,
	}
	switch {
	case speed >= simtime.Rate100G:
		c.AckNoTimeout = 7 * simtime.Microsecond
		c.ResumeThreshold = 37 << 10
	case speed >= simtime.Rate25G:
		c.AckNoTimeout = 7500 * simtime.Nanosecond
		c.ResumeThreshold = 40 << 10
	default:
		c.AckNoTimeout = 8 * simtime.Microsecond
		c.ResumeThreshold = 40 << 10
	}
	// Fixed 2-MTU hysteresis above the resume threshold (§3.3).
	c.PauseThreshold = c.ResumeThreshold + 2*simtime.MTUFrame
	return c
}

// Copies returns the number of retransmitted copies N per Equation 2:
// the smallest integer N with actual^(N+1) <= target. A zero or unknown
// actual loss rate yields 1.
func (c Config) Copies() int {
	if c.RetxCopies > 0 {
		return c.RetxCopies
	}
	return lgmodel.CopiesFor(c.ActualLossRate, c.TargetLossRate)
}
