package chaos

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"linkguardian/internal/core"
	"linkguardian/internal/seqnum"
	"linkguardian/internal/simnet"
	"linkguardian/internal/simtime"
)

// Invariant rule names, as they appear in violation reports.
const (
	RuleDuplicate   = "duplicate-delivery"  // a seqNo forwarded to the IP layer twice
	RuleOrdering    = "out-of-order"        // Ordered mode forwarded a seqNo backwards
	RuleSeqReuse    = "seq-reuse"           // a seqNo re-stamped while still live
	RuleOccupancyTx = "tx-buffer-occupancy" // Tx buffer outside [0, RecircBufBytes]
	RuleOccupancyRx = "rx-buffer-occupancy" // reordering buffer outside [0, RecircBufBytes]
	RuleLiveness    = "lost-unaccounted"    // packets neither delivered nor accounted lost
	RuleEffLoss     = "effective-loss"      // in-envelope run exceeded the target loss rate
	RuleUseAfterRel = "use-after-release"   // a free-listed packet observed in the dataplane
	RuleExpectation = "family-expectation"  // a fault family's end-of-run expectation failed
)

// maxViolationDetails bounds how many occurrence details one rule retains
// (first occurrence plus up to maxViolationDetails-1 later ones). Count keeps
// the full total; only the details are capped, so a composite-fault run that
// fires a rule thousands of times still yields a small, byte-stable report
// with enough forensics to triage in one pass.
const maxViolationDetails = 8

// Occurrence is one retained firing of a rule beyond the first.
type Occurrence struct {
	At     simtime.Time
	Detail string
}

// Violation aggregates every firing of one invariant rule: a bounded list of
// occurrence details (the first plus up to maxViolationDetails-1 more) and a
// total count. Aggregation keeps soak reports small and their comparison
// across runs exact.
type Violation struct {
	Rule   string
	At     simtime.Time // first occurrence
	Count  int
	Detail string // first occurrence

	// More holds the 2nd through maxViolationDetails-th occurrences; firings
	// beyond the cap only bump Count.
	More []Occurrence
}

func (v Violation) String() string {
	if len(v.More) == 0 {
		return fmt.Sprintf("[%s] x%d first@%v: %s", v.Rule, v.Count, v.At, v.Detail)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] x%d first@%v: %s", v.Rule, v.Count, v.At, v.Detail)
	for _, o := range v.More {
		fmt.Fprintf(&b, "\n    +@%v: %s", o.At, o.Detail)
	}
	if elided := v.Count - 1 - len(v.More); elided > 0 {
		fmt.Fprintf(&b, "\n    ... %d more occurrence(s)", elided)
	}
	return b.String()
}

// deliveredWindow is how many sequence numbers behind the newest forwarded
// seqNo the checker remembers deliveries, for duplicate detection. It is
// far larger than the protocol can hold in flight (the 200KB buffers cap
// in-flight packets at a few hundred) and far smaller than the era-wrap
// reuse period, so neither misses nor false positives are possible.
const deliveredWindow = 16384

// Checker watches one LinkGuardian instance during a run and asserts the
// protocol's safety and liveness invariants online:
//
//   - no duplicate delivery: each protected seqNo reaches the IP layer at
//     most once;
//   - in-order delivery while in Ordered mode: forwarded seqNos strictly
//     increase (timeout skips move forward, never backward);
//   - no seqNo reuse while a previous packet with that number is live;
//   - bounded occupancy: both recirculation buffers stay within
//     [0, RecircBufBytes] at all times;
//   - eventual delivery or accounted loss: at quiesce, every transmitted
//     seqNo was forwarded, or is covered by the unrecovered/overflow
//     accounting (Finish);
//   - effective loss rate: when every injected fault stays inside the
//     Table 1 envelope, end-to-end losses stay within the Equation 2
//     target plus statistical slack (Finish).
type Checker struct {
	sim *simnet.Sim
	g   *core.Instance

	// linkDelay is the protected link's propagation delay, used to place the
	// mid-flight use-after-release probe strictly between transmission and
	// delivery of a frame.
	linkDelay simtime.Duration

	// outstanding maps original transmitted seqNos to their wire time,
	// until forwarded. delivered remembers recently forwarded seqNos;
	// deliveredFifo evicts them once deliveredWindow behind the newest.
	outstanding   map[seqnum.Seq]simtime.Time
	delivered     map[seqnum.Seq]struct{}
	deliveredFifo []seqnum.Seq
	deliveredHi   seqnum.Seq

	lastFwd  seqnum.Seq
	haveFwd  bool
	lastMode core.Mode

	txUnique  uint64 // distinct original seqNos seen on the wire
	forwarded uint64 // OnForward observations

	byRule     map[string]*Violation
	violations []*Violation
	expects    []expectation

	// OnViolation, if set, is called at the first firing of each rule —
	// the flight recorder's hook for snapshotting the trace ring while the
	// offending packets are still in it.
	OnViolation func(Violation)
}

// Watch attaches a checker to the instance protecting the direction
// transmitted by protected (an interface of link). sampleEvery paces the
// occupancy sampler; <= 0 disables periodic sampling (occupancy is still
// checked at every delivery).
func Watch(sim *simnet.Sim, link *simnet.Link, protected *simnet.Ifc, g *core.Instance, sampleEvery simtime.Duration) *Checker {
	c := &Checker{
		sim:         sim,
		g:           g,
		linkDelay:   link.Delay,
		outstanding: map[seqnum.Seq]simtime.Time{},
		delivered:   map[seqnum.Seq]struct{}{},
		lastMode:    g.Mode(),
		byRule:      map[string]*Violation{},
	}
	link.TapDeliver(func(pkt *simnet.Packet, from *simnet.Ifc, corrupted bool) {
		if from == protected {
			c.onWire(pkt, corrupted)
		}
	})
	g.OnForward(c.onForward)
	if sampleEvery > 0 {
		sim.Every(sampleEvery, func() bool {
			c.checkOccupancy()
			return true
		})
	}
	return c
}

// expectation is a named end-of-run check registered by a fault family.
type expectation struct {
	name string
	fn   func() string
}

// Expect registers an end-of-run expectation, evaluated in Finish in
// registration order: fn returns "" when satisfied, or a detail string that
// is flagged under RuleExpectation. Fault families use this to assert their
// family-specific invariants (e.g. an asymmetric fault must leave the
// unprotected direction untouched) on top of the protocol-level rules.
func (c *Checker) Expect(name string, fn func() string) {
	c.expects = append(c.expects, expectation{name: name, fn: fn})
}

// flag records one firing of a rule: details are retained up to
// maxViolationDetails occurrences, every firing bumps the count.
func (c *Checker) flag(rule, detail string, args ...any) {
	if v, ok := c.byRule[rule]; ok {
		v.Count++
		if 1+len(v.More) < maxViolationDetails {
			v.More = append(v.More, Occurrence{At: c.sim.Now(), Detail: fmt.Sprintf(detail, args...)})
		}
		return
	}
	v := &Violation{Rule: rule, At: c.sim.Now(), Count: 1, Detail: fmt.Sprintf(detail, args...)}
	c.byRule[rule] = v
	c.violations = append(c.violations, v)
	if c.OnViolation != nil {
		c.OnViolation(*v)
	}
}

// onWire observes every frame put on the wire in the protected direction,
// before the corruption verdict takes effect. Original (non-retransmitted)
// protected data packets enter the liveness ledger here. Every frame is also
// screened by the use-after-release detector, keyed on the packet pool's
// generation counter.
func (c *Checker) onWire(pkt *simnet.Packet, corrupted bool) {
	c.checkOccupancy()
	if pkt.Released() {
		c.flag(RuleUseAfterRel, "frame %d (kind %v) transmitted while in the free list", pkt.ID, pkt.Kind)
	}
	if !corrupted && c.linkDelay > 0 {
		// The frame is in flight until it reaches the receiving MAC one
		// propagation delay from now; nothing may release or recycle it
		// before then. Probe halfway: a generation change means some
		// terminal point released a packet it no longer owned.
		p, gen := pkt, pkt.PoolGen()
		c.sim.After(c.linkDelay/2, func() {
			if p.Released() || p.PoolGen() != gen {
				c.flag(RuleUseAfterRel,
					"in-flight frame recycled mid-propagation (pool gen %d -> %d, released=%v)",
					gen, p.PoolGen(), p.Released())
			}
		})
	}
	if pkt.Kind != simnet.KindData || !pkt.LG.Present || pkt.LG.Dummy || pkt.LG.Retx {
		return
	}
	seq := pkt.LG.Seq
	if _, live := c.outstanding[seq]; live {
		c.flag(RuleSeqReuse, "seq %v re-stamped while a previous packet with it is undelivered", seq)
		return
	}
	if _, recent := c.delivered[seq]; recent {
		c.flag(RuleSeqReuse, "seq %v re-stamped within %d seqNos of its last delivery", seq, deliveredWindow)
		return
	}
	c.outstanding[seq] = c.sim.Now()
	c.txUnique++
}

// onForward observes every packet the receiver hands to the IP layer.
func (c *Checker) onForward(pkt *simnet.Packet) {
	c.checkOccupancy()
	if pkt.Released() {
		c.flag(RuleUseAfterRel, "frame %d forwarded to the IP layer while in the free list", pkt.ID)
	}
	if !pkt.LG.Present {
		return
	}
	seq := pkt.LG.Seq
	c.forwarded++
	delete(c.outstanding, seq)

	if _, dup := c.delivered[seq]; dup {
		c.flag(RuleDuplicate, "seq %v forwarded to the IP layer twice", seq)
		return
	}
	c.delivered[seq] = struct{}{}
	c.deliveredFifo = append(c.deliveredFifo, seq)
	if len(c.delivered) == 1 || seqnum.Less(c.deliveredHi, seq) {
		c.deliveredHi = seq
	}
	// Evict deliveries that have fallen far enough behind the frontier
	// that a late duplicate is impossible; this keeps the window well
	// clear of era-wrap aliasing.
	for len(c.deliveredFifo) > 0 {
		front := c.deliveredFifo[0]
		if seqnum.Distance(front, c.deliveredHi) <= deliveredWindow {
			break
		}
		delete(c.delivered, front)
		c.deliveredFifo = c.deliveredFifo[1:]
	}

	// Ordering applies only while the instance is enabled and Ordered; a
	// mode switch or a disable-drain resets the cursor.
	if mode := c.g.Mode(); mode != c.lastMode {
		c.lastMode = mode
		c.haveFwd = false
	}
	if !c.g.Enabled() || c.lastMode != core.Ordered {
		c.haveFwd = false
		return
	}
	if c.haveFwd && !seqnum.Less(c.lastFwd, seq) {
		c.flag(RuleOrdering, "seq %v forwarded after %v in Ordered mode", seq, c.lastFwd)
	}
	c.lastFwd = seq
	c.haveFwd = true
}

// checkOccupancy asserts both recirculation buffers stay within bounds.
func (c *Checker) checkOccupancy() {
	cap := c.g.Config().RecircBufBytes
	c.g.Settle()
	if tx := c.g.M.TxBufBytes; tx < 0 || tx > cap {
		c.flag(RuleOccupancyTx, "Tx buffer at %d bytes, bounds [0, %d]", tx, cap)
	}
	if rx := c.g.RxHeldBytes(); rx < 0 || rx > cap {
		c.flag(RuleOccupancyRx, "reordering buffer at %d bytes, bounds [0, %d]", rx, cap)
	}
}

// Quiesced reports whether the instance has no recovery work left: no open
// loss records, an empty reordering buffer, and an empty Tx buffer.
func (c *Checker) Quiesced() bool {
	return c.g.MissingCount() == 0 && c.g.RxHeldBytes() == 0 && c.g.OutstandingTx() == 0
}

// Finish runs the end-of-run invariants and returns every violation
// recorded during the run, in first-occurrence order. inEnvelope asserts
// the effective-loss-rate bound; it must be true only when all injected
// faults (and the baseline loss model) stayed within the Table 1 envelope
// of maxLossRate.
func (c *Checker) Finish(inEnvelope bool, maxLossRate float64) []Violation {
	// Liveness: whatever was transmitted and never forwarded must be
	// covered by the receiver's loss accounting. Extra retransmission
	// copies can inflate the overflow counter past the per-seq count, so
	// the accounting is an at-least bound, not an equality.
	if lost := len(c.outstanding); lost > 0 {
		accounted := c.g.M.Unrecovered + c.g.M.RxBufOverflows
		if uint64(lost) > accounted {
			c.flag(RuleLiveness,
				"%d transmitted packets neither delivered nor accounted (unrecovered=%d, overflows=%d); e.g. seqs %v",
				lost, c.g.M.Unrecovered, c.g.M.RxBufOverflows, c.sampleOutstanding(5))
		}
	}
	if inEnvelope && c.txUnique > 0 {
		lost := len(c.outstanding)
		if allowed := c.allowedLosses(maxLossRate); lost > allowed {
			c.flag(RuleEffLoss,
				"%d of %d packets lost end-to-end, above the in-envelope allowance of %d (rate<=%.0e, N=%d)",
				lost, c.txUnique, allowed, maxLossRate, c.g.Copies())
		}
	}
	for _, e := range c.expects {
		if msg := e.fn(); msg != "" {
			c.flag(RuleExpectation, "%s: %s", e.name, msg)
		}
	}
	out := make([]Violation, len(c.violations))
	for i, v := range c.violations {
		out[i] = *v
	}
	return out
}

// allowedLosses is the statistical allowance for end-to-end losses in an
// in-envelope run: ten times the Equation 2 expectation plus an absolute
// slack of two, so the zero-violation soak never trips on the (astronomically
// unlikely but possible) loss of every copy of a packet or two.
func (c *Checker) allowedLosses(maxLossRate float64) int {
	expected := float64(c.txUnique) * math.Pow(maxLossRate, float64(c.g.Copies()+1))
	return 2 + int(math.Ceil(10*expected))
}

// sampleOutstanding returns up to n undelivered seqNos in ascending order,
// for deterministic violation details.
func (c *Checker) sampleOutstanding(n int) []seqnum.Seq {
	all := make([]seqnum.Seq, 0, len(c.outstanding))
	for s := range c.outstanding {
		all = append(all, s)
	}
	sort.Slice(all, func(i, j int) bool { return seqnum.Less(all[i], all[j]) })
	if len(all) > n {
		all = all[:n]
	}
	return all
}

// TxUnique returns the number of distinct protected seqNos transmitted.
func (c *Checker) TxUnique() uint64 { return c.txUnique }

// Forwarded returns the number of packets handed to the IP layer.
func (c *Checker) Forwarded() uint64 { return c.forwarded }

// Outstanding returns the number of transmitted-but-undelivered seqNos.
func (c *Checker) Outstanding() int { return len(c.outstanding) }
