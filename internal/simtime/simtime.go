// Package simtime provides the simulated clock type and link-rate helpers
// used throughout the LinkGuardian simulator.
//
// Simulated time is an int64 count of nanoseconds since the start of the
// simulation. All scheduling, serialization and propagation arithmetic is
// integer arithmetic on this type, which keeps runs bit-for-bit
// deterministic across platforms.
package simtime

import (
	"fmt"
	"time"
)

// Time is a simulated instant, in nanoseconds since the simulation epoch.
type Time int64

// Duration is a span of simulated time, in nanoseconds. It is kept distinct
// from time.Duration only by convention; the two convert freely.
type Duration = time.Duration

// Common spans, re-exported for call-site brevity.
const (
	Nanosecond  = time.Nanosecond
	Microsecond = time.Microsecond
	Millisecond = time.Millisecond
	Second      = time.Second
)

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the span from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t precedes u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t follows u.
func (t Time) After(u Time) bool { return t > u }

// Seconds returns t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// String formats the instant as a duration since the epoch, e.g. "1.5ms".
func (t Time) String() string { return Duration(t).String() }

// Rate is a link or pipeline speed in bits per second.
type Rate int64

// Convenience rates for the link speeds evaluated in the paper.
const (
	Gbps Rate = 1e9
	Mbps Rate = 1e6
	Kbps Rate = 1e3

	Rate10G  = 10 * Gbps
	Rate25G  = 25 * Gbps
	Rate40G  = 40 * Gbps
	Rate50G  = 50 * Gbps
	Rate100G = 100 * Gbps
)

// String formats the rate using the conventional G/M/K suffixes.
func (r Rate) String() string {
	switch {
	case r >= Gbps && r%Gbps == 0:
		return fmt.Sprintf("%dG", int64(r/Gbps))
	case r >= Mbps && r%Mbps == 0:
		return fmt.Sprintf("%dM", int64(r/Mbps))
	case r >= Kbps && r%Kbps == 0:
		return fmt.Sprintf("%dK", int64(r/Kbps))
	default:
		return fmt.Sprintf("%dbps", int64(r))
	}
}

// Serialize returns the time to put wireBytes bytes on a link of rate r,
// rounded up to the next nanosecond so that back-to-back transmissions never
// overlap. A zero or negative rate panics: it is always a configuration bug.
func (r Rate) Serialize(wireBytes int) Duration {
	if r <= 0 {
		panic("simtime: non-positive rate")
	}
	bits := int64(wireBytes) * 8
	// ceil(bits * 1e9 / r) without overflow for realistic sizes
	// (wireBytes < 1e9, r <= 400e9).
	ns := (bits*1e9 + int64(r) - 1) / int64(r)
	return Duration(ns)
}

// BytesIn returns how many bytes a link of rate r drains in d. Partial bytes
// are truncated.
func (r Rate) BytesIn(d Duration) int64 {
	if d <= 0 {
		return 0
	}
	return int64(r) / 8 * int64(d) / 1e9
}

// Ethernet physical-layer constants. Every frame on the wire carries a
// 7-byte preamble, 1-byte start-of-frame delimiter and a minimum 12-byte
// inter-frame gap in addition to the L2 frame itself, so an MTU-sized
// 1518-byte frame occupies 1538 bytes of wire time (§4.6 of the paper).
const (
	EthPreambleSFD   = 8
	EthInterFrameGap = 12
	EthOverhead      = EthPreambleSFD + EthInterFrameGap // 20

	EthHeaderFCS = 18   // 14-byte header + 4-byte FCS
	MTU          = 1500 // L3 payload bytes
	MTUFrame     = MTU + EthHeaderFCS
	MinFrame     = 64
)

// WireBytes returns the wire occupancy of an L2 frame of the given size,
// clamping to the Ethernet minimum frame and adding preamble and IFG.
func WireBytes(frameBytes int) int {
	if frameBytes < MinFrame {
		frameBytes = MinFrame
	}
	return frameBytes + EthOverhead
}
