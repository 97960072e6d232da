package simnet

import (
	"fmt"
	"strings"

	"linkguardian/internal/simtime"
)

// TraceEvent records one frame crossing a tapped link, as a hardware tap or
// mirror session would see it — including frames the receiving MAC then
// drops as corrupted.
type TraceEvent struct {
	At        simtime.Time
	Link      string // transmitting interface name
	Kind      Kind
	Size      int
	FlowID    int
	Corrupted bool

	// LinkGuardian header fields, when present.
	HasLG      bool
	Seq        uint16
	Era        uint8
	Retx       bool
	Dummy      bool
	AckValid   bool
	AckSeq     uint16
	NotifCount int // missing seqNos in a loss notification
}

// String renders the event compactly for logs.
func (e TraceEvent) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12v %-16s %-10v %4dB", e.At, e.Link, e.Kind, e.Size)
	if e.HasLG {
		fmt.Fprintf(&b, " seq=%d:%d", e.Era, e.Seq)
		if e.Retx {
			b.WriteString(" retx")
		}
		if e.Dummy {
			b.WriteString(" dummy")
		}
	}
	if e.AckValid {
		fmt.Fprintf(&b, " ack=%d", e.AckSeq)
	}
	if e.NotifCount > 0 {
		fmt.Fprintf(&b, " notif[%d]", e.NotifCount)
	}
	if e.Corrupted {
		b.WriteString(" CORRUPTED")
	}
	return b.String()
}

// Tracer is a bounded ring of trace events. The zero value is unusable;
// create with NewTracer.
type Tracer struct {
	events []TraceEvent
	head   int
	full   bool

	// Seen counts all events offered, including those that overwrote
	// older entries.
	Seen uint64
}

// NewTracer creates a tracer keeping the most recent capacity events.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Tracer{events: make([]TraceEvent, 0, capacity)}
}

func (t *Tracer) record(e TraceEvent) {
	t.Seen++
	if len(t.events) < cap(t.events) {
		t.events = append(t.events, e)
		return
	}
	t.full = true
	t.events[t.head] = e
	t.head = (t.head + 1) % cap(t.events)
}

// Events returns the retained events, oldest first.
func (t *Tracer) Events() []TraceEvent {
	if !t.full {
		return append([]TraceEvent(nil), t.events...)
	}
	out := make([]TraceEvent, 0, len(t.events))
	out = append(out, t.events[t.head:]...)
	out = append(out, t.events[:t.head]...)
	return out
}

// Filter returns the retained events satisfying keep, oldest first.
func (t *Tracer) Filter(keep func(TraceEvent) bool) []TraceEvent {
	var out []TraceEvent
	for _, e := range t.Events() {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}

// Tap attaches the tracer to a link: every frame transmitted in either
// direction is recorded at its delivery decision point, with the
// corruption verdict. Multiple taps stack.
func (t *Tracer) Tap(sim *Sim, l *Link) { t.TapIf(sim, l, nil) }

// TapIf is Tap restricted to events satisfying keep (nil keeps everything).
// A filtered ring retains interesting history — e.g. protected data frames —
// that a full ring would rotate out under a flood of control frames.
func (t *Tracer) TapIf(sim *Sim, l *Link, keep func(TraceEvent) bool) {
	l.TapDeliver(func(pkt *Packet, from *Ifc, corrupted bool) {
		e := TraceEvent{
			At:        sim.Now(),
			Link:      from.Name,
			Kind:      pkt.Kind,
			Size:      pkt.Size,
			FlowID:    pkt.FlowID,
			Corrupted: corrupted,
		}
		if pkt.LG.Present {
			e.HasLG = true
			e.Seq = pkt.LG.Seq.N
			e.Era = pkt.LG.Seq.Era
			e.Retx = pkt.LG.Retx
			e.Dummy = pkt.LG.Dummy
		}
		if pkt.LGAck.Present && pkt.LGAck.Valid {
			e.AckValid = true
			e.AckSeq = pkt.LGAck.LatestRx.N
		}
		if pkt.Notif.Present {
			e.NotifCount = pkt.Notif.Count
		}
		if keep != nil && !keep(e) {
			return
		}
		t.record(e)
	})
}
