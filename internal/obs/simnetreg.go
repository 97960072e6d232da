package obs

import (
	"fmt"

	"linkguardian/internal/simnet"
)

// RegisterPort exposes a port's transmit counters, per-class queue state
// and PFC pause/resume counters under the given metric prefix. All metrics
// are function-backed: registration costs nothing on the simulation's hot
// path, values are read at snapshot time.
func RegisterPort(r *Registry, prefix string, p *simnet.Port) {
	r.CounterFunc(prefix+".tx_frames", func() uint64 { return p.TxFrames })
	r.CounterFunc(prefix+".tx_bytes", func() uint64 { return p.TxBytes })
	r.CounterFunc(prefix+".busy_ns", func() uint64 { return uint64(p.BusyTime) })
	r.GaugeFunc(prefix+".queued_bytes", func() float64 { return float64(p.QueuedBytes()) })
	for class := 0; class < simnet.NumPrios; class++ {
		q := p.Q(class)
		qp := fmt.Sprintf("%s.q%d", prefix, class)
		r.GaugeFunc(qp+".bytes", func() float64 { return float64(q.Bytes()) })
		r.CounterFunc(qp+".drops", func() uint64 { return q.Drops })
		r.CounterFunc(qp+".pauses", func() uint64 { return q.Pauses })
		r.CounterFunc(qp+".resumes", func() uint64 { return q.Resumes })
		r.CounterFunc(qp+".pause_expiries", func() uint64 { return q.PauseExpiries })
	}
}

// RegisterIfc exposes an interface's ingress MAC frame counters — the
// framesRxAll/framesRxOk counters corruptd polls (points A–D of Fig. 7).
func RegisterIfc(r *Registry, prefix string, ifc *simnet.Ifc) {
	r.CounterFunc(prefix+".rx_all", func() uint64 { return ifc.In.RxAll })
	r.CounterFunc(prefix+".rx_ok", func() uint64 { return ifc.In.RxOk })
	r.CounterFunc(prefix+".rx_bad", func() uint64 { return ifc.In.RxBad })
	r.CounterFunc(prefix+".rx_bytes_ok", func() uint64 { return ifc.In.RxBytesOk })
}

// RegisterLink exposes both directions of a link: each interface's ingress
// counters and egress port under "<prefix>.<ifc name>".
func RegisterLink(r *Registry, prefix string, l *simnet.Link) {
	for _, ifc := range []*simnet.Ifc{l.A(), l.B()} {
		p := prefix + "." + ifc.Name
		RegisterIfc(r, p+".in", ifc)
		RegisterPort(r, p+".port", ifc.Port)
	}
}
