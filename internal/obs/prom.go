package obs

import (
	"bufio"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// promName sanitizes a registry metric name into the Prometheus exposition
// alphabet [a-zA-Z0-9_:]: the registry's dotted hierarchy ("lg.protected",
// "live.flow.rx") becomes underscore-separated, and any other illegal rune —
// including an illegal leading digit — is replaced the same way.
func promName(name string) string {
	b := []byte(name)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				b[i] = '_'
			}
		default:
			b[i] = '_'
		}
	}
	return string(b)
}

// promFloat renders a float the way Prometheus expects: shortest exact
// decimal, with +Inf/-Inf/NaN spelled out.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Label is one Prometheus label pair.
type Label struct {
	Key, Value string
}

// LabeledSnapshot pairs a registry snapshot with the label set that
// distinguishes it from its siblings — e.g. {link="3",role="sender"} for
// one protected link of a multi-tenant live daemon. A lone snapshot needs
// no labels.
type LabeledSnapshot struct {
	Labels []Label
	Snap   Snapshot
}

// promLabelValue escapes a label value per the exposition format.
func promLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// promLabels renders a label set as `{k="v",...}`, or "" when empty.
// extra, if non-empty, is appended as a pre-rendered pair (the histogram
// writer passes `le="..."`).
func promLabels(labels []Label, extra string) string {
	if len(labels) == 0 && extra == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(promName(l.Key))
		b.WriteString(`="`)
		b.WriteString(promLabelValue(l.Value))
		b.WriteString(`"`)
	}
	if extra != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra)
	}
	b.WriteByte('}')
	return b.String()
}

// metricOrder returns the union of metric names across the snapshots in
// first-seen order, so every series of one metric is emitted contiguously
// under a single TYPE line — the exposition format requires it.
func metricOrder(n int, name func(snap, idx int) (string, bool)) []string {
	var order []string
	seen := make(map[string]bool)
	for s := 0; s < n; s++ {
		for i := 0; ; i++ {
			nm, ok := name(s, i)
			if !ok {
				break
			}
			if !seen[nm] {
				seen[nm] = true
				order = append(order, nm)
			}
		}
	}
	return order
}

// WritePrometheusLabeled renders labeled snapshots as one page in the
// Prometheus text exposition format (version 0.0.4). Counters map to
// counter metrics, gauges to a gauge plus a companion <name>_hwm gauge
// carrying the high-water mark, and histograms to the usual cumulative
// _bucket/_sum/_count family. Samples of the same metric from different
// snapshots share one TYPE line and differ only in their label sets: this
// is how a multi-tenant process exposes per-link registries on a single
// /metrics endpoint without renaming any metric.
func WritePrometheusLabeled(w io.Writer, snaps []LabeledSnapshot) error {
	bw := bufio.NewWriter(w)
	labels := make([]string, len(snaps))
	for i := range snaps {
		labels[i] = promLabels(snaps[i].Labels, "")
	}

	order := metricOrder(len(snaps), func(s, i int) (string, bool) {
		if i >= len(snaps[s].Snap.Counters) {
			return "", false
		}
		return snaps[s].Snap.Counters[i].Name, true
	})
	for _, nm := range order {
		n := promName(nm)
		bw.WriteString("# TYPE " + n + " counter\n")
		for i := range snaps {
			for _, c := range snaps[i].Snap.Counters {
				if c.Name == nm {
					bw.WriteString(n + labels[i] + " " + strconv.FormatUint(c.Value, 10) + "\n")
				}
			}
		}
	}

	order = metricOrder(len(snaps), func(s, i int) (string, bool) {
		if i >= len(snaps[s].Snap.Gauges) {
			return "", false
		}
		return snaps[s].Snap.Gauges[i].Name, true
	})
	for _, nm := range order {
		n := promName(nm)
		bw.WriteString("# TYPE " + n + " gauge\n")
		for i := range snaps {
			for _, g := range snaps[i].Snap.Gauges {
				if g.Name == nm {
					bw.WriteString(n + labels[i] + " " + promFloat(g.Value) + "\n")
				}
			}
		}
		bw.WriteString("# TYPE " + n + "_hwm gauge\n")
		for i := range snaps {
			for _, g := range snaps[i].Snap.Gauges {
				if g.Name == nm {
					bw.WriteString(n + "_hwm" + labels[i] + " " + promFloat(g.HWM) + "\n")
				}
			}
		}
	}

	order = metricOrder(len(snaps), func(s, i int) (string, bool) {
		if i >= len(snaps[s].Snap.Histograms) {
			return "", false
		}
		return snaps[s].Snap.Histograms[i].Name, true
	})
	for _, nm := range order {
		n := promName(nm)
		bw.WriteString("# TYPE " + n + " histogram\n")
		for i := range snaps {
			for _, h := range snaps[i].Snap.Histograms {
				if h.Name != nm {
					continue
				}
				cum := uint64(0)
				for j, cnt := range h.Counts {
					cum += cnt
					le := "+Inf"
					if j < len(h.Bounds) {
						le = promFloat(h.Bounds[j])
					}
					bw.WriteString(n + "_bucket" + promLabels(snaps[i].Labels, `le="`+le+`"`) +
						" " + strconv.FormatUint(cum, 10) + "\n")
				}
				bw.WriteString(n + "_sum" + labels[i] + " " + promFloat(h.Sum) + "\n")
				bw.WriteString(n + "_count" + labels[i] + " " + strconv.FormatUint(h.N, 10) + "\n")
			}
		}
	}
	return bw.Flush()
}

// PrometheusMultiHandler serves labeled snapshots in the text exposition
// format. The snapshot function runs per request, so the caller decides
// how registry access is synchronized (e.g. live endpoints snapshot on the
// loop goroutine); a nil return renders an empty page.
func PrometheusMultiHandler(snap func() []LabeledSnapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheusLabeled(w, snap())
	})
}
