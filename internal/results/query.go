package results

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// fv renders a float the same way the hash canonicalization does — full
// precision, no trailing zeros — so rendered output is byte-stable.
func fv(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteList renders the run table in canonical order, optionally filtered
// to one kind. Byte-stable: ordering comes from sortRuns, never from
// ingestion order.
func WriteList(w io.Writer, b Backend, kind string) error {
	runs, err := b.List()
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-32s  %-9s %3s  %-32s %5s %5s\n",
		"ID", "KIND", "PR", "NAME", "RECS", "BLOBS"); err != nil {
		return err
	}
	for _, r := range runs {
		if kind != "" && r.Kind != kind {
			continue
		}
		pr := "-"
		if r.PR > 0 {
			pr = strconv.Itoa(r.PR)
		}
		if _, err := fmt.Fprintf(w, "%-32s  %-9s %3s  %-32s %5d %5d\n",
			r.ID, r.Kind, pr, r.Name, len(r.Records), len(r.Blobs)); err != nil {
			return err
		}
	}
	return nil
}

// WriteShow renders one run in full.
func WriteShow(w io.Writer, r *Run) error {
	r.Normalize()
	fmt.Fprintf(w, "run %s\n", r.ID)
	fmt.Fprintf(w, "  kind:   %s\n", r.Kind)
	fmt.Fprintf(w, "  name:   %s\n", r.Name)
	if r.PR > 0 {
		fmt.Fprintf(w, "  pr:     %d\n", r.PR)
	}
	if r.Source != "" {
		fmt.Fprintf(w, "  source: %s\n", r.Source)
	}
	if len(r.Config) > 0 {
		keys := make([]string, 0, len(r.Config))
		for k := range r.Config {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "  config:\n")
		for _, k := range keys {
			fmt.Fprintf(w, "    %s = %s\n", k, r.Config[k])
		}
	}
	if len(r.Records) > 0 {
		fmt.Fprintf(w, "  records:\n")
		for _, rec := range r.Records {
			unit := rec.Unit
			if unit != "" {
				unit = " " + unit
			}
			fmt.Fprintf(w, "    %-44s %s%s\n", rec.Name, fv(rec.Value), unit)
		}
	}
	if len(r.Blobs) > 0 {
		fmt.Fprintf(w, "  blobs:\n")
		for _, bl := range r.Blobs {
			fmt.Fprintf(w, "    %-28s %s %d bytes\n", bl.Name, bl.Addr, bl.Size)
		}
	}
	return nil
}

// WriteDiff renders a per-metric comparison of two runs: shared metrics
// with absolute and relative deltas, then metrics present on only one
// side.
func WriteDiff(w io.Writer, a, b *Run) error {
	a.Normalize()
	b.Normalize()
	fmt.Fprintf(w, "diff %s (%s/%s) -> %s (%s/%s)\n", a.ID, a.Kind, a.Name, b.ID, b.Kind, b.Name)
	av := map[string]float64{}
	bv := map[string]float64{}
	var names []string
	seen := map[string]bool{}
	for _, rec := range a.Records {
		av[rec.Name] = rec.Value
		if !seen[rec.Name] {
			seen[rec.Name] = true
			names = append(names, rec.Name)
		}
	}
	for _, rec := range b.Records {
		bv[rec.Name] = rec.Value
		if !seen[rec.Name] {
			seen[rec.Name] = true
			names = append(names, rec.Name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-44s %14s %14s %14s %9s\n", "METRIC", "A", "B", "DELTA", "PCT")
	for _, n := range names {
		x, okA := av[n]
		y, okB := bv[n]
		switch {
		case okA && okB:
			pct := "-"
			if x != 0 {
				pct = fmt.Sprintf("%+.1f%%", (y-x)/x*100)
			}
			fmt.Fprintf(w, "%-44s %14s %14s %14s %9s\n", n, fv(x), fv(y), fv(y-x), pct)
		case okA:
			fmt.Fprintf(w, "%-44s %14s %14s %14s %9s\n", n, fv(x), "-", "-", "-")
		default:
			fmt.Fprintf(w, "%-44s %14s %14s %14s %9s\n", n, "-", fv(y), "-", "-")
		}
	}
	return nil
}

// WriteTrend renders the longitudinal view: one row per metric name, one
// column per PR (ascending), for every run of the kind that carries a PR
// number — plus the relative change of the newest PR against the previous
// one that has the metric. This is the "did PR N regress PR M?" table; the
// historical BENCH_*.json records backfill into it through ImportBenchFile.
func WriteTrend(w io.Writer, b Backend, kind, metric string) error {
	runs, err := b.List()
	if err != nil {
		return err
	}
	if kind == "" {
		kind = "bench"
	}
	vals := map[string]map[int]float64{} // metric -> pr -> value
	prSet := map[int]bool{}
	var names []string
	for _, r := range runs {
		if r.Kind != kind || r.PR <= 0 {
			continue
		}
		prSet[r.PR] = true
		for _, rec := range r.Records {
			if metric != "" && !strings.Contains(rec.Name, metric) {
				continue
			}
			if vals[rec.Name] == nil {
				vals[rec.Name] = map[int]float64{}
				names = append(names, rec.Name)
			}
			vals[rec.Name][r.PR] = rec.Value
		}
	}
	prs := make([]int, 0, len(prSet))
	for pr := range prSet {
		prs = append(prs, pr)
	}
	sort.Ints(prs)
	sort.Strings(names)
	fmt.Fprintf(w, "trend kind=%s prs=%d metrics=%d\n", kind, len(prs), len(names))
	fmt.Fprintf(w, "%-44s", "METRIC")
	for _, pr := range prs {
		fmt.Fprintf(w, " %14s", "PR"+strconv.Itoa(pr))
	}
	fmt.Fprintf(w, " %9s\n", "LAST/PREV")
	for _, n := range names {
		fmt.Fprintf(w, "%-44s", n)
		var have []float64
		for _, pr := range prs {
			if v, ok := vals[n][pr]; ok {
				fmt.Fprintf(w, " %14s", fv(v))
				have = append(have, v)
			} else {
				fmt.Fprintf(w, " %14s", "-")
			}
		}
		change := "-"
		if len(have) >= 2 {
			prev, last := have[len(have)-2], have[len(have)-1]
			if prev != 0 {
				change = fmt.Sprintf("%+.1f%%", (last-prev)/prev*100)
			}
		}
		fmt.Fprintf(w, " %9s\n", change)
	}
	return nil
}
