// Package fleetsim scales the paper's §4.8 fleet simulation to
// multi-million-link fabrics behind a pluggable repair-solution matrix.
//
// The plugin seam follows the NUS-SNL fleet simulator: a solution is,
// operationally, a mapping from a link's measured corruption loss rate to
// the (effective loss rate, effective capacity, cost) it achieves while the
// link awaits repair. Every solution runs on top of CorrOpt's repair
// scheduling (fast checker + optimizer), so the matrix compares the
// mitigation layer, not the repair workflow.
//
// One engine runs every fleet simulation, from the paper's Figures 15/16
// (CorrOpt vs LinkGuardian+CorrOpt, through internal/experiments) to the
// million-link solution matrix: Run/RunMatrix in this package, with packed
// per-link structs, per-shard RNG streams via parallel.SeedFor, and
// streaming metric aggregation. The fleet side links none of the
// packet-level simulator: LinkGuardian's formulas come from the leaf
// package internal/lgmodel.
package fleetsim

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"linkguardian/internal/lgmodel"
	"linkguardian/internal/wharf"
)

// Effect is what a repair solution achieves on one corrupting link: the
// residual loss rate transports still see, the fraction of line rate still
// usable, and the abstract cost of turning the solution on for that link
// (operational units; repairs are costed separately by the engine).
type Effect struct {
	EffLoss     float64
	EffCapacity float64
	Cost        float64
}

// Solution is one repair strategy of the solution matrix. Apply maps a
// link's measured loss rate to the solution's effect; enabled reports
// whether the solution engages on the link at all (the CorrOpt baseline
// never does). Apply must be a pure function of the loss rate — the
// sharded engine calls it concurrently from every shard.
type Solution interface {
	Name() string
	Apply(lossRate float64) (e Effect, enabled bool)
}

// clampLoss confines a measured loss rate to the physically meaningful
// [0, 1] range before table or formula evaluation.
func clampLoss(q float64) float64 {
	switch {
	case q <= 0 || math.IsNaN(q):
		return 0
	case q >= 1:
		return 1
	}
	return q
}

// ------------------------------------------------------------ CorrOpt ----

// CorrOptOnly is the baseline: no per-link mitigation, repairs alone.
type CorrOptOnly struct{}

// Name implements Solution.
func (CorrOptOnly) Name() string { return "corropt" }

// Apply implements Solution: the link keeps corrupting at full rate and
// full capacity until CorrOpt can take it out for repair.
func (CorrOptOnly) Apply(q float64) (Effect, bool) {
	return Effect{EffLoss: clampLoss(q), EffCapacity: 1}, false
}

// ------------------------------------------------------- LinkGuardian ----

// LinkGuardian masks corruption by link-local retransmission: effective
// loss follows Equation 2 (actual^(N+1) with N retx copies chosen for the
// operator target) and effective capacity follows the Figure 8 measurement.
type LinkGuardian struct {
	TargetLoss float64                 // operator target; 0 means 1e-8
	EffSpeed   func(q float64) float64 // nil means lgmodel.Figure8EffSpeed
	PerLink    float64                 // activation cost; 0 means DefaultLGCost
}

// DefaultLGCost is the per-activation cost of LinkGuardian: a switch
// feature toggle plus retransmission buffer, the cheapest mitigation of
// the matrix.
const DefaultLGCost = 0.05

// Name implements Solution.
func (LinkGuardian) Name() string { return "lg" }

// Apply implements Solution.
func (s LinkGuardian) Apply(q float64) (Effect, bool) {
	if q = clampLoss(q); q == 0 {
		return Effect{EffCapacity: 1}, false // healthy link: nothing to mask
	}
	target := s.TargetLoss
	if target == 0 {
		target = 1e-8
	}
	effSpeed := s.EffSpeed
	if effSpeed == nil {
		effSpeed = lgmodel.Figure8EffSpeed
	}
	cost := s.PerLink
	if cost == 0 {
		cost = DefaultLGCost
	}
	return Effect{
		EffLoss:     lgmodel.EffLoss(q, target),
		EffCapacity: effSpeed(q),
		Cost:        cost,
	}, true
}

// ---------------------------------------------------------- Wharf FEC ----

// WharfFEC applies Wharf's frame-level FEC at the best-reported parameters
// for the link's loss rate: residual loss is the uncorrectable-block tail,
// effective capacity pays the fixed parity tax R/(K+R) whether or not
// losses occur (§2's drawback).
type WharfFEC struct {
	PerLink float64 // activation cost; 0 means DefaultWharfCost
}

// DefaultWharfCost is the per-activation cost of Wharf: FEC encode/decode
// pipelines on both ends of the link.
const DefaultWharfCost = 0.10

// Name implements Solution.
func (WharfFEC) Name() string { return "wharf" }

// Apply implements Solution. Beyond the FEC design range the best residual
// loss exceeds the raw loss (parity blocks drown along with the data), so
// the controller refuses to engage rather than amplify the damage.
func (s WharfFEC) Apply(q float64) (Effect, bool) {
	if q = clampLoss(q); q == 0 {
		return Effect{EffCapacity: 1}, false // healthy link: no parity tax
	}
	cost := s.PerLink
	if cost == 0 {
		cost = DefaultWharfCost
	}
	p := wharf.BestParams(q)
	residual := p.ResidualFrameLoss(q)
	if residual >= q {
		return Effect{EffLoss: q, EffCapacity: 1}, false
	}
	return Effect{
		EffLoss:     residual,
		EffCapacity: 1 - p.Overhead(),
		Cost:        cost,
	}, true
}

// --------------------------------------------------------- P4-Protect ----

// P4Protect models 1+1 path protection: every packet is duplicated over a
// disjoint path and the receiver deduplicates, so a packet is lost only
// when both copies are (loss rate q²  under the independent-loss
// assumption), at the price of half the usable capacity.
type P4Protect struct {
	PerLink float64 // activation cost; 0 means DefaultP4ProtectCost
}

// DefaultP4ProtectCost is the per-activation cost of P4-Protect: a
// programmable-switch duplication/dedup stage plus the reserved disjoint
// path.
const DefaultP4ProtectCost = 0.25

// Name implements Solution.
func (P4Protect) Name() string { return "p4protect" }

// Apply implements Solution.
func (s P4Protect) Apply(q float64) (Effect, bool) {
	if q = clampLoss(q); q == 0 {
		return Effect{EffCapacity: 1}, false // healthy link: no duplication
	}
	cost := s.PerLink
	if cost == 0 {
		cost = DefaultP4ProtectCost
	}
	return Effect{EffLoss: q * q, EffCapacity: 0.5, Cost: cost}, true
}

// ---------------------------------------------------- table solutions ----

// PerfRow is one measured point of a solution's performance table:
// at measured loss rate LossRate the solution achieves EffLoss residual
// loss and EffCapacity usable capacity.
type PerfRow struct {
	LossRate, EffLoss, EffCapacity float64
}

// TableSolution is a solution backed by a measured performance table (the
// NUS-SNL loss-rate→(effective loss, effective capacity) JSON, expressed
// in code): lookups interpolate log-linearly between rows and clamp at the
// table boundaries. It is how an externally measured strategy plugs into
// the matrix without a closed-form model.
type TableSolution struct {
	name    string
	rows    []PerfRow // sorted by LossRate ascending, all > 0
	perLink float64
}

// NewTableSolution builds a table-backed solution. Rows are sorted by loss
// rate; rows with non-positive loss rates are rejected (zero loss is
// handled by the engine: a healthy link needs no solution).
func NewTableSolution(name string, rows []PerfRow, perLink float64) (*TableSolution, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("table solution %q: no rows", name)
	}
	sorted := append([]PerfRow(nil), rows...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].LossRate < sorted[j].LossRate })
	for i, r := range sorted {
		if r.LossRate <= 0 || math.IsNaN(r.LossRate) {
			return nil, fmt.Errorf("table solution %q: row %d has non-positive loss rate %g", name, i, r.LossRate)
		}
		if i > 0 && r.LossRate == sorted[i-1].LossRate {
			return nil, fmt.Errorf("table solution %q: duplicate loss rate %g", name, r.LossRate)
		}
	}
	return &TableSolution{name: name, rows: sorted, perLink: perLink}, nil
}

// Name implements Solution.
func (t *TableSolution) Name() string { return t.name }

// Apply implements Solution: log-linear interpolation in loss rate between
// the two bracketing rows, clamped to the first/last row outside the
// measured range. Zero loss yields a perfect link (nothing to mitigate).
func (t *TableSolution) Apply(q float64) (Effect, bool) {
	q = clampLoss(q)
	if q == 0 {
		return Effect{EffLoss: 0, EffCapacity: 1}, false
	}
	rows := t.rows
	i := sort.Search(len(rows), func(i int) bool { return rows[i].LossRate >= q })
	var effLoss, effCap float64
	switch {
	case i == 0:
		effLoss, effCap = rows[0].EffLoss, rows[0].EffCapacity
	case i == len(rows):
		last := rows[len(rows)-1]
		effLoss, effCap = last.EffLoss, last.EffCapacity
	case rows[i].LossRate == q:
		effLoss, effCap = rows[i].EffLoss, rows[i].EffCapacity
	default:
		lo, hi := rows[i-1], rows[i]
		frac := (math.Log(q) - math.Log(lo.LossRate)) / (math.Log(hi.LossRate) - math.Log(lo.LossRate))
		effLoss = lo.EffLoss + frac*(hi.EffLoss-lo.EffLoss)
		effCap = lo.EffCapacity + frac*(hi.EffCapacity-lo.EffCapacity)
	}
	return Effect{EffLoss: effLoss, EffCapacity: effCap, Cost: t.perLink}, true
}

// SampleTable evaluates a solution at the given loss rates and returns the
// resulting performance table — how a formula-backed solution exports the
// NUS-SNL-style table for documentation, tests, and external consumers.
func SampleTable(s Solution, lossRates []float64) []PerfRow {
	rows := make([]PerfRow, 0, len(lossRates))
	for _, q := range lossRates {
		e, _ := s.Apply(q)
		rows = append(rows, PerfRow{LossRate: q, EffLoss: e.EffLoss, EffCapacity: e.EffCapacity})
	}
	return rows
}

// ------------------------------------------------------------ registry ---

// AllSolutionNames lists the built-in matrix in canonical order.
var AllSolutionNames = []string{"corropt", "lg", "wharf", "p4protect"}

// SolutionByName returns a built-in solution with default parameters.
func SolutionByName(name string) (Solution, error) {
	switch name {
	case "corropt":
		return CorrOptOnly{}, nil
	case "lg":
		return LinkGuardian{}, nil
	case "wharf":
		return WharfFEC{}, nil
	case "p4protect":
		return P4Protect{}, nil
	}
	return nil, fmt.Errorf("unknown solution %q (have %s)", name, strings.Join(AllSolutionNames, ", "))
}

// ParseSolutions turns a comma-separated -solutions flag value into a
// plugin list; "all" (or "") selects the whole built-in matrix.
func ParseSolutions(spec string) ([]Solution, error) {
	if spec == "" || spec == "all" {
		spec = strings.Join(AllSolutionNames, ",")
	}
	var sols []Solution
	seen := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if seen[name] {
			return nil, fmt.Errorf("solution %q listed twice", name)
		}
		seen[name] = true
		s, err := SolutionByName(name)
		if err != nil {
			return nil, err
		}
		sols = append(sols, s)
	}
	if len(sols) == 0 {
		return nil, fmt.Errorf("no solutions in %q", spec)
	}
	return sols, nil
}
