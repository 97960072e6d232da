// Package lgmodel holds LinkGuardian's closed-form models: Equation 2 (how
// many retransmitted copies meet an operator's target loss rate, and the
// effective loss rate they achieve) and the Figure 8 effective-link-speed
// measurement. It is a leaf: it imports nothing from this module, so the
// dataplane (internal/core) and the fleet simulator (internal/fleetsim)
// share one definition of each formula without the fleet side linking the
// packet-level simulator. It is the LinkGuardian counterpart of
// internal/wharf.
package lgmodel

import "math"

// CopiesFor evaluates Equation 2: the smallest N with actual^(N+1) <=
// target, i.e. N >= log(target)/log(actual) - 1 rounded up, with a floor of
// 1 copy. A loss rate outside (0, 1) or a non-positive target yields 1.
func CopiesFor(actual, target float64) int {
	if actual <= 0 || actual >= 1 || target <= 0 {
		return 1
	}
	n := math.Log10(target)/math.Log10(actual) - 1
	in := int(math.Ceil(n - 1e-9))
	if in < 1 {
		return 1
	}
	return in
}

// EffLoss is the effective loss rate LinkGuardian achieves on a link with
// the given actual rate: actual^(N+1) with N chosen by Equation 2.
func EffLoss(actual, target float64) float64 {
	if actual <= 0 {
		return 0
	}
	n := CopiesFor(actual, target)
	return math.Pow(actual, float64(n+1))
}

// Figure8EffSpeed is the effective-link-speed mapping measured in Figure 8
// for ordered LinkGuardian on a 100G link: near-line-rate at 1e-5/1e-4 and
// ~8% reduction at 1e-3.
func Figure8EffSpeed(lossRate float64) float64 {
	switch {
	case lossRate <= 1e-5:
		return 0.998
	case lossRate <= 1e-4:
		return 0.99
	case lossRate <= 1e-3:
		return 0.92
	default:
		return 0.85
	}
}
