package fleetsim

import (
	"fmt"
	"math"
	"slices"
)

// checkInvariants audits the shard's streaming state against a brute-force
// recomputation from the packed link array. It is the oracle behind the
// per-link lifetime fuzz target and the consistency unit tests; it is
// never called on the simulation path.
//
// Invariants:
//   - per-pod capacity is never negative and never exceeds the healthy pod
//     capacity (within float tolerance);
//   - the incremental penalty, capacity, and counter aggregates match a
//     from-scratch recomputation;
//   - every pod's window of the corrupting set is sorted, duplicate-free
//     and holds only that pod's links, all flagged corrupting, and the
//     window sizes sum to the number of flagged links (so the windows
//     hold exactly the flagged links);
//   - every scheduled repair refers to a distinct link that is down and
//     still marked corrupting (a repair is only ever dispatched for a
//     corrupting link, and only one repair per link can be in flight);
//   - spine-link up-counts and the ToR up-mask match the packed link flags;
//   - every ToR's cached path count matches a count from the link flags;
//   - every clean pod's cached least path count matches a count from the
//     link flags and no dirty pod's exceeds it, the dirty list names
//     exactly the dirty pods, and the shard's least path count is the
//     least of the pods' cached ones;
//   - every pipe's up protected count matches a count from the link flags,
//     the histogram matches the counts, and its top bucket is the worst
//     pipe of a walk over the corrupting windows;
//   - the state is settled: no up corrupting link passes canDisable (the
//     fast checker and the optimizer would have disabled it), which is
//     what lets completeRepair scan the repaired pod alone.
func (s *shard) checkInvariants() error {
	const tol = 1e-6
	var penalty float64
	podCap := make([]float64, s.pods)
	spineUp := make([]int16, len(s.spineUp))
	pipeProt := make([]int32, len(s.pipeProt))
	var activeCorr, protected int32
	corruptFlagged := 0
	for l := range s.links {
		st := &s.links[l]
		link := int32(l)
		pod := s.pod(link)
		if st.corrupting() {
			corruptFlagged++
		}
		if !st.up() {
			continue
		}
		podCap[pod] += float64(st.effSpeed)
		if s.isSpine(link) {
			spineUp[pod*s.fabrics+s.spineFab(link)]++
		}
		if st.corrupting() {
			activeCorr++
			penalty += st.contribution()
		}
		if st.protected() {
			protected++
			pipeProt[pod*s.pipesPerPod+s.podOff(link)/pipeLinks]++
		}
	}
	for p, c := range s.podCap {
		if c < -tol {
			return fmt.Errorf("pod %d capacity negative: %g", p, c)
		}
		if c > float64(s.lpp)+tol {
			return fmt.Errorf("pod %d capacity %g exceeds healthy %d", p, c, s.lpp)
		}
		if math.Abs(c-podCap[p]) > tol {
			return fmt.Errorf("pod %d incremental capacity %g != recomputed %g", p, c, podCap[p])
		}
	}
	if math.Abs(s.penalty-penalty) > tol*(1+math.Abs(penalty)) {
		return fmt.Errorf("incremental penalty %g != recomputed %g", s.penalty, penalty)
	}
	if s.activeCorr != activeCorr {
		return fmt.Errorf("activeCorr %d != recomputed %d", s.activeCorr, activeCorr)
	}
	if s.protectedCount != protected {
		return fmt.Errorf("protectedCount %d != recomputed %d", s.protectedCount, protected)
	}
	for i, su := range s.spineUp {
		if su != spineUp[i] {
			return fmt.Errorf("spineUp[%d] %d != recomputed %d", i, su, spineUp[i])
		}
	}
	for pod := int32(0); pod < s.pods; pod++ {
		for tor := int32(0); tor < s.tors; tor++ {
			if got, want := s.torPaths(pod, tor), s.countTorPaths(pod, tor); got != want {
				return fmt.Errorf("pod %d ToR %d cached paths %d != recomputed %d", pod, tor, got, want)
			}
			for fab := int32(0); fab < s.fabrics; fab++ {
				up, _ := s.fabricRow(pod, fab)
				if want := s.links[s.torLink(pod, tor, fab)].up(); up[tor] != want {
					return fmt.Errorf("pod %d fabric %d ToR %d up-mask %v, link up %v", pod, fab, tor, up[tor], want)
				}
			}
		}
		want := s.countPodPaths(pod)
		if !s.podDirty[pod] && s.podPaths[pod] != want {
			return fmt.Errorf("clean pod %d cached least paths %d != recomputed %d", pod, s.podPaths[pod], want)
		}
		if s.podPaths[pod] > want {
			return fmt.Errorf("dirty pod %d cached least paths %d above recomputed %d", pod, s.podPaths[pod], want)
		}
	}
	dirty := 0
	for _, d := range s.podDirty {
		if d {
			dirty++
		}
	}
	for _, pod := range s.dirty {
		if !s.podDirty[pod] {
			return fmt.Errorf("dirty list names clean pod %d", pod)
		}
	}
	if dirty != len(s.dirty) {
		return fmt.Errorf("%d dirty pods, dirty list holds %d", dirty, len(s.dirty))
	}
	if least := slices.Min(s.podPaths); s.leastPaths != least {
		return fmt.Errorf("least paths %d != least cached pod paths %d", s.leastPaths, least)
	}
	hist := [pipeLinks + 1]int32{}
	for p, c := range pipeProt {
		if s.pipeProt[p] != c {
			return fmt.Errorf("pipe %d protected count %d != recomputed %d", p, s.pipeProt[p], c)
		}
		hist[c]++
	}
	if s.pipeHist != hist {
		return fmt.Errorf("pipe histogram %v != recomputed %v", s.pipeHist, hist)
	}
	if got, want := s.maxProtectedPerPipe(), s.walkMaxProtectedPerPipe(); got != want {
		return fmt.Errorf("max protected per pipe %d != window walk %d", got, want)
	}
	windows := 0
	for pod := int32(0); pod < s.pods; pod++ {
		w := s.corruptWindow(pod)
		windows += len(w)
		for i, id := range w {
			if i > 0 && w[i-1] >= id {
				return fmt.Errorf("pod %d window not sorted/duplicate-free at %d: %d >= %d", pod, i, w[i-1], id)
			}
			if id < 0 || id >= int32(len(s.links)) || s.pod(id) != pod {
				return fmt.Errorf("pod %d window holds link %d of another pod", pod, id)
			}
			if !s.links[id].corrupting() {
				return fmt.Errorf("pod %d window holds non-corrupting link %d", pod, id)
			}
			if s.canDisable(id) {
				return fmt.Errorf("up corrupting link %d passes canDisable: state not settled", id)
			}
		}
	}
	if windows != corruptFlagged || s.nCorr != windows {
		return fmt.Errorf("corrupting windows hold %d links (count %d), %d flagged", windows, s.nCorr, corruptFlagged)
	}
	seen := map[int32]bool{}
	for _, ev := range s.repairs {
		st := &s.links[ev.link]
		if st.up() {
			return fmt.Errorf("repair scheduled for up link %d", ev.link)
		}
		if !st.corrupting() {
			return fmt.Errorf("repair scheduled for non-corrupting link %d", ev.link)
		}
		if seen[ev.link] {
			return fmt.Errorf("link %d has two repairs in flight", ev.link)
		}
		seen[ev.link] = true
	}
	return nil
}

// countTorPaths counts a ToR's valley-free paths from scratch: for each up
// ToR-fabric link, the fabric switch's up spine links.
func (s *shard) countTorPaths(pod, tor int32) int32 {
	var paths int32
	for f := int32(0); f < s.fabrics; f++ {
		if !s.links[s.torLink(pod, tor, f)].up() {
			continue
		}
		for sp := int32(0); sp < s.spines; sp++ {
			if s.links[pod*s.lpp+s.torLpp+f*s.spines+sp].up() {
				paths++
			}
		}
	}
	return paths
}

// countPodPaths is a pod's least ToR path count from scratch.
func (s *shard) countPodPaths(pod int32) int32 {
	least := s.maxPaths
	for tor := int32(0); tor < s.tors; tor++ {
		least = min(least, s.countTorPaths(pod, tor))
	}
	return least
}

// walkMaxProtectedPerPipe is the largest number of up protected links on
// one pipe, from a walk over the corrupting windows. A protected link is
// corrupting and a pipe's links are consecutive IDs of one pod, so each
// pipe is one run of its pod's sorted window.
func (s *shard) walkMaxProtectedPerPipe() int32 {
	var best, run int32
	pipe := int32(-1)
	for pod := int32(0); pod < s.pods; pod++ {
		for _, id := range s.corruptWindow(pod) {
			if st := &s.links[id]; !st.up() || !st.protected() {
				continue
			}
			if p := id - s.podOff(id)%pipeLinks; p != pipe {
				pipe, run = p, 0
			}
			run++
			best = max(best, run)
		}
	}
	return best
}

// checkSample audits the minima and the worst pipe of a sample just taken
// against a from-scratch pass over the packed link array.
func (s *shard) checkSample(ss shardSample) error {
	least := int32(math.MaxInt32)
	minCap := math.Inf(1)
	for pod := int32(0); pod < s.pods; pod++ {
		least = min(least, s.countPodPaths(pod))
		var c float64
		for _, st := range s.links[pod*s.lpp : (pod+1)*s.lpp] {
			if st.up() {
				c += float64(st.effSpeed)
			}
		}
		minCap = min(minCap, c/float64(s.lpp))
	}
	if ss.minPaths != least {
		return fmt.Errorf("sample least paths %d != recomputed %d", ss.minPaths, least)
	}
	if math.Abs(ss.minPodCap-minCap) > 1e-9 {
		return fmt.Errorf("sample least pod capacity %g != recomputed %g", ss.minPodCap, minCap)
	}
	if want := s.walkMaxProtectedPerPipe(); ss.maxPerPipe != want {
		return fmt.Errorf("sample max protected per pipe %d != window walk %d", ss.maxPerPipe, want)
	}
	return nil
}
