package fleetsim

import (
	"math"
	"math/rand"
	"time"

	"linkguardian/internal/failtrace"
	"linkguardian/internal/parallel"
)

// Config sizes a sharded fleet run. The zero value of every field selects
// a sensible default; Links wins over Fabric.Pods when both are set.
type Config struct {
	Fabric      Fabric        // pod shape; zero means DefaultFabric's shape
	Links       int           // target link count, rounded up to whole pods
	Horizon     time.Duration // simulated span; zero means one year
	SampleEvery time.Duration // metric sampling interval; zero means 6h
	Seed        int64         // master seed; per-shard streams derive via parallel.SeedFor
	Constraint  float64       // CorrOpt least-paths constraint; zero means 0.75

	// PodsPerShard fixes the shard granularity. The shard structure is a
	// pure function of the configuration — never of the worker count —
	// which is what makes results byte-identical at any -workers setting.
	PodsPerShard int // zero means 32

	// RepairCost is charged per repair dispatch (a truck roll); solution
	// activation costs come from each Solution's Effect. Zero means 1.
	RepairCost float64

	// DeployFraction models incremental deployment (§5): only this fraction
	// of links terminate on switches that can run the solution. Zero or 1
	// means full deployment. Capable links are picked by a deterministic
	// hash of the global link ID, standing in for a rollout that upgrades
	// switches over time, so the same links are capable in every shard
	// layout and for every solution.
	DeployFraction float64
}

func (c Config) normalized() Config {
	if c.Fabric.ToRsPerPod == 0 {
		shape := DefaultFabric()
		shape.Pods = c.Fabric.Pods
		c.Fabric = shape
	}
	if c.Links > 0 {
		c.Fabric.Pods = c.Fabric.PodsFor(c.Links)
	}
	if c.Fabric.Pods == 0 {
		c.Fabric.Pods = DefaultFabric().Pods
	}
	if c.Horizon == 0 {
		c.Horizon = 365 * 24 * time.Hour
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 6 * time.Hour
	}
	if c.Constraint == 0 {
		c.Constraint = 0.75
	}
	if c.PodsPerShard == 0 {
		c.PodsPerShard = 32
	}
	if c.RepairCost == 0 {
		c.RepairCost = 1
	}
	return c
}

// NumLinks is the concrete link count after rounding Links up to pods.
func (c Config) NumLinks() int { return c.normalized().Fabric.NumLinks() }

// Shards is the fixed shard count: ceil(pods / PodsPerShard).
func (c Config) Shards() int {
	n := c.normalized()
	return (n.Fabric.Pods + n.PodsPerShard - 1) / n.PodsPerShard
}

// Sample is one fleet-wide point of the metric time series, merged across
// shards in shard-index order.
type Sample struct {
	At time.Duration

	TotalPenalty float64 // sum of effective loss over up corrupting links
	LeastPaths   float64 // worst ToR's fraction of healthy paths
	LeastPodCap  float64 // worst pod's fraction of healthy capacity

	ActiveCorrupting int // up corrupting links
	Disabled         int // links out for repair
	Protected        int // up links with the solution engaged
	// MaxProtectedPerPipe is the worst-case number of up protected links
	// on one switch pipe, 16 consecutive link IDs of a pod (§5 "handling
	// multiple corrupting links").
	MaxProtectedPerPipe int

	Repairs int     // cumulative repair dispatches
	Cost    float64 // cumulative cost: dispatches + activations
}

// ShardStats counts one shard's work; cmd/fleetsim -metrics-out exports it
// per shard.
type ShardStats struct {
	Links            int
	Onsets           uint64 // corruption onsets processed
	Repairs          uint64 // repairs completed
	Activations      uint64 // solution activations
	Disables         uint64 // repair dispatches
	MaxRepairBacklog int    // peak concurrently disabled links
	MaxCorrupting    int    // peak tracked corrupting set
}

// SolutionResult is one strategy's merged series plus per-shard stats.
type SolutionResult struct {
	Solution string
	Samples  []Sample
	Shards   []ShardStats
}

// MatrixResult is the full solution matrix over one trace configuration.
type MatrixResult struct {
	Config  Config // normalized
	Results []SolutionResult
}

// Run simulates one solution over the configured fleet.
func Run(cfg Config, sol Solution) SolutionResult {
	m := RunMatrix(cfg, []Solution{sol})
	return m.Results[0]
}

// RunMatrix runs every solution over the same per-shard corruption trace
// streams (a paired comparison: onset times and loss rates are identical
// across solutions because trace and repair draws come from separate RNG
// streams). The (solution × shard) grid fans out over internal/parallel;
// results land in index-addressed slots and merge in shard order, so the
// output is byte-identical at any worker count.
func RunMatrix(cfg Config, sols []Solution) MatrixResult {
	cfg = cfg.normalized()
	nShards := cfg.Shards()
	type shardRun struct {
		samples []shardSample
		stats   ShardStats
	}
	runs := parallel.Map(len(sols)*nShards, func(i int) shardRun {
		sol, sh := sols[i/nShards], i%nShards
		s := newShard(cfg, sh, sol)
		samples := s.run()
		return shardRun{samples: samples, stats: s.stats}
	})
	out := MatrixResult{Config: cfg}
	for si := range sols {
		res := SolutionResult{Solution: sols[si].Name()}
		perShard := make([][]shardSample, nShards)
		for sh := 0; sh < nShards; sh++ {
			r := runs[si*nShards+sh]
			perShard[sh] = r.samples
			res.Shards = append(res.Shards, r.stats)
		}
		res.Samples = mergeSamples(cfg, perShard)
		out.Results = append(out.Results, res)
	}
	return out
}

// mergeSamples folds per-shard series into the fleet series: sums and
// minima taken in shard-index order at each timestamp (the periodic
// shard-merge — no whole-fleet snapshot ever exists).
func mergeSamples(cfg Config, perShard [][]shardSample) []Sample {
	if len(perShard) == 0 {
		return nil
	}
	n := len(perShard[0])
	maxPaths := float64(cfg.Fabric.MaxToRPaths())
	out := make([]Sample, n)
	for i := 0; i < n; i++ {
		s := Sample{
			At:          perShard[0][i].at,
			LeastPaths:  math.Inf(1),
			LeastPodCap: math.Inf(1),
		}
		minPaths := int32(math.MaxInt32)
		for _, shard := range perShard {
			ss := shard[i]
			s.TotalPenalty += ss.penalty
			if ss.minPaths < minPaths {
				minPaths = ss.minPaths
			}
			if ss.minPodCap < s.LeastPodCap {
				s.LeastPodCap = ss.minPodCap
			}
			s.ActiveCorrupting += int(ss.activeCorrupting)
			s.Disabled += int(ss.disabled)
			s.Protected += int(ss.protected)
			s.MaxProtectedPerPipe = max(s.MaxProtectedPerPipe, int(ss.maxPerPipe))
			s.Repairs += int(ss.repairs)
			s.Cost += ss.cost
		}
		s.LeastPaths = float64(minPaths) / maxPaths
		out[i] = s
	}
	return out
}

// ------------------------------------------------------- shard engine ----

// linkState is the packed per-link record: 16 bytes, no per-link maps or
// pointers, ~16 MB per million links.
type linkState struct {
	lossRate float32 // measured corruption loss rate while corrupting
	effLoss  float32 // residual loss under the engaged solution
	effSpeed float32 // usable capacity fraction while up (1.0 healthy)
	flags    uint8
}

const (
	flagUp uint8 = 1 << iota
	flagCorrupting
	flagProtected
)

func (l *linkState) up() bool         { return l.flags&flagUp != 0 }
func (l *linkState) corrupting() bool { return l.flags&flagCorrupting != 0 }
func (l *linkState) protected() bool  { return l.flags&flagProtected != 0 }

// contribution is the link's share of the fleet penalty while up.
func (l *linkState) contribution() float64 {
	if l.protected() {
		return float64(l.effLoss)
	}
	return float64(l.lossRate)
}

// tlEvent is one pending (time, link) event; tlHeap is a hand-rolled
// binary min-heap ordered by (at, link) so pop order — and therefore RNG
// draw order — is fully deterministic.
type tlEvent struct {
	at   time.Duration
	link int32
}

type tlHeap []tlEvent

func (h tlHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].link < h[j].link
}

func (h *tlHeap) push(e tlEvent) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(*h).less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *tlHeap) pop() tlEvent {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && (*h).less(l, small) {
			small = l
		}
		if r < n && (*h).less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		(*h)[i], (*h)[small] = (*h)[small], (*h)[i]
		i = small
	}
	return top
}

const never = time.Duration(math.MaxInt64)

func (h tlHeap) nextAt() time.Duration {
	if len(h) == 0 {
		return never
	}
	return h[0].at
}

// shardSample is one shard's streaming metric snapshot at a sample time.
type shardSample struct {
	at               time.Duration
	penalty          float64
	minPaths         int32
	minPodCap        float64
	activeCorrupting int32
	disabled         int32
	protected        int32
	maxPerPipe       int32
	repairs          int32 // cumulative dispatches
	cost             float64
}

// shard owns a contiguous pod range [podLo, podLo+pods). Pods never share
// links, spine planes, or capacity pools, so a shard simulates its range
// over the full horizon with zero cross-shard synchronization; only the
// sample series merge.
type shard struct {
	cfg      Config
	sol      Solution
	podLo    int   // global index of first pod (identification only)
	pods     int32 // pods in this shard
	lpp      int32 // links per pod
	torLpp   int32 // ToR links per pod
	fabrics  int32
	tors     int32
	spines   int32
	maxPaths int32

	links   []linkState
	spineUp []int16   // [pod*fabrics + fab] up fabric->spine links
	podCap  []float64 // [pod] sum of effSpeed over up links

	// podPaths caches each pod's least ToR path count; pods touched since
	// the last sample are marked dirty and recomputed lazily at sample
	// time (events are sparse: a handful per shard per sample interval).
	podPaths []int32
	podDirty []bool
	dirty    []int32

	corrupting []int32 // sorted, duplicate-free local link IDs
	onsets     tlHeap
	repairs    tlHeap

	traceRng  *rand.Rand // onset times, loss rates, re-arm intervals
	repairRng *rand.Rand // repair durations (consumption may diverge per solution)

	penalty        float64
	activeCorr     int32
	protectedCount int32
	dispatches     int32
	cost           float64
	stats          ShardStats
}

func newShard(cfg Config, shardIdx int, sol Solution) *shard {
	podLo := shardIdx * cfg.PodsPerShard
	podHi := podLo + cfg.PodsPerShard
	if podHi > cfg.Fabric.Pods {
		podHi = cfg.Fabric.Pods
	}
	s := &shard{
		cfg:      cfg,
		sol:      sol,
		podLo:    podLo,
		pods:     int32(podHi - podLo),
		lpp:      int32(cfg.Fabric.LinksPerPod()),
		torLpp:   int32(cfg.Fabric.TorLinksPerPod()),
		fabrics:  int32(cfg.Fabric.FabricsPerPod),
		tors:     int32(cfg.Fabric.ToRsPerPod),
		spines:   int32(cfg.Fabric.SpinesPerPlane),
		maxPaths: int32(cfg.Fabric.MaxToRPaths()),
	}
	nLinks := int(s.pods) * int(s.lpp)
	s.links = make([]linkState, nLinks)
	for i := range s.links {
		s.links[i] = linkState{effSpeed: 1, flags: flagUp}
	}
	s.spineUp = make([]int16, int(s.pods)*int(s.fabrics))
	for i := range s.spineUp {
		s.spineUp[i] = int16(s.spines)
	}
	s.podCap = make([]float64, s.pods)
	s.podPaths = make([]int32, s.pods)
	s.podDirty = make([]bool, s.pods)
	for p := range s.podCap {
		s.podCap[p] = float64(s.lpp)
		s.podPaths[p] = s.maxPaths
	}
	s.traceRng = rand.New(rand.NewSource(parallel.SeedFor(cfg.Seed, 2*shardIdx)))
	s.repairRng = rand.New(rand.NewSource(parallel.SeedFor(cfg.Seed, 2*shardIdx+1)))
	s.stats.Links = nLinks
	// Arm every link's first onset in link order: the draw sequence is a
	// pure function of (seed, shard), independent of solution or workers.
	s.onsets = make(tlHeap, 0, nLinks)
	for l := int32(0); l < int32(nLinks); l++ {
		if at := failtrace.NextOnset(s.traceRng); at < cfg.Horizon {
			s.onsets.push(tlEvent{at: at, link: l})
		}
	}
	return s
}

// run drives the shard over the horizon, emitting one shardSample per
// sample interval. Ties between a repair completion and an onset resolve
// repair-first — the same discipline as the seed simulator.
func (s *shard) run() []shardSample {
	n := int(s.cfg.Horizon / s.cfg.SampleEvery)
	samples := make([]shardSample, 0, n)
	for t := s.cfg.SampleEvery; t <= s.cfg.Horizon; t += s.cfg.SampleEvery {
		for {
			nextOnset, nextRepair := s.onsets.nextAt(), s.repairs.nextAt()
			if nextOnset > t && nextRepair > t {
				break
			}
			if nextRepair <= nextOnset {
				s.completeRepair()
			} else {
				s.processOnset()
			}
		}
		samples = append(samples, s.sample(t))
	}
	return samples
}

func (s *shard) pod(link int32) int32    { return link / s.lpp }
func (s *shard) podOff(link int32) int32 { return link % s.lpp }
func (s *shard) isSpine(link int32) bool { return s.podOff(link) >= s.torLpp }
func (s *shard) spineFab(link int32) int32 {
	return (s.podOff(link) - s.torLpp) / s.spines
}
func (s *shard) torLink(pod, tor, fab int32) int32 { return pod*s.lpp + tor*s.fabrics + fab }

// torPaths counts the valley-free paths from a ToR to the spine layer: for
// each up ToR-fabric link, the fabric switch contributes its up spine links.
func (s *shard) torPaths(pod, tor int32) int32 {
	base := pod*s.lpp + tor*s.fabrics
	var paths int32
	for f := int32(0); f < s.fabrics; f++ {
		if s.links[base+f].up() {
			paths += int32(s.spineUp[pod*s.fabrics+f])
		}
	}
	return paths
}

// canDisable is CorrOpt's fast checker: whether taking the link down keeps
// every affected ToR at or above the least-paths constraint. The
// constraint only ever binds within the link's pod.
func (s *shard) canDisable(link int32) bool {
	if !s.links[link].up() {
		return false
	}
	need := int32(s.cfg.Constraint * float64(s.maxPaths))
	pod := s.pod(link)
	if s.isSpine(link) {
		fab := s.spineFab(link)
		for t := int32(0); t < s.tors; t++ {
			if !s.links[s.torLink(pod, t, fab)].up() {
				continue
			}
			if s.torPaths(pod, t)-1 < need {
				return false
			}
		}
		return true
	}
	off := s.podOff(link)
	tor, fab := off/s.fabrics, off%s.fabrics
	return s.torPaths(pod, tor)-int32(s.spineUp[pod*s.fabrics+fab]) >= need
}

// capable reports whether the link's switches can run the solution under
// Config.DeployFraction.
func (s *shard) capable(link int32) bool {
	f := s.cfg.DeployFraction
	return f <= 0 || f >= 1 || deployed(s.podLo*int(s.lpp)+int(link), f)
}

// deployed is the incremental-deployment hash: a splitmix-style mix of the
// global link ID, uniform and deterministic, compared against the fraction.
func deployed(globalLink int, fraction float64) bool {
	x := uint64(globalLink) * 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return float64(x%1e6)/1e6 < fraction
}

func (s *shard) markDirty(pod int32) {
	if !s.podDirty[pod] {
		s.podDirty[pod] = true
		s.dirty = append(s.dirty, pod)
	}
}

// corruptingInsert keeps the tracked set sorted and duplicate-free.
func (s *shard) corruptingInsert(link int32) {
	lo, hi := 0, len(s.corrupting)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.corrupting[mid] < link {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.corrupting) && s.corrupting[lo] == link {
		return
	}
	s.corrupting = append(s.corrupting, 0)
	copy(s.corrupting[lo+1:], s.corrupting[lo:])
	s.corrupting[lo] = link
	if len(s.corrupting) > s.stats.MaxCorrupting {
		s.stats.MaxCorrupting = len(s.corrupting)
	}
}

func (s *shard) corruptingRemove(link int32) {
	lo, hi := 0, len(s.corrupting)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.corrupting[mid] < link {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.corrupting) && s.corrupting[lo] == link {
		s.corrupting = append(s.corrupting[:lo], s.corrupting[lo+1:]...)
	}
}

// processOnset handles the earliest corruption onset. Trace draws (loss
// rate, re-arm interval) always happen — even when the link is down — so
// the trace stream stays a pure function of (seed, shard) no matter what
// the solution or repair schedule did.
func (s *shard) processOnset() {
	ev := s.onsets.pop()
	q := failtrace.SampleLossRate(s.traceRng)
	if rearm := ev.at + failtrace.SampleRepairTime(s.traceRng) + failtrace.NextOnset(s.traceRng); rearm < s.cfg.Horizon {
		s.onsets.push(tlEvent{at: rearm, link: ev.link})
	}
	s.onsetAt(ev.at, ev.link, q)
}

// onsetAt is the per-link lifetime state machine's corruption transition:
// healthy→corrupting (or corrupting→corrupting at a new rate), solution
// engagement, and CorrOpt's fast-checker disable. Split from processOnset
// so the fuzz target can drive it with adversarial inputs.
func (s *shard) onsetAt(at time.Duration, link int32, q float64) {
	st := &s.links[link]
	// Count the trace onset before the liveness check: the trace is paired
	// across solutions, so the counter must not depend on repair schedules.
	s.stats.Onsets++
	if !st.up() {
		return // already out for repair; corruption moot
	}
	pod := s.pod(link)
	if st.corrupting() {
		s.penalty -= st.contribution()
	} else {
		s.activeCorr++
	}
	st.flags |= flagCorrupting
	st.lossRate = float32(q)
	if e, on := s.sol.Apply(q); on && s.capable(link) {
		old := float64(st.effSpeed)
		st.effLoss = float32(e.EffLoss)
		// Round through the packed float32 before adjusting the pod
		// aggregate so increments and later decrements cancel exactly.
		st.effSpeed = float32(e.EffCapacity)
		s.podCap[pod] += float64(st.effSpeed) - old
		if !st.protected() {
			st.flags |= flagProtected
			s.protectedCount++
			s.cost += e.Cost
			s.stats.Activations++
		}
	}
	s.penalty += st.contribution()
	s.corruptingInsert(link)
	s.markDirty(pod)
	if s.canDisable(link) {
		s.disableForRepair(at, link)
	}
}

// disableForRepair takes a corrupting link out of service and schedules
// its repair completion.
func (s *shard) disableForRepair(now time.Duration, link int32) {
	st := &s.links[link]
	pod := s.pod(link)
	s.penalty -= st.contribution()
	s.activeCorr--
	if st.protected() {
		s.protectedCount--
	}
	s.podCap[pod] -= float64(st.effSpeed)
	st.flags &^= flagUp
	if s.isSpine(link) {
		s.spineUp[pod*s.fabrics+s.spineFab(link)]--
	}
	s.markDirty(pod)
	s.dispatches++
	s.stats.Disables++
	s.cost += s.cfg.RepairCost
	s.repairs.push(tlEvent{at: now + failtrace.SampleRepairTime(s.repairRng), link: link})
	if len(s.repairs) > s.stats.MaxRepairBacklog {
		s.stats.MaxRepairBacklog = len(s.repairs)
	}
}

// completeRepair returns a link to service and runs CorrOpt's optimizer:
// freed capacity may let other corrupting links be disabled, worst
// penalty first (ties broken by link ID).
func (s *shard) completeRepair() {
	ev := s.repairs.pop()
	st := &s.links[ev.link]
	pod := s.pod(ev.link)
	st.flags = flagUp
	st.lossRate, st.effLoss = 0, 0
	st.effSpeed = 1
	s.podCap[pod] += 1
	if s.isSpine(ev.link) {
		s.spineUp[pod*s.fabrics+s.spineFab(ev.link)]++
	}
	s.corruptingRemove(ev.link)
	s.markDirty(pod)
	s.stats.Repairs++

	ids := s.activeCorruptingByPenalty()
	for _, id := range ids {
		if s.canDisable(id) {
			s.disableForRepair(ev.at, id)
		}
	}
}

func (s *shard) activeCorruptingByPenalty() []int32 {
	ids := make([]int32, 0, len(s.corrupting))
	for _, id := range s.corrupting {
		if s.links[id].up() {
			ids = append(ids, id)
		}
	}
	// Insertion sort by contribution desc, ID asc on ties: the set is
	// small (tens of links per shard) and the order must be exact.
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0; j-- {
			pi, pj := s.links[ids[j-1]].contribution(), s.links[ids[j]].contribution()
			if pi > pj || (pi == pj && ids[j-1] < ids[j]) {
				break
			}
			ids[j-1], ids[j] = ids[j], ids[j-1]
		}
	}
	return ids
}

// pipeLinks is how many consecutive pod-local link IDs share one switch
// pipe.
const pipeLinks = 16

// maxProtectedPerPipe is the largest number of up protected links on one
// pipe. The corrupting set is sorted and a pipe's links are consecutive
// IDs of one pod, so each pipe is one run of the set: a single pass, no map.
func (s *shard) maxProtectedPerPipe() int32 {
	var best, run int32
	pipe := int32(-1)
	for _, id := range s.corrupting {
		if st := &s.links[id]; !st.up() || !st.protected() {
			continue
		}
		if p := id - s.podOff(id)%pipeLinks; p != pipe {
			pipe, run = p, 0
		}
		run++
		best = max(best, run)
	}
	return best
}

// sample emits the shard's streaming aggregates at time t, recomputing
// least-paths only for pods touched since the last sample.
func (s *shard) sample(t time.Duration) shardSample {
	for _, pod := range s.dirty {
		minPaths := s.maxPaths
		for tor := int32(0); tor < s.tors; tor++ {
			if p := s.torPaths(pod, tor); p < minPaths {
				minPaths = p
			}
		}
		s.podPaths[pod] = minPaths
		s.podDirty[pod] = false
	}
	s.dirty = s.dirty[:0]
	minPaths := int32(math.MaxInt32)
	for _, p := range s.podPaths {
		if p < minPaths {
			minPaths = p
		}
	}
	minCap := math.Inf(1)
	for _, c := range s.podCap {
		if f := c / float64(s.lpp); f < minCap {
			minCap = f
		}
	}
	return shardSample{
		at:               t,
		penalty:          s.penalty,
		minPaths:         minPaths,
		minPodCap:        minCap,
		activeCorrupting: s.activeCorr,
		disabled:         int32(len(s.repairs)),
		protected:        s.protectedCount,
		maxPerPipe:       s.maxProtectedPerPipe(),
		repairs:          s.dispatches,
		cost:             s.cost,
	}
}
