package fleetsim

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
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
// (a paired comparison: onset times and loss rates are identical across
// solutions because the trace is drawn once per shard, from a stream of
// its own, and repair draws come from a separate one). The (shard ×
// solution) grid fans out over internal/parallel; results land in
// index-addressed slots and merge in shard order, so the output is
// byte-identical at any worker count.
//
// Jobs are numbered shard-major and parallel.Map hands indices out in
// order, so a shard's jobs run close together: the first to start draws
// the shard's trace and the last to finish drops it, leaving about one
// trace per worker alive at a time.
func RunMatrix(cfg Config, sols []Solution) MatrixResult {
	cfg = cfg.normalized()
	nShards, nSols := cfg.Shards(), len(sols)
	type shardRun struct {
		samples []shardSample
		stats   ShardStats
	}
	type sharedTrace struct {
		once   sync.Once
		onsets []onset
		users  atomic.Int32
	}
	traces := make([]sharedTrace, nShards)
	runs := parallel.Map(nShards*nSols, func(i int) shardRun {
		sh, si := i/nSols, i%nSols
		tr := &traces[sh]
		tr.once.Do(func() {
			tr.onsets = shardTrace(cfg, sh)
			tr.users.Store(int32(nSols))
		})
		s := newShard(cfg, sh, sols[si])
		samples := s.run(tr.onsets)
		if tr.users.Add(-1) == 0 {
			tr.onsets = nil
		}
		return shardRun{samples: samples, stats: s.stats}
	})
	out := MatrixResult{Config: cfg}
	for si := range sols {
		res := SolutionResult{Solution: sols[si].Name()}
		perShard := make([][]shardSample, nShards)
		for sh := 0; sh < nShards; sh++ {
			r := runs[sh*nSols+si]
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

// onset is one entry of a shard's corruption trace: link starts
// corrupting at time at with loss rate q. 24 bytes.
type onset struct {
	at   time.Duration
	link int32
	q    float64
}

// shardTrace draws shard sh's corruption trace: every onset before the
// horizon in (time, link) order. It is a pure function of (seed, shard),
// never of the solution, the repair schedule or the workers, which is
// what lets every solution of a matrix consume the one trace. Every
// link's first onset is armed in link order from the shard's trace
// stream; drawTrace takes it from there.
func shardTrace(cfg Config, sh int) []onset {
	rng := rand.New(rand.NewSource(parallel.SeedFor(cfg.Seed, 2*sh)))
	_, pods := cfg.shardPods(sh)
	nLinks := pods * cfg.Fabric.LinksPerPod()
	armed := make(tlHeap, 0, nLinks)
	for l := int32(0); l < int32(nLinks); l++ {
		if at := failtrace.NextOnset(rng); at < cfg.Horizon {
			armed.push(tlEvent{at: at, link: l})
		}
	}
	return drawTrace(cfg.Horizon, rng, armed, nLinks)
}

// drawTrace pops the armed onsets in (time, link) order. Each pop draws
// the link's loss rate, then its re-arm interval: the repair turnaround
// plus the next time to failure. The trace is sized from the expected
// onset count of nLinks links with a margin of four standard deviations,
// so it is allocated once at any horizon.
func drawTrace(horizon time.Duration, rng *rand.Rand, armed tlHeap, nLinks int) []onset {
	e := failtrace.ExpectedEvents(nLinks, horizon)
	trace := make([]onset, 0, int(e+4*math.Sqrt(e))+16)
	for len(armed) > 0 {
		ev := armed.pop()
		q := failtrace.SampleLossRate(rng)
		if rearm := ev.at + failtrace.SampleRepairTime(rng) + failtrace.NextOnset(rng); rearm < horizon {
			armed.push(tlEvent{at: rearm, link: ev.link})
		}
		trace = append(trace, onset{at: ev.at, link: ev.link, q: q})
	}
	return trace
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
	torUp   []bool    // [(pod*fabrics + fab)*tors + tor] ToR-fabric link up
	paths   []int32   // [pod*tors + tor] see torPaths
	podCap  []float64 // [pod] sum of effSpeed over up links

	// podPaths caches each pod's least ToR path count, and is never above
	// it. A link going down can only lower the count, so adjustPaths
	// lowers the cache in place; a link coming back may raise it, so the
	// pod is marked dirty and re-read from paths at sample time (repairs
	// are sparse: a handful per shard per sample interval). leastPaths is
	// the least of podPaths.
	podPaths   []int32
	podDirty   []bool
	dirty      []int32
	leastPaths int32

	// pipeProt counts each pipe's up protected links ([pod*pipesPerPod +
	// podOff/pipeLinks]); pipeHist[c] is the number of pipes whose count
	// is c, so the worst pipe is the top non-empty bucket.
	pipesPerPod int32
	pipeProt    []int32
	pipeHist    [pipeLinks + 1]int32

	// corrupting holds each pod's corrupting links in a fixed window:
	// pod p's sorted, duplicate-free local IDs fill
	// corrupting[p*lpp : p*lpp+podCorr[p]]. Nothing grows with the horizon.
	corrupting []int32
	podCorr    []int32
	nCorr      int     // corrupting links in all windows
	candidates []int32 // the optimizer's scratch: one pod's up corrupting links
	repairs    tlHeap
	repairRng  *rand.Rand // repair durations (consumption may diverge per solution)

	penalty        float64
	activeCorr     int32
	protectedCount int32
	dispatches     int32
	cost           float64
	stats          ShardStats
}

// shardPods is shard sh's pod range: its first pod and its pod count.
func (c Config) shardPods(sh int) (lo, n int) {
	lo = sh * c.PodsPerShard
	return lo, min(c.PodsPerShard, c.Fabric.Pods-lo)
}

func newShard(cfg Config, shardIdx int, sol Solution) *shard {
	podLo, pods := cfg.shardPods(shardIdx)
	s := &shard{
		cfg:      cfg,
		sol:      sol,
		podLo:    podLo,
		pods:     int32(pods),
		lpp:      int32(cfg.Fabric.LinksPerPod()),
		torLpp:   int32(cfg.Fabric.TorLinksPerPod()),
		fabrics:  int32(cfg.Fabric.FabricsPerPod),
		tors:     int32(cfg.Fabric.ToRsPerPod),
		spines:   int32(cfg.Fabric.SpinesPerPlane),
		maxPaths: int32(cfg.Fabric.MaxToRPaths()),
	}
	s.pipesPerPod = (s.lpp + pipeLinks - 1) / pipeLinks
	nLinks := int(s.pods) * int(s.lpp)
	s.links = make([]linkState, nLinks)
	for i := range s.links {
		s.links[i] = linkState{effSpeed: 1, flags: flagUp}
	}
	s.spineUp = make([]int16, int(s.pods)*int(s.fabrics))
	for i := range s.spineUp {
		s.spineUp[i] = int16(s.spines)
	}
	s.torUp = make([]bool, int(s.pods)*int(s.torLpp))
	for i := range s.torUp {
		s.torUp[i] = true
	}
	s.paths = make([]int32, int(s.pods)*int(s.tors))
	for i := range s.paths {
		s.paths[i] = s.maxPaths
	}
	s.leastPaths = s.maxPaths
	s.pipeProt = make([]int32, s.pods*s.pipesPerPod)
	s.pipeHist[0] = int32(len(s.pipeProt))
	s.podCap = make([]float64, s.pods)
	s.podPaths = make([]int32, s.pods)
	s.podDirty = make([]bool, s.pods)
	for p := range s.podCap {
		s.podCap[p] = float64(s.lpp)
		s.podPaths[p] = s.maxPaths
	}
	s.corrupting = make([]int32, nLinks)
	s.podCorr = make([]int32, s.pods)
	s.repairRng = rand.New(rand.NewSource(parallel.SeedFor(cfg.Seed, 2*shardIdx+1)))
	s.stats.Links = nLinks
	return s
}

// run drives the shard over the horizon through the shard's trace,
// emitting one shardSample per sample interval. Ties between a repair
// completion and an onset resolve repair-first — the same discipline as
// the seed simulator.
func (s *shard) run(trace []onset) []shardSample {
	n := int(s.cfg.Horizon / s.cfg.SampleEvery)
	samples := make([]shardSample, 0, n)
	next := 0
	for t := s.cfg.SampleEvery; t <= s.cfg.Horizon; t += s.cfg.SampleEvery {
		for {
			nextOnset, nextRepair := never, s.repairs.nextAt()
			if next < len(trace) {
				nextOnset = trace[next].at
			}
			if nextOnset > t && nextRepair > t {
				break
			}
			if nextRepair <= nextOnset {
				s.completeRepair()
			} else {
				o := &trace[next]
				next++
				s.onsetAt(o.at, o.link, o.q)
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

// torPaths is the number of valley-free paths from a ToR to the spine
// layer: for each up ToR-fabric link, the fabric switch's up spine links.
// adjustPaths keeps it current as links go down and come back.
func (s *shard) torPaths(pod, tor int32) int32 { return s.paths[pod*s.tors+tor] }

// fabricRow is one fabric switch's view of its pod, both indexed by ToR:
// whether the ToR's link to it is up, and the ToR's path count. Callers
// reslice paths to len(up) so the compiler drops the loop's bounds checks.
func (s *shard) fabricRow(pod, fab int32) (up []bool, paths []int32) {
	row := (pod*s.fabrics + fab) * s.tors
	return s.torUp[row : row+s.tors], s.paths[pod*s.tors : (pod+1)*s.tors]
}

// adjustPaths moves the path counts by delta as a link goes up (+1) or
// down (-1), and the ToR up-mask and the pod's least path count with
// them. A ToR-fabric link carries its fabric switch's up spine links; a
// fabric-spine link is one path for every ToR whose link to that fabric
// switch is up. Only the link's own pod changes.
func (s *shard) adjustPaths(link, delta int32) {
	pod := s.pod(link)
	least := s.maxPaths // least count this change moved
	if s.isSpine(link) {
		fab := s.spineFab(link)
		s.spineUp[pod*s.fabrics+fab] += int16(delta)
		up, paths := s.fabricRow(pod, fab)
		paths = paths[:len(up)]
		for t, u := range up {
			if u {
				paths[t] += delta
				least = min(least, paths[t])
			}
		}
	} else {
		off := s.podOff(link)
		tor, fab := off/s.fabrics, off%s.fabrics
		s.torUp[(pod*s.fabrics+fab)*s.tors+tor] = delta > 0
		p := &s.paths[pod*s.tors+tor]
		*p += delta * int32(s.spineUp[pod*s.fabrics+fab])
		least = *p
	}
	switch {
	case delta > 0:
		s.markDirty(pod)
	case least < s.podPaths[pod]:
		s.podPaths[pod] = least
		s.leastPaths = min(s.leastPaths, least)
	}
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
		up, paths := s.fabricRow(pod, s.spineFab(link))
		paths = paths[:len(up)]
		for t, u := range up {
			if u && paths[t] <= need {
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

// corruptWindow is pod's window of the corrupting set.
func (s *shard) corruptWindow(pod int32) []int32 {
	lo := pod * s.lpp
	return s.corrupting[lo : lo+s.podCorr[pod]]
}

// corruptingInsert keeps the link's pod window sorted and duplicate-free.
// The window cannot overflow into the next pod's: a pod has lpp links.
func (s *shard) corruptingInsert(link int32) {
	pod := s.pod(link)
	w := s.corruptWindow(pod)
	i := len(w)
	for i > 0 && w[i-1] > link {
		i--
	}
	if i > 0 && w[i-1] == link {
		return
	}
	w = w[:len(w)+1]
	copy(w[i+1:], w[i:])
	w[i] = link
	s.podCorr[pod]++
	s.nCorr++
	s.stats.MaxCorrupting = max(s.stats.MaxCorrupting, s.nCorr)
}

func (s *shard) corruptingRemove(link int32) {
	pod := s.pod(link)
	w := s.corruptWindow(pod)
	for i, id := range w {
		if id == link {
			copy(w[i:], w[i+1:])
			s.podCorr[pod]--
			s.nCorr--
			return
		}
	}
}

// onsetAt is the per-link lifetime state machine's corruption transition:
// healthy→corrupting (or corrupting→corrupting at a new rate), solution
// engagement, and CorrOpt's fast-checker disable. The trace's onsets reach
// it through run; the tests and the fuzz target drive it directly with
// adversarial inputs.
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
			s.movePipe(link, +1)
			s.cost += e.Cost
			s.stats.Activations++
		}
	}
	s.penalty += st.contribution()
	s.corruptingInsert(link)
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
		s.movePipe(link, -1)
	}
	s.podCap[pod] -= float64(st.effSpeed)
	st.flags &^= flagUp
	s.adjustPaths(link, -1)
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
//
// Only the repaired pod's links are candidates. canDisable reads nothing
// outside the link's pod, only a repair raises a pod's path counts, and
// every onset and repair leaves no up corrupting link passing canDisable
// (checkInvariants audits this), so a link in any other pod would fail
// the check anyway. The pod's corrupting links are its window of the
// corrupting set.
func (s *shard) completeRepair() {
	ev := s.repairs.pop()
	st := &s.links[ev.link]
	pod := s.pod(ev.link)
	st.flags = flagUp
	st.lossRate, st.effLoss = 0, 0
	st.effSpeed = 1
	s.podCap[pod] += 1
	s.adjustPaths(ev.link, +1)
	s.corruptingRemove(ev.link)
	s.stats.Repairs++

	for _, id := range s.sortByPenalty(s.corruptWindow(pod)) {
		if s.canDisable(id) {
			s.disableForRepair(ev.at, id)
		}
	}
}

// sortByPenalty returns the up links of ids in the reused candidates
// buffer, by contribution descending and ID ascending on ties.
func (s *shard) sortByPenalty(ids []int32) []int32 {
	c := s.candidates[:0]
	for _, id := range ids {
		if s.links[id].up() {
			c = append(c, id)
		}
	}
	// Insertion sort: a pod holds a handful of corrupting links and the
	// order must be exact.
	for i := 1; i < len(c); i++ {
		for j := i; j > 0; j-- {
			pi, pj := s.links[c[j-1]].contribution(), s.links[c[j]].contribution()
			if pi > pj || (pi == pj && c[j-1] < c[j]) {
				break
			}
			c[j-1], c[j] = c[j], c[j-1]
		}
	}
	s.candidates = c
	return c
}

// pipeLinks is how many consecutive pod-local link IDs share one switch
// pipe.
const pipeLinks = 16

// movePipe moves the up protected count of the link's pipe by delta, and
// the pipe from its old histogram bucket to its new one.
func (s *shard) movePipe(link, delta int32) {
	p := &s.pipeProt[s.pod(link)*s.pipesPerPod+s.podOff(link)/pipeLinks]
	s.pipeHist[*p]--
	*p += delta
	s.pipeHist[*p]++
}

// maxProtectedPerPipe is the largest number of up protected links on one
// pipe: the top non-empty bucket of the pipe histogram.
func (s *shard) maxProtectedPerPipe() int32 {
	for c := int32(pipeLinks); c > 0; c-- {
		if s.pipeHist[c] != 0 {
			return c
		}
	}
	return 0
}

// sample emits the shard's streaming aggregates at time t. It re-reads
// least-paths only for pods with a link back up since the last sample. A
// re-read can only raise a pod's cache, so the pods' minimum is rescanned
// only when a pod that held it rose. The least pod capacity is
// min(podCap) over lpp: dividing by a positive constant keeps the order,
// so one division gives the least exactly.
func (s *shard) sample(t time.Duration) shardSample {
	rescan := false
	for _, pod := range s.dirty {
		old, least := s.podPaths[pod], s.maxPaths
		for _, p := range s.paths[pod*s.tors : (pod+1)*s.tors] {
			least = min(least, p)
		}
		s.podPaths[pod] = least
		s.podDirty[pod] = false
		rescan = rescan || (old == s.leastPaths && least > old)
	}
	s.dirty = s.dirty[:0]
	if rescan {
		s.leastPaths = slices.Min(s.podPaths)
	}
	return shardSample{
		at:               t,
		penalty:          s.penalty,
		minPaths:         s.leastPaths,
		minPodCap:        slices.Min(s.podCap) / float64(s.lpp),
		activeCorrupting: s.activeCorr,
		disabled:         int32(len(s.repairs)),
		protected:        s.protectedCount,
		maxPerPipe:       s.maxProtectedPerPipe(),
		repairs:          s.dispatches,
		cost:             s.cost,
	}
}
