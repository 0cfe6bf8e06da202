// Package perf is the simulator's self-profiling layer: a low-overhead
// wall-clock phase profiler for the seams of the engine's span loop.
// Where internal/obs observes the *simulated* machine (IPC, stall
// counts, cache hit rates on the cycle axis), perf observes the
// *simulator itself* on the wall-clock axis — where the host
// nanoseconds of a run go: taking SM domains across a span, waiting at
// the span barrier, replaying staged memory traffic, draining the
// shared memory system, planning horizons.
//
// The package never reads the host clock. Simulation packages are
// banned from wall-clock access by cawalint (the cycle counter is the
// only time that may influence results), and perf sits under the same
// ban: every Profiler takes an injected Clock, and the only
// wall-clock-backed constructors live in internal/harness and the
// CLIs, which are outside the deterministic core. The clock is strictly
// observational — no engine control flow depends on a profiled
// duration — so profiled runs are byte-identical to unprofiled runs.
//
// Overhead budget: with profiling on, the engine performs a handful of
// clock reads per span (one per seam), and on several domains one more
// per SM a domain runs. An observation adds to a count and a
// nanosecond sum — no allocation — so the steady-state cost is the
// clock reads themselves (DESIGN.md "Self-profiling"). With
// profiling off (a nil *Profiler on the GPU) the only cost is one nil
// check per seam, and the span path stays allocation-free
// (TestProfilerOffZeroCost).
package perf

import "fmt"

// Clock returns monotonic-enough nanoseconds. Injected so that the
// deterministic core never links the host clock directly; tests inject
// counting fakes, harness/CLIs inject time.Now. Implementations must be
// safe for concurrent use (domains read it during multi-domain spans).
type Clock func() int64

// Phase identifies one seam of the engine's span loop. The seams are
// disjoint stretches of an iteration, so phase totals add up.
type Phase uint8

const (
	// PhaseDomainCompute is SM stepping: the domains taking their SMs
	// across one span — on one inline domain simply that, with several
	// the wall-clock from barrier entry to barrier exit.
	PhaseDomainCompute Phase = iota
	// PhaseBarrierWait is the summed per-shard barrier wait of one
	// multi-domain span: for each shard (one goroutine of the launch),
	// the span's wall-clock minus the time it spent stepping the SMs it
	// claimed. This is the CPU time the barrier wastes on imbalance.
	// Never observed on one domain.
	PhaseBarrierWait
	// PhaseStagedCommit is the span replay: per cycle of the span, the
	// memory events due (past the head's) plus store-log flushes and
	// stage-buffer commits in SM-id order.
	PhaseStagedCommit
	// PhaseMemsysDrain is the shared memory system's event drain at the
	// head of each span (System.Cycle).
	PhaseMemsysDrain
	// PhaseDispatch is thread-block dispatch.
	PhaseDispatch
	// PhaseLookahead is horizon planning: the clamp ladder plus handing
	// the pending in-span fills to their L1s. Observed only once
	// dispatch is exhausted (before that a span is one cycle, unplanned).
	PhaseLookahead

	// NumPhases bounds the phase enum.
	NumPhases
)

// phaseNames index by Phase; these are the stable report keys.
var phaseNames = [NumPhases]string{
	"domain_compute",
	"barrier_wait",
	"staged_commit",
	"memsys_drain",
	"dispatch",
	"lookahead",
}

// String returns the stable snake_case phase name.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase%d", int(p))
}

// total is one phase's accumulation: how many spans it covered and
// their summed nanoseconds.
type total struct {
	count uint64
	sumNS int64
}

func (t *total) add(ns int64) {
	if ns < 0 {
		ns = 0 // a clock running backwards mid-observation
	}
	t.count++
	t.sumNS += ns
}

// shard is the per-domain slice of a multi-domain run's profile: one
// goroutine of the launch, whichever SMs it claimed. computeNS is the
// cross-goroutine seam: the domain adds to it during a span, before
// each SM it ran counts as finished, and the engine reads and clears it
// once every SM has — the finished count's release/acquire pair orders
// the accesses, and the padding keeps neighbouring shards' computeNS
// off one cache line.
type shard struct {
	computeNS int64 // this epoch's compute so far; written by the shard's domain
	totalNS   int64 // cumulative compute
	waitNS    int64 // cumulative barrier wait
	_         [40]byte
}

// Profiler accumulates one run's (or, after Merge, one session's)
// phase totals. Construct with New, hand it to the engine
// (gpu.GPU.Perf via harness.RunOptions.Profiler), and call Report when
// the run finishes.
//
// Concurrency: Observe* methods belong to the engine's own goroutine;
// AddShardCompute belongs to the shard's domain (each touches only its
// own index, and the span's end orders domain writes before engine
// reads). Merge and Report must only run after the profiled
// launch has returned.
type Profiler struct {
	clock Clock

	startNS   int64
	epochs    int64
	simCycles int64
	phases    [NumPhases]total
	shards    []shard
}

// New builds a profiler over the injected clock. The clock is read
// once here to anchor the run's wall time.
func New(clock Clock) *Profiler {
	return &Profiler{clock: clock, startNS: clock()}
}

// Now reads the injected clock.
func (p *Profiler) Now() int64 { return p.clock() }

// ObservePhase records one span of the given phase.
func (p *Profiler) ObservePhase(ph Phase, ns int64) {
	p.phases[ph].add(ns)
}

// EnsureShards sizes the per-shard accumulators for a launch with n
// domains. Existing shard totals are kept (a session
// may run several launches through one profiler); growth allocates,
// so the engine calls this at launch setup, never per cycle.
func (p *Profiler) EnsureShards(n int) {
	for len(p.shards) < n {
		p.shards = append(p.shards, shard{})
	}
}

// AddShardCompute adds ns to shard i's compute time in the current
// span. Called by the shard's domain, once per SM it ran, before that
// SM counts as finished; the engine folds and clears it in
// ObserveEpoch. A domain that ran no SM in a span adds nothing and
// waits the whole span.
func (p *Profiler) AddShardCompute(i int, ns int64) {
	if ns < 0 {
		ns = 0
	}
	p.shards[i].computeNS += ns
}

// ObserveEpoch folds one multi-domain span ("epoch": one barrier): the
// epoch's wall span [startNS, endNS) becomes a PhaseDomainCompute
// observation, each shard's compute in the span adds to its compute
// total, and the remainder of the epoch span to its barrier wait. The
// summed wait is also recorded under PhaseBarrierWait. The shards'
// per-span compute is cleared for the next span.
func (p *Profiler) ObserveEpoch(startNS, endNS int64, workers int) {
	epochNS := max(endNS-startNS, 0)
	p.phases[PhaseDomainCompute].add(epochNS)
	var waitSum int64
	for i := 0; i < workers && i < len(p.shards); i++ {
		s := &p.shards[i]
		c := min(s.computeNS, epochNS) // a straggler shard defines the epoch span
		w := epochNS - c
		s.computeNS = 0
		s.totalNS += c
		s.waitNS += w
		waitSum += w
	}
	// Each wait is at least 0 (c <= epochNS), so the sum needs no clamp.
	p.phases[PhaseBarrierWait].count++
	p.phases[PhaseBarrierWait].sumNS += waitSum
	p.epochs++
}

// Merge folds another profiler's accumulation into p (phase totals
// add, shard totals add index-wise). Used by harness.Session to
// aggregate per-run profilers into one session report.
func (p *Profiler) Merge(o *Profiler) {
	for i := range p.phases {
		p.phases[i].count += o.phases[i].count
		p.phases[i].sumNS += o.phases[i].sumNS
	}
	p.EnsureShards(len(o.shards))
	for i := range o.shards {
		p.shards[i].totalNS += o.shards[i].totalNS
		p.shards[i].waitNS += o.shards[i].waitNS
	}
	p.epochs += o.epochs
	p.simCycles += o.simCycles
}

// Epochs returns how many span barriers the profiler has folded.
func (p *Profiler) Epochs() int64 { return p.epochs }

// AddSimCycles accounts n simulated cycles to the profile. The engine
// calls it once per launch with the launch's cycle span; together with
// the epoch count it yields barriers_per_kcycle.
func (p *Profiler) AddSimCycles(n int64) {
	if n > 0 {
		p.simCycles += n
	}
}

// SimCycles returns the simulated cycles accounted so far.
func (p *Profiler) SimCycles() int64 { return p.simCycles }
