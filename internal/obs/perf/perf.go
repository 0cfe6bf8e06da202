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
// clock reads per span (one per seam). Observations land in fixed
// log2-bucketed histograms — one array increment, no allocation — so
// the steady-state cost is the clock reads themselves (DESIGN.md
// "Self-profiling"). With profiling off (a nil *Profiler on the GPU)
// the only cost is one nil check per seam, and the span path stays
// allocation-free (TestProfilerOffZeroCost).
package perf

import (
	"fmt"
	"math/bits"
)

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
	// multi-domain span: for each shard, the span's wall-clock minus the
	// time the shard spent stepping its own SMs. This is the CPU time
	// the barrier wastes on imbalance. Never observed on one domain.
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

// histBuckets is the fixed bucket count of a duration histogram:
// bucket i holds durations whose bit length is i, i.e. [2^(i-1), 2^i)
// nanoseconds, so 40 buckets span sub-ns to ~9 minutes. Fixed log2
// bucketing keeps Observe allocation-free and makes any two histograms
// mergeable by element-wise addition.
const histBuckets = 40

// Hist is a log2-bucketed duration histogram (nanoseconds). The zero
// value is ready to use. Not safe for concurrent use; the profiler's
// ownership discipline (observation from the engine's own goroutine
// only) makes that unnecessary.
type Hist struct {
	Buckets [histBuckets]uint64 `json:"-"`
	Count   uint64              `json:"count"`
	SumNS   int64               `json:"sum_ns"`
}

// Observe records one duration. Negative durations (a clock running
// backwards mid-observation) clamp to zero rather than corrupting a
// bucket index.
func (h *Hist) Observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	i := bits.Len64(uint64(ns))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.Buckets[i]++
	h.Count++
	h.SumNS += ns
}

// Merge folds o into h element-wise.
func (h *Hist) Merge(o *Hist) {
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
	h.Count += o.Count
	h.SumNS += o.SumNS
}

// MeanNS returns the mean observation, or 0 when empty.
func (h *Hist) MeanNS() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.SumNS) / float64(h.Count)
}

// QuantileNS returns an upper bound on the q-quantile (0 < q <= 1)
// from the bucket boundaries: the upper edge of the bucket holding the
// q·Count-th observation. Resolution is a factor of two — enough to
// separate "tens of ns" barrier spins from "tens of µs" stragglers.
func (h *Hist) QuantileNS(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	target := uint64(q * float64(h.Count))
	if target < 1 {
		target = 1
	}
	var seen uint64
	for i, c := range h.Buckets {
		seen += c
		if seen >= target {
			return int64(1) << uint(i)
		}
	}
	return int64(1) << (histBuckets - 1)
}

// BucketBoundNS returns the exclusive upper bound of bucket i in
// nanoseconds (2^i; bucket 0 holds only zero-duration observations).
func BucketBoundNS(i int) int64 {
	if i <= 0 {
		return 0
	}
	return int64(1) << uint(i)
}

// shard is the per-domain slice of a multi-domain run's profile.
// computeNS is the cross-goroutine seam: the shard's domain writes it
// during a span and the engine reads it after the barrier —
// the barrier's release/acquire pair orders the accesses, and the
// struct's size (two histograms apart) keeps neighbouring shards'
// hot fields off one cache line.
type shard struct {
	compute   Hist
	wait      Hist
	computeNS int64 // this epoch's compute span; written by the shard's worker
	totalNS   int64 // cumulative compute
	waitNS    int64 // cumulative barrier wait
}

// DefaultSampleEvery is the cadence, in multi-domain spans, of the
// counter-track checkpoints when a caller does not choose one.
const DefaultSampleEvery = 4096

// Profiler accumulates one run's (or, after Merge, one session's)
// phase profile. Construct with New, hand it to the engine
// (gpu.GPU.Perf via harness.RunOptions.Profiler), and call Report when
// the run finishes.
//
// Concurrency: Observe* methods belong to the engine's own goroutine;
// RecordShardCompute belongs to the shard's domain (each touches only
// its own index, and the span barrier orders domain writes before
// engine reads). Merge and Report must only run after the profiled
// launch has returned.
type Profiler struct {
	clock       Clock
	sampleEvery int64

	startNS   int64
	epochs    int64
	simCycles int64
	phases    [NumPhases]Hist
	shards    []shard
	samples   []Sample
}

// New builds a profiler over the injected clock. sampleEvery is the
// epoch cadence of counter-track checkpoints (<= 0 disables sampling;
// DefaultSampleEvery is the CLIs' choice). The clock is read once here
// to anchor the run's time axis.
func New(clock Clock, sampleEvery int64) *Profiler {
	return &Profiler{clock: clock, sampleEvery: sampleEvery, startNS: clock()}
}

// Now reads the injected clock.
func (p *Profiler) Now() int64 { return p.clock() }

// ObservePhase records one span of the given phase.
func (p *Profiler) ObservePhase(ph Phase, ns int64) {
	p.phases[ph].Observe(ns)
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

// RecordShardCompute stores the compute time of shard i for the
// current span. Called by the shard's domain between barrier entry and
// exit; the engine folds it in ObserveEpoch.
func (p *Profiler) RecordShardCompute(i int, ns int64) {
	if ns < 0 {
		ns = 0
	}
	p.shards[i].computeNS = ns
}

// ObserveEpoch folds one multi-domain span ("epoch": one barrier): the epoch's wall span
// [startNS, endNS) becomes a PhaseDomainCompute observation, each
// shard's recorded compute lands in its compute histogram, and the
// remainder of the epoch span becomes that shard's barrier wait. The
// summed wait is also recorded under PhaseBarrierWait. Every
// sampleEvery epochs a counter-track checkpoint is appended.
func (p *Profiler) ObserveEpoch(startNS, endNS int64, workers int) {
	epochNS := endNS - startNS
	if epochNS < 0 {
		epochNS = 0
	}
	p.phases[PhaseDomainCompute].Observe(epochNS)
	var waitSum int64
	for i := 0; i < workers && i < len(p.shards); i++ {
		s := &p.shards[i]
		c := s.computeNS
		if c > epochNS {
			c = epochNS // a straggler shard defines the epoch span
		}
		w := epochNS - c
		s.compute.Observe(c)
		s.wait.Observe(w)
		s.totalNS += c
		s.waitNS += w
		waitSum += w
	}
	p.phases[PhaseBarrierWait].Observe(waitSum)
	p.epochs++
	if p.sampleEvery > 0 && p.epochs%p.sampleEvery == 0 {
		p.checkpoint(endNS)
	}
}

// checkpoint appends one counter-track sample: cumulative per-phase
// and per-shard nanoseconds at a known wall offset.
func (p *Profiler) checkpoint(nowNS int64) {
	s := Sample{AtNS: nowNS - p.startNS, Epoch: p.epochs}
	for i := range p.phases {
		s.PhaseNS[i] = p.phases[i].SumNS
	}
	for i := range p.shards {
		s.Shards = append(s.Shards, ShardSample{
			ComputeNS: p.shards[i].totalNS,
			WaitNS:    p.shards[i].waitNS,
		})
	}
	p.samples = append(p.samples, s) // one sample per checkpoint interval, not per cycle
}

// Merge folds another profiler's accumulation into p (histograms add,
// shard totals add index-wise, the other's counter-track samples are
// dropped — checkpoints are only meaningful on one run's time axis).
// Used by harness.Session to aggregate per-run profilers into one
// session report.
func (p *Profiler) Merge(o *Profiler) {
	for i := range p.phases {
		p.phases[i].Merge(&o.phases[i])
	}
	p.EnsureShards(len(o.shards))
	for i := range o.shards {
		p.shards[i].compute.Merge(&o.shards[i].compute)
		p.shards[i].wait.Merge(&o.shards[i].wait)
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
