// Package perf is a stub so the profiler roots resolve.
package perf

// Profiler is the stub self-profiler.
type Profiler struct {
	now int64
}

// Now returns the stub clock.
func (p *Profiler) Now() int64 { return p.now }

// RecordShardCompute accounts one shard's compute time.
func (p *Profiler) RecordShardCompute(shard int, cycles int64) { p.now += cycles }

// ObserveEpoch folds one multi-domain span.
func (p *Profiler) ObserveEpoch(start, end int64, workers int) { p.now = end }
