package gpu

// Span domains.
//
// A span (span.go) is run by one or more *domains*: contiguous shards
// of the SMs, each taken across the whole span by one goroutine. The
// first domain always runs on the engine's own goroutine; a launch with
// SMWorkers <= 1 has only that one, so it starts no goroutine and meets
// no barrier. Further domains run on helper goroutines that live for
// the launch, and the engine joins them at a barrier when its own
// domain has finished the span.
//
// Invariants that make any domain count deterministic:
//
//  1. Domain isolation. During a span a domain only touches the state
//     of its own SMs: warp slots, scoreboards, schedulers, the L1D tag
//     array and MSHRs. Shared structures are reached through two
//     staging channels replayed by the engine after the span: outbound
//     memory-system requests (memsys.StageBuffer) and functional
//     global-memory stores (memory.StoreLog), both stamped with their
//     emitting cycle. The linter's memsys-mutation rule enforces the
//     first statically.
//  2. Deterministic merge. Both staging channels are replayed in
//     (cycle, SM id, program order) — exactly the order ticking every
//     cycle generates them — so the event heap's sequence numbers and
//     the functional memory image evolve identically.
//  3. Fill-free spans. A multi-cycle span is only planned when the
//     memory system guarantees that no L1 fill it has not already
//     scheduled can land inside it (memsys.SafeHorizon), so an SM's
//     evolution across the span depends on nothing outside its own
//     state and its planned fills.
//
// Everything that reads or writes cross-SM state (System.Cycle with its
// L1 fill delivery, dispatch, the PerCycle hook, horizon planning) runs
// on the engine's goroutine between spans.
//
// The barrier is a hybrid spin/park design: both sides yield-spin for
// barrierSpins rounds (cheap when all cores are busy advancing SMs) and
// then park on a buffered signal channel (cheap when the machine is
// oversubscribed). The signal channels have capacity 1 and are written
// with non-blocking sends: a stale token costs one spurious wakeup —
// the waiter re-checks its atomic and parks again — and never a lost
// one.

import (
	"runtime"
	"sync"
	"sync/atomic"

	"cawa/internal/obs/perf"
	"cawa/internal/sm"
)

// barrierSpins is how many scheduler yields a barrier waiter burns
// before parking on its channel. Spans put tens of barriers, not
// hundreds, into a simulated kilocycle, so the budget is not worth
// tuning: the measured barrier wait is the imbalance between the
// domains' shares of the span, which no spin budget changes.
const barrierSpins = 64

// domainWorker is one domain: its share of the SMs.
type domainWorker struct {
	id     int // shard index, for per-shard profiling
	sms    []*sm.SM
	wakeCh chan struct{} // capacity 1; park/wake signal (helpers only)
}

// domainRunner drives one kernel launch's spans across its domains. It
// is created when a launch starts and stopped (unconditionally, via
// defer) when the launch returns, so an aborted launch can never leak
// its helper goroutines.
type domainRunner struct {
	// workers[0] is the inline domain, run by stepSpan's caller; the
	// rest are run by one helper goroutine each.
	workers []*domainWorker
	// from/to delimit the span (inclusive); written before the span is
	// published to the helpers.
	from, to int64
	// prof, when non-nil, receives each domain's per-span compute time
	// (RecordShardCompute from the domain's own goroutine; the
	// barrier's release/acquire pair orders those writes before the
	// engine's ObserveEpoch fold). Purely observational: no control
	// flow reads a profiled duration.
	prof *perf.Profiler

	epoch   atomic.Int64 // span counter; incremented to publish a span
	pending atomic.Int64 // helpers that have not finished the span
	stopped atomic.Bool
	doneCh  chan struct{} // capacity 1; last finisher pings the engine
	wg      sync.WaitGroup
}

// newDomainRunner partitions sms contiguously across workers domains
// (clamped to [1, len(sms)]) and starts the helpers parked. prof may
// be nil.
func newDomainRunner(sms []*sm.SM, workers int, prof *perf.Profiler) *domainRunner {
	if workers > len(sms) {
		workers = len(sms)
	}
	if workers < 1 {
		workers = 1
	}
	r := &domainRunner{doneCh: make(chan struct{}, 1), prof: prof}
	if prof != nil && workers > 1 {
		prof.EnsureShards(workers)
	}
	for wi := 0; wi < workers; wi++ {
		lo := wi * len(sms) / workers
		hi := (wi + 1) * len(sms) / workers
		r.workers = append(r.workers, &domainWorker{
			id:     wi,
			sms:    sms[lo:hi],
			wakeCh: make(chan struct{}, 1),
		})
	}
	for _, w := range r.workers[1:] {
		r.wg.Add(1)
		go r.run(w)
	}
	return r
}

// stepSpan runs one span covering cycles from..to (inclusive): every
// domain advances its SMs across the whole span, staging all outbound
// traffic. The caller's goroutine runs the first domain itself and then
// waits for the helpers, if there are any; on return every domain has
// finished, so the caller may touch any SM state until the next span.
// Multi-cycle spans are only legal when no unplanned L1 fill, dispatch,
// or hook can land inside the span — the planner's contract.
func (r *domainRunner) stepSpan(from, to int64) {
	helpers := r.workers[1:]
	if len(helpers) > 0 {
		r.from, r.to = from, to
		r.pending.Store(int64(len(helpers)))
		r.epoch.Add(1)
		for _, w := range helpers {
			select {
			case w.wakeCh <- struct{}{}:
			default:
			}
		}
	}
	r.step(r.workers[0], from, to)
	for spins := 0; r.pending.Load() != 0; {
		if spins < barrierSpins {
			spins++
			runtime.Gosched()
			continue
		}
		<-r.doneCh // park; a stale token just re-checks the counter
	}
}

// step takes one domain across the span on the calling goroutine.
func (r *domainRunner) step(w *domainWorker, from, to int64) {
	if r.prof == nil || len(r.workers) == 1 {
		w.stepSpan(from, to)
		return
	}
	t0 := r.prof.Now()
	w.stepSpan(from, to)
	r.prof.RecordShardCompute(w.id, r.prof.Now()-t0)
}

// stop terminates the helpers and waits for them to exit. Safe to call
// more than once; the runner cannot be restarted.
func (r *domainRunner) stop() {
	if r.stopped.Swap(true) {
		return
	}
	for _, w := range r.workers[1:] {
		select {
		case w.wakeCh <- struct{}{}:
		default:
		}
	}
	r.wg.Wait()
}

// run is a helper's loop: wait for a span (or stop), take the owned SMs
// across it, and report completion.
func (r *domainRunner) run(w *domainWorker) {
	defer r.wg.Done()
	last := int64(0)
	for {
		for spins := 0; r.epoch.Load() == last; {
			if r.stopped.Load() {
				return
			}
			if spins < barrierSpins {
				spins++
				runtime.Gosched()
				continue
			}
			<-w.wakeCh // park; a stale token just re-checks the epoch
		}
		last++
		r.step(w, r.from, r.to)
		if r.pending.Add(-1) == 0 {
			select {
			case r.doneCh <- struct{}{}:
			default:
			}
		}
	}
}

// stepSpan advances every owned SM from cycle from through to
// (inclusive), one SM after the other. The span is dispatch-free by the
// planner's contract and every fill that lands inside it was planned
// onto the SM's L1 up front, so each SM evolves on state its domain
// owns: before an SM's cycle at t the domain delivers the planned fills
// due at t (the System.Cycle-before-SM.Cycle order of a ticked cycle),
// exactly while the SM still has resident blocks — a drained SM issues
// nothing, so its remaining fills are left for the replay (memsys
// spanfill.go).
//
// When an SM reports it cannot act before some future cycle, the
// cycles up to the earlier of that wake and the next planned fill reach
// it in bulk (AccountSkipped) and the SM next gets a Cycle call there:
// a fill may unblock a load or lapse a refusal, so the delivery cycle
// must be classified for real. Those cycles are dead (no warp ready:
// their stalls are credited at once) or refused (the SM sleeps, every
// pick refused by the MSHRs, and owes them as ticks it settles later,
// sm/sleep.go); the domain cannot tell and need not. The contract with
// the SM is that no cycle goes missing: every cycle of the span reaches
// it as a Cycle or inside an AccountSkipped, in order. The SM charges
// its parked warps by the distance between the cycles it sees, and the
// warps it still evaluates, or the refused ticks it owes, by the calls
// themselves (sm/readiness.go), so a cycle that reached it by neither
// path would be charged to some warps and not to others.
func (w *domainWorker) stepSpan(from, to int64) {
	for _, s := range w.sms {
		l1 := s.L1D()
		live := !s.Idle()
		nf := sm.NoWake
		if live {
			if f := l1.NextSpanFill(); f >= 0 {
				nf = f
			}
		}
		t := from
		for {
			if nf <= t {
				l1.DeliverSpanFills(t)
				nf = sm.NoWake
				if f := l1.NextSpanFill(); f >= 0 {
					nf = f
				}
			}
			next := s.Cycle(t)
			if live && s.Idle() {
				// The last resident block retired during cycle t: stop
				// delivering — the replay owns the rest of the plan.
				live, nf = false, sm.NoWake
			}
			if nf < next {
				next = nf
			}
			if next <= t {
				// The SM acted (or could have) at t: the next cycle
				// must run for real too.
				if t == to {
					break
				}
				t++
				continue
			}
			if next > to {
				// Dead through the end of the span.
				s.AccountSkipped(to - t)
				break
			}
			// Dead until next: bulk-credit the skipped stalls, jump there.
			s.AccountSkipped(next - t - 1)
			t = next
		}
	}
}
