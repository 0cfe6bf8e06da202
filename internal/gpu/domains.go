package gpu

// Span domains.
//
// A span (span.go) is run by the launch's *domains*: goroutines that
// take SMs one at a time and run each taken SM across the whole span.
// The first domain always runs on the engine's own goroutine; a launch
// with SMWorkers <= 1 has only that one, so it starts no goroutine,
// touches no atomic and steps the SMs in a plain loop. Further domains
// run on helper goroutines that live for the launch.
//
// Claiming. No domain owns an SM. Each span publishes one atomic claim
// word packing the span's epoch (high bits) with the index of the next
// unclaimed SM (low bits), and every domain, the engine's included,
// claims the next SM by compare-and-swap from a word it read in the
// epoch it is working on. A domain still holding a word of an earlier
// span fails the swap and touches nothing, so a late helper can neither
// take an SM of the next span by mistake nor skip one. Only after a
// successful claim does a domain read the span bounds: the engine
// writes them before it publishes the epoch, and it cannot write the
// next span's before every SM of this one has finished. The span ends
// when the count of finished SMs reaches the SM count — the engine
// waits for that count, not for each helper to check in — so a helper
// that wakes late finds fewer SMs left (or none) and cannot stall the
// span; a slow SM delays only the domain running it.
//
// Invariants that make any domain count and any claim order
// deterministic:
//
//  1. SM isolation. While an SM runs across a span its domain touches
//     only that SM's state: warp slots, scoreboards, scheduler, the L1D
//     tag array and MSHRs. Shared structures are reached through two
//     staging channels per SM, replayed by the engine after the span:
//     outbound memory-system requests (memsys.StageBuffer) and
//     functional global-memory stores (memory.StoreLog), both stamped
//     with their emitting cycle. The linter's memsys-mutation rule
//     enforces the first statically.
//  2. Deterministic merge. Both staging channels are replayed in
//     (cycle, SM id, program order) — exactly the order ticking every
//     cycle generates them — so the event heap's sequence numbers and
//     the functional memory image evolve identically. Which goroutine
//     ran an SM, and when in the span it was claimed, is read by
//     nothing but the host clock; TestClaimOrderIndependence runs the
//     engine matrix with the SMs taken in reverse and shuffled order.
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
// Waiting is a hybrid spin/park design: a helper yield-spins for
// barrierSpins rounds between spans and the engine as long at a span's
// end, then each parks on a buffered signal channel (cheap when the
// machine is oversubscribed). The channels have capacity 1 and are
// written with non-blocking sends: a stale token costs one spurious
// wakeup — the waiter re-checks its atomic and parks again — and never
// a lost one.
//
// A panic inside an SM that a helper runs would otherwise kill the
// process: every claimed SM runs under a recover that keeps the first
// panic, marks the SM finished and closes the span to further claims,
// and the engine re-panics it on its own goroutine once the span has
// ended, where the caller's recover (harness.Session) can turn it into
// the run's error.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"cawa/internal/obs/perf"
	"cawa/internal/sm"
)

// barrierSpins is how many scheduler yields a waiter burns before
// parking on its channel: a helper between spans, the engine at a
// span's end. The helper's budget decides whether two domains beat
// one: it must outlast the engine's replay and the next span's head,
// or the helper parks, wakes late and finds the span half done. It is
// measured, not derived (EXPERIMENTS.md "Claimed SMs"): kmeans +
// strcltr_mid × cawa on GTX480 at Scale 0.06, two domains over one,
// medians of in-process alternations on a shared 2-vCPU host where a
// yield costs about 0.2 µs:
//
//	yields     64     256    1024   4096   16384  1e9 (never parks)
//	2 / 1 dom  0.98   0.88   0.83   0.75   0.80   0.75
//
// with contiguous shards and 64 yields at 1.03. 4096 yields (about
// 1 ms) are as good as never parking, and a helper of a launch that
// stops producing spans still parks within a millisecond.
const barrierSpins = 4096

// Claim word layout: the span's epoch above claimShift, the index of
// the next unclaimed SM (at most the SM count) below it.
const (
	claimShift = 32
	claimMask  = 1<<claimShift - 1
)

// domainRunner drives one kernel launch's spans across its domains. It
// is created when a launch starts and stopped (unconditionally, via
// defer) when the launch returns, so an aborted launch can never leak
// its helper goroutines.
type domainRunner struct {
	// sms are the launch's SMs in claim order: ascending SM id unless a
	// test asked for another order (GPU.UseClaimOrder).
	sms []*sm.SM
	// wake holds one capacity-1 park/wake channel per helper; none on
	// one domain.
	wake []chan struct{}
	// from/to delimit the span (inclusive). Written by the engine
	// before the span's epoch is published; read by a domain only after
	// a successful claim in that epoch.
	from, to int64
	// prof, when non-nil, receives each domain's compute time per SM it
	// ran (AddShardCompute from the domain's own goroutine, before the
	// SM counts as finished, so the engine's ObserveEpoch fold sees it).
	// Purely observational: no control flow reads a profiled duration.
	prof *perf.Profiler
	// step takes one SM across a span: stepSM, or a test's wrapper of
	// it (GPU.PanicInSpanAt, the runner tests' run counts).
	step func(s *sm.SM, from, to int64)

	epoch    uint32        // the current span's epoch (wraps); engine-owned
	claim    atomic.Uint64 // epoch<<claimShift | next unclaimed index
	finished atomic.Int64  // SMs of the current span that are done
	stopped  atomic.Bool
	doneCh   chan struct{} // capacity 1; a helper finishing the span pings the engine
	wg       sync.WaitGroup

	// The first panic of a span, stored before its SM counts as
	// finished, so the engine reads it after the span without a lock.
	panicked atomic.Bool
	panicSM  int
	panicVal any
}

// newDomainRunner readies a launch whose spans run on workers domains
// (clamped to [1, len(sms)]) and starts the helpers parked. sms are
// taken in slice order; prof may be nil.
func newDomainRunner(sms []*sm.SM, workers int, prof *perf.Profiler) *domainRunner {
	if workers > len(sms) {
		workers = len(sms)
	}
	if workers < 1 {
		workers = 1
	}
	r := &domainRunner{sms: sms, prof: prof, step: stepSM, doneCh: make(chan struct{}, 1)}
	// Epoch 0 is closed: nothing can be claimed before the first span.
	r.claim.Store(uint64(len(sms)))
	if workers == 1 {
		return r
	}
	if prof != nil {
		prof.EnsureShards(workers)
	}
	r.wake = make([]chan struct{}, workers-1)
	for i := range r.wake {
		r.wake[i] = make(chan struct{}, 1)
		r.wg.Add(1)
		go r.help(i + 1)
	}
	return r
}

// domains is the launch's domain count, the engine's included.
func (r *domainRunner) domains() int { return len(r.wake) + 1 }

// stepSpan runs one span covering cycles from..to (inclusive): every SM
// is taken across the whole span exactly once, staging all outbound
// traffic. On return every SM has finished, so the caller may touch any
// SM state until the next span. Multi-cycle spans are only legal when
// no unplanned L1 fill, dispatch, or hook can land inside the span —
// the planner's contract.
func (r *domainRunner) stepSpan(from, to int64) {
	if len(r.wake) == 0 {
		for _, s := range r.sms {
			r.step(s, from, to)
		}
		return
	}
	n := int64(len(r.sms))
	r.from, r.to = from, to
	r.finished.Store(0)
	r.epoch++
	r.claim.Store(uint64(r.epoch) << claimShift)
	for _, ch := range r.wake {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	r.work(0, r.epoch)
	for spins := 0; r.finished.Load() != n; {
		if spins < barrierSpins {
			spins++
			runtime.Gosched()
			continue
		}
		<-r.doneCh // park; a stale token just re-checks the count
	}
	if r.panicked.Load() {
		panic(fmt.Sprintf("gpu: sm %d: %v", r.panicSM, r.panicVal))
	}
}

// work claims and runs SMs of span epoch until none is left. Domain d
// is 0 on the engine's goroutine, 1.. on the helpers.
func (r *domainRunner) work(d int, epoch uint32) {
	n := uint64(len(r.sms))
	var t0 int64
	if r.prof != nil {
		t0 = r.prof.Now()
	}
	for {
		w := r.claim.Load()
		if uint32(w>>claimShift) != epoch || w&claimMask >= n {
			return
		}
		if !r.claim.CompareAndSwap(w, w+1) {
			continue
		}
		i := int(w & claimMask)
		done := int64(1)
		if !r.runClaimed(i) {
			done += r.closeSpan(epoch)
		}
		if r.prof != nil {
			t1 := r.prof.Now()
			r.prof.AddShardCompute(d, t1-t0)
			t0 = t1
		}
		if r.finished.Add(done) == int64(n) && d != 0 {
			select {
			case r.doneCh <- struct{}{}:
			default:
			}
		}
	}
}

// runClaimed runs the SM at claim index i across the span and reports
// whether it returned normally. A panic is recovered here, on whichever
// goroutine ran the SM; the first one of the span is kept for the
// engine to re-panic.
func (r *domainRunner) runClaimed(i int) (ok bool) {
	defer func() {
		if p := recover(); p != nil {
			if r.panicked.CompareAndSwap(false, true) {
				r.panicSM, r.panicVal = r.sms[i].ID, p
			}
			ok = false
		}
	}()
	r.step(r.sms[i], r.from, r.to)
	return true
}

// closeSpan ends claiming in span epoch after a panic and returns how
// many SMs were still unclaimed: they will never run and count as
// finished, so the span ends once the SMs already claimed are done.
func (r *domainRunner) closeSpan(epoch uint32) int64 {
	n := uint64(len(r.sms))
	for {
		w := r.claim.Load()
		if uint32(w>>claimShift) != epoch || w&claimMask >= n {
			return 0
		}
		if r.claim.CompareAndSwap(w, uint64(epoch)<<claimShift|n) {
			return int64(n - w&claimMask)
		}
	}
}

// stop terminates the helpers and waits for them to exit. Safe to call
// more than once; the runner cannot be restarted.
func (r *domainRunner) stop() {
	if r.stopped.Swap(true) {
		return
	}
	for _, ch := range r.wake {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	r.wg.Wait()
}

// help is helper d's loop: wait for a new span (or stop), then claim
// and run SMs of it until none is left.
func (r *domainRunner) help(d int) {
	defer r.wg.Done()
	wake := r.wake[d-1]
	last := uint32(0)
	for {
		for spins := 0; ; {
			if e := uint32(r.claim.Load() >> claimShift); e != last {
				last = e
				break
			}
			if r.stopped.Load() {
				return
			}
			if spins < barrierSpins {
				spins++
				runtime.Gosched()
				continue
			}
			<-wake // park; a stale token just re-checks the epoch
		}
		r.work(d, last)
	}
}

// stepSM advances s from cycle from through to (inclusive). The span
// is dispatch-free by the planner's contract and every fill that lands
// inside it was planned onto the SM's L1 up front, so the SM evolves on
// its own state alone: before its cycle at t the domain delivers the
// planned fills due at t (the System.Cycle-before-SM.Cycle order of a
// ticked cycle), exactly while the SM still has resident blocks — a
// drained SM issues nothing, so its remaining fills are left for the
// replay (memsys spanfill.go).
//
// When the SM reports it cannot act before some future cycle, the
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
func stepSM(s *sm.SM, from, to int64) {
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
			// The SM acted (or could have) at t: the next cycle must
			// run for real too.
			if t == to {
				return
			}
			t++
			continue
		}
		if next > to {
			// Dead through the end of the span.
			s.AccountSkipped(to - t)
			return
		}
		// Dead until next: bulk-credit the skipped stalls, jump there.
		s.AccountSkipped(next - t - 1)
		t = next
	}
}
