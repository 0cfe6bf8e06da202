package gpu

// The span engine: the one run loop.
//
// SMs interact only through the shared memory system, and the memory
// system can tell, at any cycle boundary, how long that interaction is
// already decided: the L1 fills pending in the event heap have exact
// delivery cycles and line addresses, and memsys.SafeHorizon proves no
// other fill can land before the horizon. So instead of ticking every
// SM every cycle, each iteration of the loop advances the whole device
// by one *span*:
//
//  1. Head. The first cycle's memory events are drained and pending
//     blocks are dispatched, directly on the engine's goroutine — the
//     System.Cycle → dispatch → SM order of a ticked cycle.
//  2. Plan. planHorizon bounds the span: the fill-free guarantee, the
//     MaxCycles abort cycle, the PerCycle hook's next observation
//     point. While blocks wait for dispatch the span is one cycle
//     (capacity frees at a retirement the planner cannot predict). The
//     fills already pending inside the span are handed to their SMs'
//     domains for delivery at their exact cycles (memsys.PlanSpanFills).
//  3. Run. The launch's domains claim the SMs one at a time and take
//     each claimed SM across the whole span (domains.go), staging
//     outbound traffic with per-cycle stamps and skipping each SM's
//     dead cycles on that SM's own wake bound — an SM with nothing to
//     issue costs one tick per span, not one per cycle.
//  4. Replay. The engine walks the span's due cycles in order: a
//     cycle is due when a memory event falls due at it
//     (System.NextEventTime) or an SM staged an access or deferred a
//     store at it (StageBuffer.NextStamp, StoreLog.NextStamp). At each
//     due cycle t it drains the memory events due at t (System.Cycle)
//     and flushes and commits, in SM-id order, the SMs whose oldest
//     stamp is t. A cycle that is not due would drain nothing and
//     commit nothing, so skipping it changes nothing, and the replay
//     reproduces cycle → SM-id → program order exactly: the event
//     heap's sequence numbers — the determinism linchpin that
//     tie-breaks same-time events and thereby decides every
//     bank/channel contention outcome — evolve bit-identically to
//     ticking every cycle. A fill event popping during the replay
//     consumes its domain's delivery record and applies the deferred
//     System-side effects (the FillsDelivered count, the dirty-victim
//     writeback) at exactly its pop position; every other event the
//     replay schedules inside the span is internal by construction.
//
// Kernel completion can land mid-span: domains keep cycling the (now
// empty) SMs to the span end, recording each SM's last block-retirement
// cycle. The replay then stops at the last retirement — later staged
// traffic cannot exist (empty SMs emit none) and later-due events stay
// pending, the warm state a ticked run has at its own final cycle — and
// the cycle counter lands there. Empty-SM cycles beyond that point
// touch nothing but the SM's own cycle latch and writeback scan cache,
// both re-derived on the next launch.
//
// DESIGN.md ("Span engine") carries the full safety argument.

import (
	"fmt"
	"math"

	"cawa/internal/obs/perf"
)

// planHorizon returns the first cycle after the span that starts at
// g.cycle+1, assuming dispatch is exhausted: cycles g.cycle+1 ..
// planHorizon-1 run as one span. It is called with the events due at
// g.cycle+1 already drained. The bound folds the memory system's
// fill-free guarantee, the MaxCycles abort cycle and the PerCycle
// hook's next observation point (both of which may be the span's last
// cycle), and never yields an empty span. The test-only horizonSlack
// widens the result to prove the byte-identity guard is non-vacuous (a
// +1 slack must break equivalence).
func (g *GPU) planHorizon(startCycle int64) int64 {
	f := g.sys.SafeHorizon(g.cycle)
	if g.cfg.MaxCycles > 0 {
		if abort := startCycle + g.cfg.MaxCycles + 1; abort+1 < f {
			f = abort + 1
		}
	}
	if g.PerCycle != nil {
		if g.PerCycleWake == nil {
			return g.cycle + 2 // the hook may act on any cycle: one-cycle spans
		}
		if t := g.PerCycleWake(g.cycle); t+1 < f {
			f = t + 1
		}
	}
	f += g.horizonSlack
	if f < g.cycle+2 {
		f = g.cycle + 2
	}
	return f
}

// runSpan advances the launch by one span. The cycle counter lands on
// the span's last cycle, or on the launch's final cycle when the kernel
// completes inside the span.
func (g *GPU) runSpan(ls *launchState) {
	from := g.cycle + 1
	t0 := g.clock()
	g.sys.Cycle(from)
	g.lap(perf.PhaseMemsysDrain, &t0)
	g.dispatch(ls, from)
	g.lap(perf.PhaseDispatch, &t0)

	end, planned := from, false
	if ls.nextBlock >= ls.total {
		if end = g.planHorizon(ls.startCycle) - 1; end > from {
			g.sys.PlanSpanFills(end + 1)
			planned = true
		}
		g.lap(perf.PhaseLookahead, &t0)
	}

	g.runner.stepSpan(from, end)
	if n := g.runner.domains(); n > 1 && g.Perf != nil {
		// One barrier: the span's wall time folds into DomainCompute,
		// the domains' recorded compute splits it into compute vs. wait.
		t1 := g.clock()
		g.Perf.ObserveEpoch(t0, t1, n)
		t0 = t1
	} else {
		g.lap(perf.PhaseDomainCompute, &t0)
	}

	g.replay(ls, from, end, planned)
	g.lap(perf.PhaseStagedCommit, &t0)
}

// clock reads the profiler's clock; 0 with profiling off.
func (g *GPU) clock() int64 {
	if g.Perf == nil {
		return 0
	}
	return g.Perf.Now()
}

// lap, with profiling on, observes the time since *t0 as one span of
// phase ph and restarts the clock.
func (g *GPU) lap(ph perf.Phase, t0 *int64) {
	if g.Perf == nil {
		return
	}
	t1 := g.Perf.Now()
	g.Perf.ObservePhase(ph, t1-*t0)
	*t0 = t1
}

// replay merges what the domains staged across cycles from..end back
// into the shared state in cycle → SM-id → program order, draining the
// memory events due at each cycle first (the head already drained
// from's), and lands the cycle counter. It visits only the cycles where
// an event or a staged stamp is due. planned says the span had fills
// planned onto the L1s.
func (g *GPU) replay(ls *launchState, from, end int64, planned bool) {
	if ls.retired() >= ls.total {
		// The kernel finished inside the span: replay only to the last
		// retirement and discard the empty overshoot cycles.
		end = from
		for _, t := range ls.lastRetire {
			if t > end {
				end = t
			}
		}
	}
	for t := from; t <= end; {
		if t > from {
			g.sys.Cycle(t)
		}
		g.replayed++
		next := int64(math.MaxInt64)
		for i, l := range g.logs {
			b := g.stages[i]
			if l.NextStamp() <= t {
				l.FlushThrough(t)
			}
			if b.NextStamp() <= t {
				g.sys.CommitThrough(b, t)
			}
			next = min(next, l.NextStamp(), b.NextStamp())
		}
		if e := g.sys.NextEventTime(); e >= 0 && e < next {
			next = e
		}
		// An event already due (a zero-latency hop) drains at the next
		// cycle, as a ticked loop would drain it.
		t = max(t+1, next)
	}
	g.cycle = end
	if !planned {
		return
	}
	for _, s := range g.sms {
		l1 := s.L1D()
		if !l1.SpanFillsDrained() {
			// Unreachable by the planner's contract: a domain only
			// delivers to an SM with resident blocks, so every delivered
			// fill is due at or before the last retirement cycle and the
			// replay popped its event.
			panic(fmt.Sprintf("gpu: sm %d delivered a span fill the replay never reached", s.ID))
		}
		l1.ResetSpanFills()
	}
}
