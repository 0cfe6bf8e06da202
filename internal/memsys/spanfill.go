package memsys

import "cawa/internal/cache"

// In-span fill delivery for the span engine (internal/gpu).
//
// Every fill that lands inside a planned span is already pending in
// the event heap when the span is planned (horizon.go proves the span
// cannot create an earlier one), so the engine extracts them up front —
// PlanSpanFills distributes each onto its target L1's plan — and the
// domain that runs the L1's SM delivers them at their exact cycles
// while the span runs. Delivery splits handleFill's effects between
// the two phases:
//
//   - in-span (the SM's domain, DeliverSpanFills): the L1/SM half —
//     MSHR retirement, the tag-array install with its victim choice,
//     and the scoreboard notification. These feed back into the SM's
//     own execution within the span, so they cannot wait; they touch
//     only state the domain owns.
//   - at the replay (engine goroutine, takeSpanFill): the System half —
//     the FillsDelivered counter and the dirty-victim writeback. The
//     replay consumes one record per popped fill event, so the
//     writeback's sequence number lands exactly where a direct
//     handleFill would have put it.
//
// A domain only delivers to an SM that still has resident blocks: once
// the SM retires its last block it can issue no further accesses, so a
// fill's L1-side effects stop influencing the span and the replay
// applies them whole (handleFill at the event's pop) — or, past the
// replay window when a kernel completes mid-span, leaves the event
// pending, exactly the end-of-launch state of a tick-every-cycle run.

// plannedFill is one pending evL1Fill event copied onto its L1's span
// plan. The sequence number orders same-cycle fills identically to the
// event heap's pop order.
type plannedFill struct {
	time int64
	seq  uint64
	addr int64
}

// spanFill records one in-span delivery for the barrier replay. victim
// is the dirty line address the tag install evicted, or -1. A stale
// record marks a fill whose MSHR entry had already been retired
// (store-forwarded lines); handleFill ignores those, so the replay
// must too.
type spanFill struct {
	time   int64
	addr   int64
	victim int64
	stale  bool
}

// PlanSpanFills copies every pending L1 fill due strictly before
// horizon onto its L1's span plan for in-span delivery by the SM's
// domain. The events stay in the heap — the span replay pops them at
// their cycles and applies the recorded System-side effects.
func (s *System) PlanSpanFills(horizon int64) {
	for i := range s.events {
		e := &s.events[i]
		if e.kind == evL1Fill && e.time < horizon {
			e.l1.planFill(plannedFill{time: e.time, seq: e.seq, addr: e.addr})
		}
	}
}

// planFill inserts one fill into the plan, keeping it (time, seq)
// sorted — the heap iteration order of PlanSpanFills is arbitrary, and
// in-span fills per L1 are few, so an insertion step beats sorting.
func (l *L1D) planFill(p plannedFill) {
	l.plan = append(l.plan, p)
	i := len(l.plan) - 1
	for i > 0 && (l.plan[i-1].time > p.time ||
		(l.plan[i-1].time == p.time && l.plan[i-1].seq > p.seq)) {
		l.plan[i] = l.plan[i-1]
		i--
	}
	l.plan[i] = p
}

// NextSpanFill returns the due cycle of the next planned in-span fill,
// or -1 when the plan is exhausted. Domains clamp their dead-cycle
// jumps to it.
func (l *L1D) NextSpanFill() int64 {
	if l.planHead >= len(l.plan) {
		return -1
	}
	return l.plan[l.planHead].time
}

// DeliverSpanFills applies the L1- and SM-side half of every planned
// fill due at or before now, recording the deferred System-side half
// for the span replay. Called by the SM's domain before the SM's cycle
// at now, mirroring the System.Cycle-before-SM.Cycle order of a
// ticked cycle.
func (l *L1D) DeliverSpanFills(now int64) {
	for l.planHead < len(l.plan) && l.plan[l.planHead].time <= now {
		p := l.plan[l.planHead]
		l.planHead++
		rec := spanFill{time: p.time, addr: p.addr, victim: -1}
		if entry := l.mshr.take(p.addr); entry != nil {
			l.fills++
			ev := l.cache.Fill(entry.req)
			if ev.Valid && ev.Dirty {
				rec.victim = ev.Addr
			}
			if l.fill != nil {
				l.fill(p.addr, entry.tokens)
			}
			l.free = append(l.free, entry)
		} else {
			rec.stale = true
		}
		l.recs = append(l.recs, rec)
	}
}

// takeSpanFill consumes the delivery record matching a popped fill
// event, if the event was delivered in-span. Records are appended in
// (time, seq) order and fill events pop in (time, seq) order, so a
// simple head match aligns them; an event with no matching record
// (the SM was already drained when its cycle ran, or the span never
// reached it) gets the ordinary full handleFill instead.
func (l *L1D) takeSpanFill(time, addr int64) (spanFill, bool) {
	if l.recHead < len(l.recs) {
		if r := l.recs[l.recHead]; r.time == time && r.addr == addr {
			l.recHead++
			return r, true
		}
	}
	return spanFill{}, false
}

// commitSpanFill applies the System-side half of one in-span delivery
// at the event's pop position during the span replay.
func (s *System) commitSpanFill(l *L1D, rec spanFill) {
	if rec.stale {
		return
	}
	s.FillsDelivered++
	if rec.victim >= 0 {
		wb := cache.Request{Addr: rec.victim, Write: true}
		s.schedule(rec.time+s.icntLat, evL2Arrive, rec.victim, l, wb)
	}
}

// SpanFillsDrained reports whether every in-span delivery record has
// been consumed by the replay. The span engine asserts this after
// each span: a domain only delivers to SMs with resident blocks, so
// every delivered fill's event time is at most the last retirement
// cycle and the replay must have popped it.
func (l *L1D) SpanFillsDrained() bool { return l.recHead == len(l.recs) }

// ResetSpanFills clears the plan and record buffers after a span. The
// backing arrays are retained for the next span.
func (l *L1D) ResetSpanFills() {
	l.plan, l.planHead = l.plan[:0], 0
	l.recs, l.recHead = l.recs[:0], 0
}
