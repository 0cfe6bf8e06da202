package memsys

// Safe-horizon support for the span engine (internal/gpu span.go): the
// engine runs each SM across a multi-cycle span when it can prove no
// SM needs anything from another SM or from the shared memory system
// until the span ends.
//
// A span is safe when every L1 fill that lands inside it is already
// pending in the event heap when the span is planned — those fills are
// extracted up front (PlanSpanFills) and delivered by the SMs' domains
// at their exact cycles (spanfill.go), so the only fills the plan must
// exclude are ones the span itself could *create*:
//
//  1. An access issued during the span (earliest: now+1) reaches its
//     L2 bank after the interconnect hop and can fill no earlier than
//     now + 1 + L2Latency — L2Latency is the minimum L1 round trip,
//     so this holds for the hit path, and the DRAM path is strictly
//     slower.
//  2. A pending internal event (L2 arrival, DRAM completion) at time
//     t can, when processed, schedule a fill no earlier than
//     t + L2Latency - icntLat: a DRAM completion fans its fills out
//     at exactly that offset, and an L2 arrival at t starts bank
//     service no earlier than t, responding at t + L2Latency - icntLat
//     at the soonest. Internal events that events of either kind
//     schedule in turn are strictly later, so the minimum over the
//     pending internal events bounds every transitively created fill.
//     (Dirty-victim writebacks are stores and never fill.)
//
// The internals heap mirrors the pending non-fill event times so bound
// 2 is O(1) to read. DESIGN.md ("Span engine") carries the full
// argument.

// timeHeap is a min-heap of event times. Times are pushed when their
// events are scheduled and popped when they are processed — and events
// are processed in global (time, seq) order, so the time being retired
// is always the heap minimum. The minimum is therefore exact, not an
// estimate, at every point between System.Cycle calls.
type timeHeap []int64

func (h timeHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func (h timeHeap) down(i int) {
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && h[r] < h[c] {
			c = r
		}
		if h[i] <= h[c] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

func (h *timeHeap) push(t int64) {
	*h = append(*h, t)
	h.up(len(*h) - 1)
}

// popMin removes the earliest time. The caller must have checked the
// heap is non-empty.
func (h *timeHeap) popMin() {
	old := *h
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	if n > 0 {
		old[:n].down(0)
	}
}

// SafeHorizon returns the earliest future cycle at which a fill that
// is NOT already pending in the event heap could be delivered to an
// L1, given that no SM has issued an access after cycle now and every
// event due <= now has been processed (processing the events due at
// now+1 as well, as the span engine does before it plans, only moves
// bound 2 later). Cycles now+1 .. SafeHorizon(now)-1 are safe to run as
// one span once the already-pending fills have been extracted with
// PlanSpanFills for in-span delivery; the horizon cycle starts the
// next span.
func (s *System) SafeHorizon(now int64) int64 {
	h := now + 1 + int64(s.cfg.L2Latency)
	if len(s.internals) > 0 {
		if b := s.internals[0] + int64(s.cfg.L2Latency) - s.icntLat; b < h {
			h = b
		}
	}
	return h
}
