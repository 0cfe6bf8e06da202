package memsys

import (
	"math"

	"cawa/internal/cache"
)

// The span engine's two-phase memory interface.
//
// When every L1 miss schedules its L2-arrive event directly, the global
// sequence counter (System.seq) advances in the order the SMs are
// ticked — SM 0's accesses of a cycle before SM 1's, and so on. That
// sequence order is the determinism linchpin: it tie-breaks same-cycle
// events in the heap, which decides L2 bank and DRAM channel
// contention, which decides every downstream latency.
//
// The span engine (internal/gpu) runs each SM across a whole span of
// cycles before the next SM, possibly on another goroutine, so SMs
// cannot touch the shared event heap while they run. Each SM *stages*
// its outbound requests into a private StageBuffer, stamped with the
// emitting cycle, and the engine replays the span in cycle order:
// System.Cycle(t), then CommitThrough(buf, t) per SM in id order, at
// every cycle where an event or a stamp is due (a cycle with neither
// would do nothing). An SM stages its own requests in program order, so
// the replay assigns exactly the sequence numbers a tick-every-cycle
// loop would have — the heaps evolve identically, bit for bit
// (TestStagedCommitEquivalence and the harness engine-equivalence
// matrix).
//
// Only SM-originated accesses stage. Fill-side traffic — dirty-victim
// writebacks scheduled by handleFill — runs inside the engine's serial
// System.Cycle, *before* the cycle's SM accesses, and keeps scheduling
// directly so its sequence numbers precede theirs.

// stagedAccess is one captured request. SMs only ever emit L2-arrive
// events (loads/stores leaving the L1), so the kind is implicit.
type stagedAccess struct {
	cycle int64 // SM cycle that emitted the access
	time  int64 // L2 arrival time (cycle + interconnect latency)
	addr  int64 // line address
	l1    *L1D
	req   cache.Request
}

// StageBuffer collects one SM's outbound memory-system requests during
// a span. It is owned by the domain running the SM until the span ends
// and drained by the engine's replay afterwards; it needs no locking.
// Accesses are appended in cycle order (an SM's cycles run in
// sequence), so the committed prefix [0, head) is always the entries
// with the smallest cycle stamps.
type StageBuffer struct {
	pending []stagedAccess
	head    int // entries below head are committed, awaiting reset
}

// Len reports the number of staged, uncommitted accesses.
func (b *StageBuffer) Len() int { return len(b.pending) - b.head }

// NextStamp returns the emitting cycle of the oldest uncommitted
// access, or math.MaxInt64 when none is pending: the first cycle at
// which the span replay has to commit this buffer.
func (b *StageBuffer) NextStamp() int64 {
	if b.head < len(b.pending) {
		return b.pending[b.head].cycle
	}
	return math.MaxInt64
}

// reset drops the (fully committed) backlog, keeping capacity.
func (b *StageBuffer) reset() {
	for i := range b.pending {
		b.pending[i] = stagedAccess{} // drop the stale L1D pointer
	}
	b.pending = b.pending[:0]
	b.head = 0
}

// SetStaging installs buf as the L1D's staging buffer (nil restores
// direct scheduling). While staged, AccessLoad/AccessStore capture
// their outbound events instead of touching the shared event heap.
func (l *L1D) SetStaging(buf *StageBuffer) { l.stage = buf }

// Staged reports whether a staging buffer is installed (the L1 belongs
// to a running launch of the span engine).
func (l *L1D) Staged() bool { return l.stage != nil }

// emitL2 sends one L2-arrive request emitted at SM cycle now: staged
// when a buffer is installed, scheduled directly otherwise. The event lands at the L2 one interconnect hop later.
func (l *L1D) emitL2(now int64, addr int64, req cache.Request) {
	t := now + l.sys.icntLat
	if l.stage != nil {
		l.stage.pending = append(l.stage.pending, stagedAccess{cycle: now, time: t, addr: addr, l1: l, req: req})
		return
	}
	l.sys.schedule(t, evL2Arrive, addr, l, req)
}

// CommitThrough replays the staged accesses emitted at SM cycles <= c
// into the event system in capture order and leaves later ones pending.
// The caller walks the span's due cycles in order and the per-SM
// buffers in SM-id order. Once the buffer drains completely its storage
// is reset for reuse.
func (s *System) CommitThrough(buf *StageBuffer, c int64) {
	for buf.head < len(buf.pending) {
		a := &buf.pending[buf.head]
		if a.cycle > c {
			return
		}
		s.schedule(a.time, evL2Arrive, a.addr, a.l1, a.req)
		buf.head++
	}
	buf.reset()
}
