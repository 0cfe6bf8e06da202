package memory

import "math"

// StoreLog defers one SM's global-memory stores until the span engine's
// replay. Every SM gets a private log: while a span runs, SMs only
// *read* the shared Memory (concurrent reads are safe), stores append
// here stamped with the emitting cycle, and the replay flushes the logs
// in cycle order, in SM-id order within a cycle (FlushThrough) — the
// cycle → SM-id → program write order of a tick-every-cycle run.
//
// Loads forward from the log (newest entry first) before falling back
// to the backing Memory, so a warp observes its own SM's earlier
// unflushed stores. Stores from *other* SMs become visible only after
// the replay — up to a horizon's worth of cycles later; DESIGN.md
// ("Span engine") argues why that relaxation is unobservable for the
// ported workloads, and the engine-equivalence matrix verifies it
// byte-for-byte on every app × scheduler cell.
type StoreLog struct {
	mem    *Memory
	cycle  int64   // stamp applied to subsequent Stores (SetCycle)
	addrs  []int64 // word-aligned byte addresses, in store order
	vals   []int64
	cycles []int64 // emitting cycle per entry, non-decreasing
	head   int     // entries below head are flushed, awaiting reset
	// stored has bit storedBit(a) set for every word a in addrs: a load
	// whose bit is clear cannot forward and skips the scan. Words that
	// share a bit share it harmlessly (the scan decides).
	stored [storedWords]uint64
}

// storedWords sizes a log's bitmap: 4096 bits, one per word modulo 4096.
const storedWords = 64

// storedBit returns the bitmap word and bit of word-aligned address a.
func storedBit(a int64) (int, uint64) {
	w := uint64(a/WordBytes) % (storedWords * 64)
	return int(w / 64), 1 << (w % 64)
}

// NewStoreLog builds a store log backed by mem.
func NewStoreLog(mem *Memory) *StoreLog {
	return &StoreLog{mem: mem}
}

// SetCycle stamps subsequent Stores with the SM cycle that emits them.
// The owning SM calls it at the top of every cycle; stamps are
// therefore non-decreasing, which FlushThrough relies on.
func (l *StoreLog) SetCycle(c int64) { l.cycle = c }

// Store records a deferred store. The address is canonicalized to its
// word like Memory.Store would, so forwarding matches on the same
// cells a direct store would have written.
func (l *StoreLog) Store(addr, v int64) {
	a := addr &^ (WordBytes - 1)
	i, bit := storedBit(a)
	l.stored[i] |= bit
	l.addrs = append(l.addrs, a)
	l.vals = append(l.vals, v)
	l.cycles = append(l.cycles, l.cycle)
}

// Load returns the value a load at addr observes: the newest deferred
// store to the same word, or the backing memory's current value. The
// scan covers the whole log including the flushed prefix — those
// entries already equal the backing memory, so forwarding from them is
// harmless — and stays cheap: a log holds at most one span's stores
// from one SM, and a load of a word whose bitmap bit is clear skips it.
func (l *StoreLog) Load(addr int64) int64 {
	a := addr &^ (WordBytes - 1)
	if i, bit := storedBit(a); l.stored[i]&bit == 0 {
		return l.mem.Load(addr)
	}
	for i := len(l.addrs) - 1; i >= 0; i-- {
		if l.addrs[i] == a {
			return l.vals[i]
		}
	}
	return l.mem.Load(addr)
}

// FlushThrough applies the deferred stores emitted at cycles <= c to
// the backing memory in store order and leaves later ones pending. The
// span replay calls it at each cycle the log's NextStamp is due, per SM
// in id order. Once the log drains completely its storage is reset for
// reuse.
func (l *StoreLog) FlushThrough(c int64) {
	for l.head < len(l.addrs) {
		if l.cycles[l.head] > c {
			return
		}
		l.mem.Store(l.addrs[l.head], l.vals[l.head])
		l.head++
	}
	l.reset()
}

func (l *StoreLog) reset() {
	l.addrs = l.addrs[:0]
	l.vals = l.vals[:0]
	l.cycles = l.cycles[:0]
	l.head = 0
	clear(l.stored[:])
}

// NextStamp returns the emitting cycle of the oldest unflushed store,
// or math.MaxInt64 when none is pending: the first cycle at which the
// span replay has to flush this log.
func (l *StoreLog) NextStamp() int64 {
	if l.head < len(l.cycles) {
		return l.cycles[l.head]
	}
	return math.MaxInt64
}

// Len reports the number of deferred, unflushed stores.
func (l *StoreLog) Len() int { return len(l.addrs) - l.head }
