package memory

// StoreLog defers one SM's global-memory stores until the span engine's
// replay. Every SM gets a private log: while a span runs, SMs only
// *read* the shared Memory (concurrent reads are safe), stores append
// here stamped with the emitting cycle, and the replay flushes the logs
// cycle by cycle, in SM-id order (FlushThrough) — the cycle → SM-id →
// program write order of a tick-every-cycle run.
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
	l.addrs = append(l.addrs, addr&^(WordBytes-1))
	l.vals = append(l.vals, v)
	l.cycles = append(l.cycles, l.cycle)
}

// Load returns the value a load at addr observes: the newest deferred
// store to the same word, or the backing memory's current value. The
// scan covers the whole log including the flushed prefix — those
// entries already equal the backing memory, so forwarding from them is
// harmless — and stays cheap: a log holds at most one span's stores
// from one SM.
func (l *StoreLog) Load(addr int64) int64 {
	a := addr &^ (WordBytes - 1)
	for i := len(l.addrs) - 1; i >= 0; i-- {
		if l.addrs[i] == a {
			return l.vals[i]
		}
	}
	return l.mem.Load(addr)
}

// FlushThrough applies the deferred stores emitted at cycles <= c to
// the backing memory in store order and leaves later ones pending. The
// span replay calls it per simulated cycle, per SM in id order. Once
// the log drains completely its storage is reset for reuse.
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
}

// Len reports the number of deferred, unflushed stores.
func (l *StoreLog) Len() int { return len(l.addrs) - l.head }
