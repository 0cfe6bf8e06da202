package memsys

import (
	"sort"

	"cawa/internal/state"
)

// The archive walk of the memory-system timing state. Checkpoints are
// taken at engine-clean cycle boundaries (stage buffers committed, store
// logs flushed, span-fill plans drained), so the only mutable state here
// is the L2 and per-L1 tag arrays and MSHRs, bank/channel occupancy, and
// the pending event heap; handlers, staging wiring and free lists stay.
//
// Pointers do not serialize: every *L1D reference (in events and L2
// waiters) is walked as the L1's index in the System's creation-ordered
// list — the SM id — and the event heap as a (time, seq)-sorted list,
// which is itself a valid binary min-heap, so a loader installs it
// directly. (time, seq) is a total order, so heap layout never affects
// pop order: a restored system drains events like the uninterrupted one.

// archiveL1 walks an L1 reference as its index, -1 for none.
func (s *System) archiveL1(a *state.Archive, p **L1D) {
	i := -1
	if *p != nil {
		i = (*p).id
	}
	if state.Int(a, &i); i < -1 || i >= len(s.l1s) {
		a.Failf("memsys: L1 index %d out of range (%d L1s)", i, len(s.l1s))
	} else if a.Loading() && i >= 0 {
		*p = s.l1s[i]
	}
}

// Archive walks the shared system, then every L1D attached to it.
func (s *System) Archive(a *state.Archive) {
	a.Tag("memsys")
	s.l2.Archive(a)
	// In-flight L2 misses by address, each with its merged waiters in
	// arrival order (fan-out order determines response sequence numbers).
	state.Map(a, &s.l2mshr, state.IntElem[int64], func(ws *[]l2Waiter, a *state.Archive) {
		state.Slice(a, ws, func(w *l2Waiter, a *state.Archive) {
			s.archiveL1(a, &w.l1)
			w.req.Archive(a)
		})
	})
	state.Table(a, "L2 bank", s.bankFree, state.IntElem[int64])
	state.Table(a, "DRAM channel", s.chanFree, state.IntElem[int64])
	events := s.events
	if !a.Loading() {
		events = append(eventHeap(nil), s.events...)
		sort.Slice(events, func(i, j int) bool { return events[i].before(&events[j]) })
	}
	state.Slice(a, (*[]event)(&events), func(e *event, a *state.Archive) {
		state.Int(a, &e.time, &e.addr)
		state.Int(a, &e.seq)
		state.Int(a, &e.kind)
		s.archiveL1(a, &e.l1)
		e.req.Archive(a)
	})
	if a.Loading() {
		// The internal (non-fill) times inherit the events' sort and
		// form a valid timeHeap the same way.
		s.events, s.internals = events, s.internals[:0]
		for _, e := range events {
			if e.kind != evL1Fill {
				s.internals = append(s.internals, e.time)
			}
		}
	}
	state.Int(a, &s.seq, &s.L2Reads, &s.L2Writes, &s.DRAMReads, &s.DRAMWrites, &s.FillsDelivered)
	state.Table(a, "L1D", s.l1s, func(l **L1D, a *state.Archive) { (*l).Archive(a) })
}

// Archive walks one L1's tag array, MSHRs (by line address) and counters
// at a clean boundary: undrained span fills mean a mid-span checkpoint.
func (l *L1D) Archive(a *state.Archive) {
	a.Tag("l1d")
	if l.planHead != len(l.plan) || l.recHead != len(l.recs) {
		a.Failf("memsys: checkpoint with undrained span fills (plan %d/%d, recs %d/%d)", l.planHead, len(l.plan), l.recHead, len(l.recs))
		return
	}
	l.cache.Archive(a)
	l.mshr.archive(a)
	if a.Loading() {
		l.fills++
	}
	state.Int(a, &l.LoadAccesses, &l.StoreAccesses, &l.LoadMisses, &l.StoreMisses, &l.Rejects)
	l.warps.archive(a)
}
