package memsys

import (
	"fmt"
	"sort"

	"cawa/internal/cache"
)

// Serializable snapshots of the memory-system timing state. Checkpoints
// are taken at engine-clean cycle boundaries (stage buffers committed,
// store logs flushed, span-fill plans drained), so the only mutable
// state here is the L2 tag array and MSHRs, the per-L1 tag arrays and
// MSHRs, bank/channel occupancy, and the pending event heap.
//
// Pointers do not serialize: every *L1D reference (in events and L2
// waiters) is encoded as an index into the SM-ordered L1 list the
// caller supplies, and the event heap is canonicalized to a (time, seq)
// sorted list. A list sorted by the heap's own ordering is itself a
// valid binary min-heap, so Restore installs it directly; and because
// (time, seq) is a total order, heap layout never affects pop order —
// a restored system drains events exactly like the uninterrupted one.

// EventState is one pending memory event.
type EventState struct {
	Time int64
	Seq  uint64
	Kind uint8
	Addr int64
	L1   int // index into the SM-ordered L1 list, -1 when absent
	Req  cache.Request
}

// L2WaiterState is one L1 request merged onto an in-flight L2 miss.
type L2WaiterState struct {
	L1  int
	Req cache.Request
}

// L2MSHRState is one in-flight L2 miss with its merged waiters, in
// arrival order (fan-out order determines response sequence numbers).
type L2MSHRState struct {
	Addr    int64
	Waiters []L2WaiterState
}

// MSHRState is one in-flight L1 miss line with its merged load tokens.
type MSHRState struct {
	Line   int64
	Req    cache.Request
	Tokens []int64
}

// WarpCountState is one entry of a per-warp counter map, flattened so
// serialization never ranges over a map.
type WarpCountState struct {
	Warp  int32
	Count uint64
}

// L1DState is the snapshot of one SM's L1 data cache and MSHRs.
type L1DState struct {
	Cache cache.State
	MSHR  []MSHRState // sorted by line address

	LoadAccesses  uint64
	StoreAccesses uint64
	LoadMisses    uint64
	StoreMisses   uint64
	Rejects       uint64

	WarpAccesses []WarpCountState
	WarpHits     []WarpCountState
}

// State is the snapshot of the shared memory system.
type State struct {
	L2       cache.State
	L2MSHR   []L2MSHRState // sorted by address
	BankFree []int64
	ChanFree []int64

	// L1Ds carries the per-SM L1 snapshots in SM-id order. System
	// Capture/Restore do not touch it — the device layer fills it in
	// (the L1s belong to the SMs) — but it rides in this struct so one
	// State is the complete memory-hierarchy image.
	L1Ds []L1DState

	Events []EventState // sorted by (time, seq)
	Seq    uint64

	L2Reads        uint64
	L2Writes       uint64
	DRAMReads      uint64
	DRAMWrites     uint64
	FillsDelivered uint64
}

// Capture snapshots the system. l1s is the SM-ordered list of L1Ds
// attached to this system; every L1 referenced by a pending event or
// L2 waiter must appear in it.
func (s *System) Capture(l1s []*L1D) (State, error) {
	index := make(map[*L1D]int, len(l1s))
	for i, l := range l1s {
		index[l] = i
	}
	l1Index := func(l *L1D) (int, error) {
		if l == nil {
			return -1, nil
		}
		i, ok := index[l]
		if !ok {
			return 0, fmt.Errorf("memsys: capture found an L1 outside the supplied list")
		}
		return i, nil
	}

	st := State{
		L2:             s.l2.Capture(),
		BankFree:       append([]int64(nil), s.bankFree...),
		ChanFree:       append([]int64(nil), s.chanFree...),
		Seq:            s.seq,
		L2Reads:        s.L2Reads,
		L2Writes:       s.L2Writes,
		DRAMReads:      s.DRAMReads,
		DRAMWrites:     s.DRAMWrites,
		FillsDelivered: s.FillsDelivered,
	}

	st.Events = make([]EventState, 0, len(s.events))
	for _, e := range s.events {
		li, err := l1Index(e.l1)
		if err != nil {
			return State{}, err
		}
		st.Events = append(st.Events, EventState{
			Time: e.time, Seq: e.seq, Kind: uint8(e.kind),
			Addr: e.addr, L1: li, Req: e.req,
		})
	}
	sort.Slice(st.Events, func(i, j int) bool {
		if st.Events[i].Time != st.Events[j].Time {
			return st.Events[i].Time < st.Events[j].Time
		}
		return st.Events[i].Seq < st.Events[j].Seq
	})

	st.L2MSHR = make([]L2MSHRState, 0, len(s.l2mshr))
	//cawalint:ignore iteration order is laundered by the Addr sort below; the waiter-flattening body is too complex for the collect-then-sort matcher
	for addr, waiters := range s.l2mshr {
		ms := L2MSHRState{Addr: addr, Waiters: make([]L2WaiterState, 0, len(waiters))}
		for _, w := range waiters {
			li, err := l1Index(w.l1)
			if err != nil {
				return State{}, err
			}
			ms.Waiters = append(ms.Waiters, L2WaiterState{L1: li, Req: w.req})
		}
		st.L2MSHR = append(st.L2MSHR, ms)
	}
	sort.Slice(st.L2MSHR, func(i, j int) bool { return st.L2MSHR[i].Addr < st.L2MSHR[j].Addr })

	return st, nil
}

// Restore overwrites the system's dynamic state from a snapshot. l1s
// must be the same SM-ordered L1 list the snapshot was captured with
// (same length, freshly built instances are fine).
func (s *System) Restore(st State, l1s []*L1D) error {
	if err := s.l2.Restore(st.L2); err != nil {
		return err
	}
	if len(st.BankFree) != len(s.bankFree) || len(st.ChanFree) != len(s.chanFree) {
		return fmt.Errorf("memsys: restore geometry mismatch (banks %d/%d, channels %d/%d)",
			len(s.bankFree), len(st.BankFree), len(s.chanFree), len(st.ChanFree))
	}
	resolve := func(i int) (*L1D, error) {
		if i < 0 {
			return nil, nil
		}
		if i >= len(l1s) {
			return nil, fmt.Errorf("memsys: restore L1 index %d out of range (%d L1s)", i, len(l1s))
		}
		return l1s[i], nil
	}

	copy(s.bankFree, st.BankFree)
	copy(s.chanFree, st.ChanFree)
	s.seq = st.Seq
	s.L2Reads = st.L2Reads
	s.L2Writes = st.L2Writes
	s.DRAMReads = st.DRAMReads
	s.DRAMWrites = st.DRAMWrites
	s.FillsDelivered = st.FillsDelivered

	// The snapshot's event list is sorted by the heap's own ordering,
	// so it is already a valid min-heap; the internal (non-fill) times
	// inherit that sort and form a valid timeHeap the same way.
	s.events = s.events[:0]
	s.internals = s.internals[:0]
	for _, e := range st.Events {
		l1, err := resolve(e.L1)
		if err != nil {
			return err
		}
		s.events = append(s.events, event{
			time: e.Time, seq: e.Seq, kind: eventKind(e.Kind),
			addr: e.Addr, l1: l1, req: e.Req,
		})
		if eventKind(e.Kind) != evL1Fill {
			s.internals = append(s.internals, e.Time)
		}
	}

	s.l2mshr = make(map[int64][]l2Waiter, len(st.L2MSHR))
	for _, ms := range st.L2MSHR {
		waiters := make([]l2Waiter, 0, len(ms.Waiters))
		for _, w := range ms.Waiters {
			l1, err := resolve(w.L1)
			if err != nil {
				return err
			}
			waiters = append(waiters, l2Waiter{l1: l1, req: w.Req})
		}
		s.l2mshr[ms.Addr] = waiters
	}
	return nil
}

// Capture snapshots the L1's tag array, MSHRs, and counters. It must
// run at a clean boundary: any undrained span-fill plan means the
// caller checkpointed mid-span, which is a bug.
func (l *L1D) Capture() (L1DState, error) {
	if l.planHead != len(l.plan) || l.recHead != len(l.recs) {
		return L1DState{}, fmt.Errorf("memsys: capture with undrained span fills (plan %d/%d, recs %d/%d)",
			l.planHead, len(l.plan), l.recHead, len(l.recs))
	}
	st := L1DState{
		Cache:         l.cache.Capture(),
		MSHR:          make([]MSHRState, 0, len(l.mshr)),
		LoadAccesses:  l.LoadAccesses,
		StoreAccesses: l.StoreAccesses,
		LoadMisses:    l.LoadMisses,
		StoreMisses:   l.StoreMisses,
		Rejects:       l.Rejects,
		WarpAccesses:  captureWarpCounts(l.WarpAccesses),
		WarpHits:      captureWarpCounts(l.WarpHits),
	}
	for line, entry := range l.mshr {
		st.MSHR = append(st.MSHR, MSHRState{
			Line:   line,
			Req:    entry.req,
			Tokens: append([]int64(nil), entry.tokens...),
		})
	}
	sort.Slice(st.MSHR, func(i, j int) bool { return st.MSHR[i].Line < st.MSHR[j].Line })
	return st, nil
}

// Restore overwrites the L1's dynamic state from a snapshot. The fill
// handler, staging wiring, and system attachment are engine concerns
// and are left untouched.
func (l *L1D) Restore(st L1DState) error {
	if err := l.cache.Restore(st.Cache); err != nil {
		return err
	}
	l.mshr = make(map[int64]*mshrEntry, len(st.MSHR))
	for _, ms := range st.MSHR {
		l.mshr[ms.Line] = &mshrEntry{
			req:    ms.Req,
			tokens: append([]int64(nil), ms.Tokens...),
		}
	}
	l.mut++
	l.plan = l.plan[:0]
	l.planHead = 0
	l.recs = l.recs[:0]
	l.recHead = 0
	l.LoadAccesses = st.LoadAccesses
	l.StoreAccesses = st.StoreAccesses
	l.LoadMisses = st.LoadMisses
	l.StoreMisses = st.StoreMisses
	l.Rejects = st.Rejects
	l.WarpAccesses = restoreWarpCounts(st.WarpAccesses)
	l.WarpHits = restoreWarpCounts(st.WarpHits)
	return nil
}

func captureWarpCounts(m map[int32]uint64) []WarpCountState {
	out := make([]WarpCountState, 0, len(m))
	for w, n := range m {
		out = append(out, WarpCountState{Warp: w, Count: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Warp < out[j].Warp })
	return out
}

func restoreWarpCounts(st []WarpCountState) map[int32]uint64 {
	m := make(map[int32]uint64, len(st))
	for _, e := range st {
		m[e.Warp] = e.Count
	}
	return m
}
