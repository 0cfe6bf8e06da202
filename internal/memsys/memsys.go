// Package memsys models the timing side of the GPU memory hierarchy:
// per-SM L1 data caches with MSHRs, a banked shared L2, and DRAM
// channels. Latencies and bandwidths follow Table 1 of the paper (120
// cycle minimum L2 round trip, 220 cycle minimum DRAM round trip).
//
// The functional side (actual data values) lives in internal/memory;
// memsys only decides *when* a request completes and maintains cache
// tag state for hit/miss and replacement decisions.
package memsys

import (
	"fmt"

	"cawa/internal/cache"
	"cawa/internal/config"
)

// Outcome classifies one L1 access attempt.
type Outcome int

// Access outcomes.
const (
	// Hit completes after the L1 hit latency.
	Hit Outcome = iota
	// Miss was accepted: an MSHR entry was allocated or merged; the
	// fill handler fires when data returns.
	Miss
	// Reject means the access could not be accepted this cycle (MSHR
	// full or merge list full) and must be retried.
	Reject
)

func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	case Reject:
		return "reject"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// FillHandler receives completed L1 miss fills: the line address and the
// tokens of all loads merged onto the miss.
type FillHandler func(lineAddr int64, tokens []int64)

type eventKind uint8

const (
	evL2Arrive eventKind = iota
	evDRAMDone
	evL1Fill
)

type event struct {
	time int64
	seq  uint64 // tie-break for determinism
	kind eventKind
	addr int64 // line address
	l1   *L1D
	req  cache.Request
}

// eventHeap is a hand-rolled binary min-heap ordered by (time, seq).
// container/heap would box every event into an interface value on Push
// and Pop — one allocation per memory-system event — so the sift
// operations are written out here and the backing array is recycled.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		c := l
		if r := l + 1; r < n && h.less(r, l) {
			c = r
		}
		if !h.less(c, i) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

// popMin removes and returns the earliest event. The caller must have
// checked the heap is non-empty.
func (h *eventHeap) popMin() event {
	old := *h
	e := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = event{} // drop the stale L1D pointer
	*h = old[:n]
	if n > 0 {
		old[:n].down(0)
	}
	return e
}

type mshrEntry struct {
	req    cache.Request
	tokens []int64
}

type l2Waiter struct {
	l1  *L1D
	req cache.Request
}

// System is the shared part of the memory hierarchy: L2 banks and DRAM
// channels, plus the event machinery that delivers responses to L1s.
type System struct {
	cfg config.Config

	l2     *cache.Cache
	l2mshr map[int64][]l2Waiter
	// l1s lists the attached L1Ds in creation order — SM order — so a
	// checkpoint can name one by index (L1D.id).
	l1s []*L1D
	// waiterPool recycles the per-miss waiter slices: dramDone returns
	// each drained slice here and l2Arrive reuses one on the next miss,
	// so steady-state L2 misses allocate nothing (the same discipline
	// the L1 mshrEntry free list follows).
	waiterPool [][]l2Waiter
	bankFree   []int64
	chanFree   []int64

	events eventHeap
	seq    uint64
	// internals mirrors the pending non-fill event times so SafeHorizon
	// can bound the earliest fill a pending internal event could
	// schedule in O(1) (see horizon.go).
	internals timeHeap

	icntLat int64 // one-way interconnect latency SM <-> L2

	// Stats.
	L2Reads    uint64
	L2Writes   uint64
	DRAMReads  uint64
	DRAMWrites uint64

	// FillsDelivered counts L1 fills that completed an outstanding miss
	// (stale fills excluded): the only event kind that can change an SM
	// scoreboard — every other is internal to the memory system.
	FillsDelivered uint64
}

// New builds the shared memory system for the given configuration.
func New(cfg config.Config) *System {
	s := &System{
		cfg:      cfg,
		l2:       cache.New(cfg.L2, cache.LRU{}),
		l2mshr:   make(map[int64][]l2Waiter),
		bankFree: make([]int64, cfg.L2Banks),
		chanFree: make([]int64, cfg.DRAMChannels),
		icntLat:  int64(cfg.L2Latency) / 3,
	}
	if s.icntLat < 1 {
		s.icntLat = 1
	}
	return s
}

// L2 exposes the L2 cache for statistics.
func (s *System) L2() *cache.Cache { return s.l2 }

func (s *System) schedule(t int64, kind eventKind, addr int64, l1 *L1D, req cache.Request) {
	s.seq++
	s.events.push(event{time: t, seq: s.seq, kind: kind, addr: addr, l1: l1, req: req})
	if kind != evL1Fill {
		s.internals.push(t)
	}
}

// Cycle processes all memory-system events due at or before now.
func (s *System) Cycle(now int64) {
	for len(s.events) > 0 && s.events[0].time <= now {
		e := s.events.popMin()
		switch e.kind {
		case evL2Arrive:
			s.internals.popMin()
			s.l2Arrive(e)
		case evDRAMDone:
			s.internals.popMin()
			s.dramDone(e)
		case evL1Fill:
			// A fill a span already delivered (spanfill.go) carries a
			// record of its deferred System-side effects; apply those at
			// exactly this pop position. Everything else is a full
			// delivery.
			if rec, ok := e.l1.takeSpanFill(e.time, e.addr); ok {
				s.commitSpanFill(e.l1, rec)
			} else {
				e.l1.handleFill(e.addr, e.time)
			}
		}
	}
}

// Drained reports whether no memory events remain in flight.
func (s *System) Drained() bool { return len(s.events) == 0 }

// NextEventTime returns the time of the earliest pending event, or -1.
func (s *System) NextEventTime() int64 {
	if len(s.events) == 0 {
		return -1
	}
	return s.events[0].time
}

func (s *System) bankOf(addr int64) int {
	return int((addr / int64(s.cfg.L2.LineBytes)) % int64(s.cfg.L2Banks))
}

func (s *System) chanOf(addr int64) int {
	return int((addr / int64(s.cfg.L2.LineBytes)) % int64(s.cfg.DRAMChannels))
}

// l2Arrive services a request at its L2 bank.
func (s *System) l2Arrive(e event) {
	const bankOccupancy = 2
	bank := s.bankOf(e.addr)
	start := e.time
	if s.bankFree[bank] > start {
		start = s.bankFree[bank]
	}
	s.bankFree[bank] = start + bankOccupancy

	if e.req.Write {
		s.L2Writes++
		// Write-no-allocate at L2: update on hit, forward to DRAM on miss.
		if !s.l2.Access(e.req) {
			s.dramWrite(e.addr, start)
		}
		return
	}

	s.L2Reads++
	if s.l2.Access(e.req) {
		// L2 hit: response travels back; total minimum latency from the
		// original miss equals cfg.L2Latency.
		respAt := start + int64(s.cfg.L2Latency) - s.icntLat
		s.schedule(respAt, evL1Fill, e.addr, e.l1, e.req)
		return
	}

	// L2 miss: merge into the L2 MSHR or start a DRAM read.
	if waiters, ok := s.l2mshr[e.addr]; ok {
		s.l2mshr[e.addr] = append(waiters, l2Waiter{e.l1, e.req})
		return
	}
	s.l2mshr[e.addr] = append(s.takeWaiters(), l2Waiter{e.l1, e.req})
	ch := s.chanOf(e.addr)
	dramStart := start
	if s.chanFree[ch] > dramStart {
		dramStart = s.chanFree[ch]
	}
	s.chanFree[ch] = dramStart + int64(s.cfg.DRAMBandwidth)
	s.DRAMReads++
	done := dramStart + int64(s.cfg.DRAMLatency) - int64(s.cfg.L2Latency)
	if done < dramStart+1 {
		done = dramStart + 1
	}
	s.schedule(done, evDRAMDone, e.addr, e.l1, e.req)
}

func (s *System) dramWrite(addr int64, t int64) {
	ch := s.chanOf(addr)
	start := t
	if s.chanFree[ch] > start {
		start = s.chanFree[ch]
	}
	s.chanFree[ch] = start + int64(s.cfg.DRAMBandwidth)
	s.DRAMWrites++
}

// dramDone fills the L2 and fans responses out to all merged L1 waiters.
func (s *System) dramDone(e event) {
	ev := s.l2.Fill(e.req)
	if ev.Valid && ev.Dirty {
		s.dramWrite(ev.Addr, e.time)
	}
	waiters := s.l2mshr[e.addr]
	delete(s.l2mshr, e.addr)
	respAt := e.time + int64(s.cfg.L2Latency) - s.icntLat
	for _, w := range waiters {
		s.schedule(respAt, evL1Fill, e.addr, w.l1, w.req)
	}
	s.putWaiters(waiters)
}

// takeWaiters pops a recycled waiter slice (length 0, capacity warm)
// or returns nil, in which case the first append allocates once.
func (s *System) takeWaiters() []l2Waiter {
	if n := len(s.waiterPool); n > 0 {
		ws := s.waiterPool[n-1]
		s.waiterPool = s.waiterPool[:n-1]
		return ws
	}
	return nil
}

// putWaiters returns a drained waiter slice to the pool.
func (s *System) putWaiters(ws []l2Waiter) {
	if ws == nil {
		return
	}
	s.waiterPool = append(s.waiterPool, ws[:0])
}

// L1D is one SM's L1 data cache with its MSHRs.
type L1D struct {
	sys    *System
	id     int // index in sys.l1s
	cache  *cache.Cache
	mshr   map[int64]*mshrEntry
	free   []*mshrEntry // retired MSHR entries, recycled with their token arrays
	fill   FillHandler
	cfgref config.CacheConfig
	stage  *StageBuffer // span staging; nil schedules directly

	fills uint64 // retired MSHR entries (see Deficit)

	// Span-fill state (spanfill.go): fills planned for in-span delivery
	// by the owning domain, and the records of their deferred
	// System-side effects the span replay consumes.
	plan     []plannedFill
	planHead int
	recs     []spanFill
	recHead  int

	// Stats.
	LoadAccesses  uint64
	StoreAccesses uint64
	LoadMisses    uint64
	StoreMisses   uint64
	Rejects       uint64

	// Per-warp access/hit counts for critical-warp hit-rate analysis
	// (Figure 14).
	WarpAccesses map[int32]uint64
	WarpHits     map[int32]uint64

	// AccessListener, when non-nil, observes every accepted access
	// (after hit/miss resolution but before timing). Reuse-distance
	// profilers tap the stream here.
	AccessListener func(req cache.Request, hit bool)
}

// NewL1D creates an L1 data cache attached to the shared system. The
// policy governs replacement (LRU baseline or the CACP policy); fill is
// invoked when outstanding misses complete.
func (s *System) NewL1D(policy cache.Policy, fill FillHandler) *L1D {
	l := &L1D{
		sys:          s,
		id:           len(s.l1s),
		cache:        cache.New(s.cfg.L1D, policy),
		mshr:         make(map[int64]*mshrEntry),
		fill:         fill,
		cfgref:       s.cfg.L1D,
		WarpAccesses: make(map[int32]uint64),
		WarpHits:     make(map[int32]uint64),
	}
	s.l1s = append(s.l1s, l)
	return l
}

// Cache exposes the underlying tag array (statistics, policies).
func (l *L1D) Cache() *cache.Cache { return l.cache }

// AccessLoad attempts a load at time now. On Miss the token is recorded
// and will be passed to the fill handler when the line arrives.
func (l *L1D) AccessLoad(req cache.Request, token int64, now int64) Outcome {
	req.Write = false
	line := l.cache.BlockAddr(req.Addr)
	if set, way, hit := l.cache.Probe(req.Addr); hit {
		l.cache.Touch(set, way, req)
		l.LoadAccesses++
		l.WarpAccesses[int32(req.Warp)]++
		l.WarpHits[int32(req.Warp)]++
		if l.AccessListener != nil {
			l.AccessListener(req, true)
		}
		return Hit
	}
	// Miss path: make sure it can be accepted before counting anything,
	// so that rejected-and-retried accesses are not double counted.
	if entry, ok := l.mshr[line]; ok {
		if len(entry.tokens) >= l.cfgref.MSHRTargets {
			l.Rejects++
			return Reject
		}
		l.cache.Access(req)
		l.LoadAccesses++
		l.WarpAccesses[int32(req.Warp)]++
		l.LoadMisses++
		entry.tokens = append(entry.tokens, token)
		if l.AccessListener != nil {
			l.AccessListener(req, false)
		}
		return Miss
	}
	if len(l.mshr) >= l.cfgref.MSHRs {
		l.Rejects++
		return Reject
	}
	l.cache.Access(req)
	l.LoadAccesses++
	l.WarpAccesses[int32(req.Warp)]++
	l.LoadMisses++
	var entry *mshrEntry
	if n := len(l.free); n > 0 {
		entry = l.free[n-1]
		l.free = l.free[:n-1]
		entry.req = req
		entry.tokens = append(entry.tokens[:0], token)
	} else {
		entry = &mshrEntry{req: req, tokens: make([]int64, 1, 8)} // pool growth; entries recycle through the free list
		entry.tokens[0] = token
	}
	l.mshr[line] = entry
	l.emitL2(now, line, req)
	if l.AccessListener != nil {
		l.AccessListener(req, false)
	}
	return Miss
}

// AccessStore attempts a store at time now. Stores are write-back on hit
// and write-no-allocate on miss (forwarded to the L2). Stores never
// reject: a miss consumes interconnect bandwidth but needs no MSHR.
func (l *L1D) AccessStore(req cache.Request, now int64) Outcome {
	req.Write = true
	line := l.cache.BlockAddr(req.Addr)
	l.StoreAccesses++
	l.WarpAccesses[int32(req.Warp)]++
	if l.cache.Access(req) {
		l.WarpHits[int32(req.Warp)]++
		if l.AccessListener != nil {
			l.AccessListener(req, true)
		}
		return Hit
	}
	l.StoreMisses++
	l.emitL2(now, line, req)
	if l.AccessListener != nil {
		l.AccessListener(req, false)
	}
	return Miss
}

// handleFill completes an outstanding miss: installs the line and
// notifies the SM about every merged load.
func (l *L1D) handleFill(lineAddr int64, now int64) {
	entry, ok := l.mshr[lineAddr]
	if !ok {
		return // stale fill (e.g. store forwarding); nothing waits on it
	}
	delete(l.mshr, lineAddr)
	l.fills++
	l.sys.FillsDelivered++
	ev := l.cache.Fill(entry.req)
	if ev.Valid && ev.Dirty {
		// Write the dirty victim back to L2 (bandwidth only). Scheduled
		// directly, never staged: handleFill only runs inside the
		// engine's serial System.Cycle, and its sequence number must
		// precede the cycle's SM accesses (see stage.go).
		wb := cache.Request{Addr: ev.Addr, Write: true}
		l.sys.schedule(now+l.sys.icntLat, evL2Arrive, ev.Addr, l, wb)
	}
	if l.fill != nil {
		l.fill(lineAddr, entry.tokens)
	}
	// Fill handlers do not retain tokens, so the entry can be recycled.
	l.free = append(l.free, entry)
}

// CanAccept reports whether a load touching the given (distinct) lines
// could be accepted right now.
func (l *L1D) CanAccept(lines []int64) bool { return l.Deficit(lines) == 0 }

// Deficit is how far a load touching the given (distinct) lines is from
// acceptance (0: accepted): the new MSHR entries it needs beyond the free
// ones, or 1 if a line it merges onto has no target room if larger.
// Between fills it can only grow — an accepted miss takes a free entry
// and turns at most one needed line into a merge, a merge only fills a
// target, hits and stores move no tag or entry — and a fill (one entry
// freed, one line evicted) lowers it by at most one. So a refusal with
// deficit D at fill count F stands while Fills() < F+D.
func (l *L1D) Deficit(lines []int64) int {
	// Fast path: with no outstanding misses there is nothing to merge
	// into, so acceptance only needs free MSHR entries.
	if len(l.mshr) == 0 && len(lines) <= l.cfgref.MSHRs {
		return 0
	}
	newEntries, full := 0, 0
	for _, la := range lines {
		if _, _, hit := l.cache.Probe(la); hit {
			continue
		}
		if entry, ok := l.mshr[la]; ok {
			if len(entry.tokens) >= l.cfgref.MSHRTargets {
				full = 1
			}
			continue
		}
		newEntries++
	}
	return max(len(l.mshr)+newEntries-l.cfgref.MSHRs, full, 0)
}

// Fills counts retired MSHR entries, the clock of Deficit. A loading
// Archive advances it too (the SM's loader drops its refusals anyway).
func (l *L1D) Fills() uint64 { return l.fills }

// MSHROccupancy returns the number of in-flight miss lines.
func (l *L1D) MSHROccupancy() int { return len(l.mshr) }

// MPKI returns L1D misses per thousand instructions, given the committed
// instruction count of the owning SM's warps.
func (l *L1D) MPKI(instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(l.LoadMisses+l.StoreMisses) / float64(instructions) * 1000
}
