// Package sched implements the warp scheduling policies evaluated in the
// paper: the loose round-robin baseline (LRR), the two-level scheduler
// (Narasiman et al. MICRO'11), and one greedy-then-priority policy that
// serves greedy-then-oldest (GTO, Rogers et al. MICRO'12), the oracle
// criticality-aware scheduler CAWS (Lee & Wu PACT'14) and the paper's
// greedy criticality-aware scheduler gCAWS, which consumes the CPL
// criticality counters from internal/core.
package sched

import (
	"fmt"
	"sort"

	"cawa/internal/config"
	"cawa/internal/state"
)

// Context is the per-cycle view a policy selects from. Slots identify
// warp positions on the SM; the callbacks expose the slot metadata a
// policy may condition on.
type Context struct {
	// Cycle is the current SM cycle.
	Cycle int64
	// Ready lists the slots that can issue this cycle, in slot order.
	Ready []int
	// Age returns the dispatch sequence number of the slot's warp
	// (smaller is older).
	Age func(slot int) int64
	// Criticality returns the slot's current criticality estimate
	// (CPL counter for gCAWS, oracle value for CAWS, 0 otherwise).
	Criticality func(slot int) float64
	// Waiting holds, one bit per slot (slot s in word s>>6), the slots
	// blocked on a long-latency event: an outstanding global-memory
	// access or a block barrier. The two-level scheduler demotes and
	// promotes by it; the SM keeps it in step with every verdict it
	// records, so reading it costs no call. A slot past its end is not
	// waiting.
	Waiting []uint64
	// WaitingMem is not read by any policy (Waiting replaced it); it
	// remains so that callers that still set it compile.
	WaitingMem func(slot int) bool
}

// Policy selects which ready warp issues each cycle on one scheduler.
// A Policy instance is private to a single scheduler unit; it may keep
// state across cycles, and Archive walks all of it: a checkpoint
// restores a policy from it, and a sleeping SM compares its bytes to
// find the period of its refused ticks.
type Policy interface {
	state.Archiver
	// Name identifies the policy in reports.
	Name() string
	// Select returns the chosen slot, or -1 to issue nothing.
	Select(ctx *Context) int
	// OnWarpArrived tells stateful policies a new warp occupies slot.
	OnWarpArrived(slot int)
	// OnWarpFinished tells stateful policies the slot's warp retired.
	OnWarpFinished(slot int)
}

// Factory creates one Policy instance per scheduler unit.
type Factory func() Policy

// registry of named policies for CLI tools.
var registry = map[string]Factory{}

// Register adds a named policy factory. It panics on duplicates, and is
// intended to be called from package init functions.
func Register(name string, f Factory) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("sched: duplicate policy %q", name))
	}
	registry[name] = f
}

// Lookup returns the factory for a registered policy name.
func Lookup(name string) (Factory, bool) {
	f, ok := registry[name]
	return f, ok
}

// Names returns the registered policy names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func init() {
	Register("lrr", func() Policy { return NewLRR() })
	Register("2lvl", func() Policy { return NewTwoLevel(DefaultActiveGroup) })
	Register("gto", func() Policy { return &priority{tag: "gto", name: "GTO", greedy: true, current: -1} })
	Register("gcaws", func() Policy {
		return &priority{tag: "gcaws", name: "gCAWS", greedy: true, byCrit: true, current: -1}
	})
	Register("caws", func() Policy { return &priority{tag: "caws", name: "CAWS", byCrit: true, current: -1} })
}

// LRR is the loose round-robin baseline: warps issue in rotating slot
// order, each ready warp getting one instruction per turn.
type LRR struct {
	last int
}

// NewLRR returns a round-robin policy.
func NewLRR() *LRR { return &LRR{last: -1} }

// Name implements Policy.
func (*LRR) Name() string { return "LRR" }

// Select implements Policy: the first ready slot after the last issued
// slot, wrapping around.
func (p *LRR) Select(ctx *Context) int {
	if len(ctx.Ready) == 0 {
		return -1
	}
	for _, s := range ctx.Ready {
		if s > p.last {
			p.last = s
			return s
		}
	}
	s := ctx.Ready[0]
	p.last = s
	return s
}

// OnWarpArrived implements Policy.
func (*LRR) OnWarpArrived(int) {}

// OnWarpFinished implements Policy.
func (*LRR) OnWarpFinished(int) {}

// DefaultActiveGroup is the two-level scheduler's active-set size
// (fetch group of 8 warps, following Narasiman et al.).
const DefaultActiveGroup = 8

// TwoLevel keeps a small active set of warps scheduled round-robin and
// swaps a warp out to the pending set when it blocks on memory, hiding
// long latencies with the next pending warp.
type TwoLevel struct {
	groupSize int
	active    []int
	// pending is a FIFO ring: n slots from ring[head], wrapping. A warp
	// rotated to the back costs two index moves, not a copy of the
	// queue.
	ring    []int
	head, n int
	// member and queued hold slot s's bit while s is in active and in
	// pending: Select's ready∩active filter and its "is any pending warp
	// not waiting" test cost a word operation per 64 slots. A loading
	// Archive rebuilds them.
	member, queued [config.MaxSlots / 64]uint64
	words          int // the bitset words any arrived slot uses
	rr             LRR
}

// NewTwoLevel returns a two-level policy with the given active-set size.
func NewTwoLevel(groupSize int) *TwoLevel {
	if groupSize <= 0 {
		groupSize = DefaultActiveGroup
	}
	return &TwoLevel{groupSize: groupSize, rr: LRR{last: -1}}
}

// Name implements Policy.
func (*TwoLevel) Name() string { return "2LVL" }

// Restless tells an SM to tick through refused ticks instead of
// sleeping through them (internal/sm/sleep.go). Each refused pick is
// demoted at the next Select, which rotates the pending queue, so the
// policy's state often repeats only after more refused ticks than a
// sleeping SM replays looking for the period; finding it cost more
// than the sleep saved (EXPERIMENTS.md, "2lvl without the rescan").
func (*TwoLevel) Restless() {}

// waiting reports whether the context marks slot s waiting.
func waiting(ctx *Context, s int) bool {
	w := s >> 6
	return w < len(ctx.Waiting) && ctx.Waiting[w]&(1<<(uint(s)&63)) != 0
}

// Select implements Policy.
func (p *TwoLevel) Select(ctx *Context) int {
	// Demote active warps blocked on long-latency events, in active
	// order, to the back of the pending queue.
	demote := false
	for w, bits := range ctx.Waiting[:min(p.words, len(ctx.Waiting))] {
		if p.member[w]&bits != 0 {
			demote = true
			break
		}
	}
	if demote {
		kept := p.active[:0]
		for _, s := range p.active {
			if waiting(ctx, s) {
				p.push(s)
				p.member[s>>6] &^= 1 << (uint(s) & 63)
			} else {
				kept = append(kept, s)
			}
		}
		p.active = kept
	}
	// Promote pending warps that are not waiting, front first, rotating
	// the waiting ones to the back; the scan is bounded by the queue's
	// length so blocked warps do not spin. When every pending warp waits
	// the scan is a full rotation, which leaves the queue as it was.
	if len(p.active) < p.groupSize && p.promotable(ctx) {
		for scan := p.n; scan > 0 && len(p.active) < p.groupSize; scan-- {
			s := p.pop()
			if waiting(ctx, s) {
				p.push(s)
				continue
			}
			p.active = append(p.active, s)
			p.member[s>>6] |= 1 << (uint(s) & 63)
		}
	}
	// Round-robin (LRR) among the ready warps of the active set.
	first := -1
	for _, s := range ctx.Ready {
		if !p.inActive(s) {
			continue
		}
		if s > p.rr.last {
			p.rr.last = s
			return s
		}
		if first < 0 {
			first = s
		}
	}
	if first >= 0 {
		p.rr.last = first
	}
	return first
}

// promotable reports whether some pending warp is not waiting.
func (p *TwoLevel) promotable(ctx *Context) bool {
	for w, q := range p.queued[:p.words] {
		if w < len(ctx.Waiting) {
			q &^= ctx.Waiting[w]
		}
		if q != 0 {
			return true
		}
	}
	return false
}

func (p *TwoLevel) inActive(slot int) bool {
	w := slot >> 6
	return w < len(p.member) && p.member[w]&(1<<(uint(slot)&63)) != 0
}

// push appends slot to the back of the pending queue, growing the ring
// (in queue order, from index 0) when it is full.
func (p *TwoLevel) push(slot int) {
	if p.n == len(p.ring) {
		grown := make([]int, max(2*len(p.ring), DefaultActiveGroup))
		p.n = p.copyPending(grown)
		p.ring, p.head = grown, 0
	}
	i := p.head + p.n
	if i >= len(p.ring) {
		i -= len(p.ring)
	}
	p.ring[i] = slot
	p.n++
	p.queued[slot>>6] |= 1 << (uint(slot) & 63)
}

// pop removes and returns the front of the pending queue, which must
// not be empty.
func (p *TwoLevel) pop() int {
	s := p.ring[p.head]
	if p.head++; p.head == len(p.ring) {
		p.head = 0
	}
	p.n--
	p.queued[s>>6] &^= 1 << (uint(s) & 63)
	return s
}

// copyPending copies the pending queue, front first, to dst and
// returns its length.
func (p *TwoLevel) copyPending(dst []int) int {
	k := copy(dst, p.ring[p.head:min(p.head+p.n, len(p.ring))])
	return k + copy(dst[k:], p.ring[:p.n-k])
}

// OnWarpArrived implements Policy.
func (p *TwoLevel) OnWarpArrived(slot int) {
	p.words = max(p.words, slot>>6+1)
	if len(p.active) < p.groupSize {
		p.active = append(p.active, slot)
		p.member[slot>>6] |= 1 << (uint(slot) & 63)
	} else {
		p.push(slot)
	}
}

// OnWarpFinished implements Policy.
func (p *TwoLevel) OnWarpFinished(slot int) {
	bit := uint64(1) << (uint(slot) & 63)
	if p.member[slot>>6]&bit != 0 {
		p.active = remove(p.active, slot)
		p.member[slot>>6] &^= bit
	}
	if p.queued[slot>>6]&bit != 0 {
		for k := p.n; k > 0; k-- { // one rotation, dropping slot
			if s := p.pop(); s != slot {
				p.push(s)
			}
		}
	}
}

func remove(s []int, v int) []int {
	out := s[:0]
	for _, x := range s {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}

// priority is greedy-then-priority selection (GPGPU-sim's
// order_by_priority): rank the ready warps by criticality when byCrit,
// then by age, oldest first, and when greedy keep issuing from the
// current warp while it is ready. GTO is greedy by age alone and never
// reads criticality; gCAWS (Section 3.2) is greedy by criticality, then
// age; CAWS ranks the same way every cycle with no hold.
type priority struct {
	tag, name      string
	greedy, byCrit bool
	current        int // the greedy hold, -1 for none
}

// Name implements Policy.
func (p *priority) Name() string { return p.name }

// Select implements Policy.
func (p *priority) Select(ctx *Context) int {
	if len(ctx.Ready) == 0 {
		return -1
	}
	if p.greedy {
		for _, s := range ctx.Ready {
			if s == p.current {
				return s
			}
		}
	}
	best := -1
	var bestCrit float64
	var bestAge int64
	for _, s := range ctx.Ready {
		if !p.byCrit { // age alone: GTO never reads criticality
			if a := ctx.Age(s); best == -1 || a < bestAge {
				best, bestAge = s, a
			}
			continue
		}
		c, a := ctx.Criticality(s), ctx.Age(s)
		if best == -1 || c > bestCrit || (c == bestCrit && a < bestAge) {
			best, bestCrit, bestAge = s, c, a
		}
	}
	if p.greedy {
		p.current = best
	}
	return best
}

// OnWarpArrived implements Policy.
func (*priority) OnWarpArrived(int) {}

// OnWarpFinished implements Policy.
func (p *priority) OnWarpFinished(slot int) {
	if p.current == slot {
		p.current = -1
	}
}
