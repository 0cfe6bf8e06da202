// Package sched implements the warp scheduling policies evaluated in the
// paper: the loose round-robin baseline (LRR), greedy-then-oldest (GTO,
// Rogers et al. MICRO'12), the two-level scheduler (Narasiman et al.
// MICRO'11), the oracle criticality-aware scheduler CAWS (Lee & Wu
// PACT'14), and the paper's greedy criticality-aware scheduler gCAWS,
// which consumes the CPL criticality counters from internal/core.
package sched

import (
	"fmt"
	"sort"
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
	// WaitingMem reports whether the slot is blocked on a long-latency
	// event — an outstanding global-memory access or a block barrier —
	// (used by the two-level scheduler to demote warps).
	WaitingMem func(slot int) bool
}

// Policy selects which ready warp issues each cycle on one scheduler.
// A Policy instance is private to a single scheduler unit; it may keep
// state across cycles.
type Policy interface {
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
	Register("gto", func() Policy { return NewGTO() })
	Register("2lvl", func() Policy { return NewTwoLevel(DefaultActiveGroup) })
	Register("gcaws", func() Policy { return NewGCAWS() })
	Register("caws", func() Policy { return NewCAWS() })
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

// GTO is greedy-then-oldest: keep issuing from the same warp until it
// stalls, then switch to the oldest ready warp.
type GTO struct {
	current int
}

// NewGTO returns a greedy-then-oldest policy.
func NewGTO() *GTO { return &GTO{current: -1} }

// Name implements Policy.
func (*GTO) Name() string { return "GTO" }

// Select implements Policy.
func (p *GTO) Select(ctx *Context) int {
	if len(ctx.Ready) == 0 {
		return -1
	}
	for _, s := range ctx.Ready {
		if s == p.current {
			return s
		}
	}
	best, bestAge := -1, int64(0)
	for _, s := range ctx.Ready {
		if a := ctx.Age(s); best == -1 || a < bestAge {
			best, bestAge = s, a
		}
	}
	p.current = best
	return best
}

// OnWarpArrived implements Policy.
func (*GTO) OnWarpArrived(int) {}

// OnWarpFinished implements Policy.
func (p *GTO) OnWarpFinished(slot int) {
	if p.current == slot {
		p.current = -1
	}
}

// DefaultActiveGroup is the two-level scheduler's active-set size
// (fetch group of 8 warps, following Narasiman et al.).
const DefaultActiveGroup = 8

// TwoLevel keeps a small active set of warps scheduled round-robin and
// swaps a warp out to the pending set when it blocks on memory, hiding
// long latencies with the next pending warp.
type TwoLevel struct {
	groupSize int
	active    []int
	// member holds slot s's bit while s is in active, so Select's
	// ready∩active filter tests membership in O(1); a loading Archive
	// rebuilds it.
	member  []uint64
	pending []int
	// ready is the reused scratch buffer for the per-cycle
	// ready∩active filter; Select would otherwise allocate every call.
	ready []int
	rr    LRR
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

// Select implements Policy.
func (p *TwoLevel) Select(ctx *Context) int {
	// Demote active warps blocked on long-latency events, promote
	// pending ones. The promote scan is bounded by the pending length
	// so blocked warps rotate to the back without spinning forever.
	kept := p.active[:0]
	for _, s := range p.active {
		if ctx.WaitingMem(s) {
			p.pending = append(p.pending, s)
			p.mark(s, false)
		} else {
			kept = append(kept, s)
		}
	}
	p.active = kept
	for scan := len(p.pending); scan > 0 && len(p.active) < p.groupSize && len(p.pending) > 0; scan-- {
		s := p.pending[0]
		p.pending = p.pending[:copy(p.pending, p.pending[1:])] // keep the front capacity
		if ctx.WaitingMem(s) {
			p.pending = append(p.pending, s)
			continue
		}
		p.active = append(p.active, s)
		p.mark(s, true)
	}
	// Round-robin among ready warps restricted to the active set,
	// collected into the policy's reused scratch buffer.
	readyActive := p.ready[:0]
	for _, s := range ctx.Ready {
		if p.inActive(s) {
			readyActive = append(readyActive, s)
		}
	}
	p.ready = readyActive
	sub := *ctx
	sub.Ready = readyActive
	return p.rr.Select(&sub)
}

func (p *TwoLevel) inActive(slot int) bool {
	w := slot >> 6
	return w < len(p.member) && p.member[w]&(1<<(uint(slot)&63)) != 0
}

// mark records whether slot is in the active set.
func (p *TwoLevel) mark(slot int, in bool) {
	w := slot >> 6
	for w >= len(p.member) {
		p.member = append(p.member, 0)
	}
	if in {
		p.member[w] |= 1 << (uint(slot) & 63)
	} else {
		p.member[w] &^= 1 << (uint(slot) & 63)
	}
}

// OnWarpArrived implements Policy.
func (p *TwoLevel) OnWarpArrived(slot int) {
	if len(p.active) < p.groupSize {
		p.active = append(p.active, slot)
		p.mark(slot, true)
	} else {
		p.pending = append(p.pending, slot)
	}
}

// OnWarpFinished implements Policy.
func (p *TwoLevel) OnWarpFinished(slot int) {
	p.active = remove(p.active, slot)
	p.pending = remove(p.pending, slot)
	p.mark(slot, false)
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

// GCAWS is the paper's greedy criticality-aware warp scheduler
// (Section 3.2): issue from the most-critical ready warp, break ties by
// age (GTO), and keep issuing from the selected warp greedily until it
// has no issuable instruction.
type GCAWS struct {
	current int
}

// NewGCAWS returns a gCAWS policy; the SM supplies CPL criticality
// through Context.Criticality.
func NewGCAWS() *GCAWS { return &GCAWS{current: -1} }

// Name implements Policy.
func (*GCAWS) Name() string { return "gCAWS" }

// Select implements Policy.
func (p *GCAWS) Select(ctx *Context) int {
	if len(ctx.Ready) == 0 {
		return -1
	}
	// Greedy: stick with the current warp while it can issue.
	for _, s := range ctx.Ready {
		if s == p.current {
			return s
		}
	}
	best := -1
	var bestCrit float64
	var bestAge int64
	for _, s := range ctx.Ready {
		c, a := ctx.Criticality(s), ctx.Age(s)
		if best == -1 || c > bestCrit || (c == bestCrit && a < bestAge) {
			best, bestCrit, bestAge = s, c, a
		}
	}
	p.current = best
	return best
}

// OnWarpArrived implements Policy.
func (*GCAWS) OnWarpArrived(int) {}

// OnWarpFinished implements Policy.
func (p *GCAWS) OnWarpFinished(slot int) {
	if p.current == slot {
		p.current = -1
	}
}

// CAWS is the PACT'14 criticality-aware warp scheduler with oracle
// criticality: always issue the ready warp with the highest (oracle)
// criticality, tie-broken by age. It is not greedy and does not limit
// the active warp count.
type CAWS struct{}

// NewCAWS returns a CAWS policy; the harness supplies oracle criticality
// through Context.Criticality (profiled warp execution times).
func NewCAWS() *CAWS { return &CAWS{} }

// Name implements Policy.
func (*CAWS) Name() string { return "CAWS" }

// Select implements Policy.
func (*CAWS) Select(ctx *Context) int {
	best := -1
	var bestCrit float64
	var bestAge int64
	for _, s := range ctx.Ready {
		c, a := ctx.Criticality(s), ctx.Age(s)
		if best == -1 || c > bestCrit || (c == bestCrit && a < bestAge) {
			best, bestCrit, bestAge = s, c, a
		}
	}
	return best
}

// OnWarpArrived implements Policy.
func (*CAWS) OnWarpArrived(int) {}

// OnWarpFinished implements Policy.
func (*CAWS) OnWarpFinished(int) {}
