package obs

import (
	"sort"

	"cawa/internal/isa"
	"cawa/internal/simt"
	"cawa/internal/sm"
	"cawa/internal/state"
)

// Event is one issued warp instruction.
type Event struct {
	Cycle int64
	GID   int // global warp id
	PC    int32
	Op    isa.Op
	Lanes int
	Stall int64 // cycles the warp waited since its previous issue
}

// PCProfile aggregates issue counts and stall time by program counter —
// a quick "where do warps wait" view.
type PCProfile struct {
	PC     int32
	Op     isa.Op
	Issues uint64
	Stall  uint64
}

// Collector records the issue stream of every SM of one run, each into
// its own bounded ring, and merges them into a single event stream.
// The Chrome trace exporter and the hot-PC report both consume that
// stream, so what Perfetto shows and what `cawasim -hotpcs` prints can
// never diverge.
//
// A Collector belongs to one simulation: Wrap the design point's
// criticality-provider factory before the GPU is built, run, then
// read. It is not safe for concurrent use.
type Collector struct {
	capacity int
	recs     []*recorder
}

// NewCollector sizes each per-SM ring to capacityPerSM events (<=0
// means 1<<16).
func NewCollector(capacityPerSM int) *Collector {
	if capacityPerSM <= 0 {
		capacityPerSM = 1 << 16
	}
	return &Collector{capacity: capacityPerSM}
}

// Wrap decorates a criticality-provider factory so every provider the
// GPU creates records its SM's issue stream into the collector. A nil
// inner factory records over the null provider.
func (c *Collector) Wrap(inner func() sm.CriticalityProvider) func() sm.CriticalityProvider {
	return func() sm.CriticalityProvider {
		var in sm.CriticalityProvider = sm.NullCriticality{}
		if inner != nil {
			in = inner()
		}
		r := &recorder{inner: in, ring: make([]Event, 0, c.capacity)}
		c.recs = append(c.recs, r)
		return r
	}
}

// Total returns the number of events observed across all SMs,
// including ones the bounded rings have since overwritten.
func (c *Collector) Total() uint64 {
	var t uint64
	for _, r := range c.recs {
		t += r.total
	}
	return t
}

// Events returns the retained events of every SM merged into one
// stream, ordered by cycle (ties keep SM order).
func (c *Collector) Events() []Event {
	var out []Event
	for _, r := range c.recs {
		out = r.appendEvents(out)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cycle < out[j].Cycle })
	return out
}

// HotPCs adds up the merged event stream by PC and returns the top
// limit PCs by accumulated stall time (limit <= 0 returns all).
func (c *Collector) HotPCs(limit int) []PCProfile {
	agg := make(map[int32]*PCProfile)
	for _, e := range c.Events() {
		p := agg[e.PC]
		if p == nil {
			p = &PCProfile{PC: e.PC, Op: e.Op}
			agg[e.PC] = p
		}
		p.Issues++
		p.Stall += uint64(e.Stall)
	}
	out := make([]PCProfile, 0, len(agg))
	for _, p := range agg {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Stall != out[j].Stall {
			return out[i].Stall > out[j].Stall
		}
		return out[i].PC < out[j].PC
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// recorder captures one SM's issue events into a bounded ring (older
// events are overwritten). It decorates the SM's criticality provider,
// so it composes with CPL, the oracle, or the null provider without
// touching the pipeline.
type recorder struct {
	inner sm.CriticalityProvider
	gids  []int // slot -> gid (-1 free)

	ring  []Event
	next  int
	total uint64
}

var _ sm.CriticalityProvider = (*recorder)(nil)

// OnWarpArrived implements sm.CriticalityProvider.
func (r *recorder) OnWarpArrived(slot int, w *simt.Warp) {
	for slot >= len(r.gids) {
		r.gids = append(r.gids, -1)
	}
	r.gids[slot] = w.GID
	r.inner.OnWarpArrived(slot, w)
}

// OnWarpFinished implements sm.CriticalityProvider.
func (r *recorder) OnWarpFinished(slot int) {
	if slot < len(r.gids) {
		r.gids[slot] = -1
	}
	r.inner.OnWarpFinished(slot)
}

// OnIssue implements sm.CriticalityProvider.
func (r *recorder) OnIssue(slot int, st *simt.Step, stallCycles, cycle int64) {
	gid := -1
	if slot < len(r.gids) {
		gid = r.gids[slot]
	}
	ev := Event{Cycle: cycle, GID: gid, PC: st.PC, Op: st.Instr.Op, Lanes: st.Lanes, Stall: stallCycles}
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, ev)
	} else {
		r.ring[r.next] = ev
		r.next = (r.next + 1) % cap(r.ring)
	}
	r.total++
	r.inner.OnIssue(slot, st, stallCycles, cycle)
}

// Criticality implements sm.CriticalityProvider.
func (r *recorder) Criticality(slot int) float64 { return r.inner.Criticality(slot) }

// IsCritical implements sm.CriticalityProvider.
func (r *recorder) IsCritical(slot int) bool { return r.inner.IsCritical(slot) }

// Archive implements sm.CriticalityProvider: the wrapped provider's walk
// alone, so a traced run checkpoints as the untraced one does (the
// ring is an observation, not simulated state).
func (r *recorder) Archive(a *state.Archive) { r.inner.Archive(a) }

// appendEvents appends the retained events, oldest first, to out.
func (r *recorder) appendEvents(out []Event) []Event {
	out = append(out, r.ring[r.next:]...)
	return append(out, r.ring[:r.next]...)
}
