// Package trace records per-warp execution timelines for debugging and
// analysis: every issued instruction with its PC, opcode, active lane
// count and the stall preceding it. The recorder decorates any
// sm.CriticalityProvider, so it composes with CPL, the oracle, or the
// null provider without touching the pipeline.
package trace

import (
	"sort"

	"cawa/internal/isa"
	"cawa/internal/simt"
	"cawa/internal/sm"
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

// Recorder captures issue events into a bounded ring buffer. It
// implements sm.CriticalityProvider by delegating to an inner provider.
type Recorder struct {
	inner sm.CriticalityProvider
	gids  []int // slot -> gid (-1 free)

	ring  []Event
	next  int
	total uint64
}

var _ sm.CriticalityProvider = (*Recorder)(nil)

// NewRecorder wraps inner (nil means the null provider), keeping up to
// capacity events (older events are overwritten).
func NewRecorder(inner sm.CriticalityProvider, capacity int) *Recorder {
	if inner == nil {
		inner = sm.NullCriticality{}
	}
	if capacity <= 0 {
		capacity = 1 << 16
	}
	return &Recorder{inner: inner, ring: make([]Event, 0, capacity)}
}

// OnWarpArrived implements sm.CriticalityProvider.
func (r *Recorder) OnWarpArrived(slot int, w *simt.Warp) {
	for slot >= len(r.gids) {
		r.gids = append(r.gids, -1)
	}
	r.gids[slot] = w.GID
	r.inner.OnWarpArrived(slot, w)
}

// OnWarpFinished implements sm.CriticalityProvider.
func (r *Recorder) OnWarpFinished(slot int) {
	if slot < len(r.gids) {
		r.gids[slot] = -1
	}
	r.inner.OnWarpFinished(slot)
}

// OnIssue implements sm.CriticalityProvider.
func (r *Recorder) OnIssue(slot int, st *simt.Step, stallCycles, cycle int64) {
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
func (r *Recorder) Criticality(slot int) float64 { return r.inner.Criticality(slot) }

// IsCritical implements sm.CriticalityProvider.
func (r *Recorder) IsCritical(slot int) bool { return r.inner.IsCritical(slot) }

// Total returns the number of events observed (including overwritten).
func (r *Recorder) Total() uint64 { return r.total }

// Events returns the retained events in issue order.
func (r *Recorder) Events() []Event {
	if len(r.ring) < cap(r.ring) {
		return append([]Event(nil), r.ring...)
	}
	out := make([]Event, 0, len(r.ring))
	out = append(out, r.ring[r.next:]...)
	out = append(out, r.ring[:r.next]...)
	return out
}

// WarpTimeline returns the retained events of one warp.
func (r *Recorder) WarpTimeline(gid int) []Event {
	var out []Event
	for _, e := range r.Events() {
		if e.GID == gid {
			out = append(out, e)
		}
	}
	return out
}

// PCProfile aggregates issue counts and stall time by program counter —
// a quick "where do warps wait" view.
type PCProfile struct {
	PC     int32
	Op     isa.Op
	Issues uint64
	Stall  uint64
}

// HotPCs returns per-PC profiles sorted by total stall (descending).
func (r *Recorder) HotPCs() []PCProfile {
	agg := make(map[int32]*PCProfile)
	for _, e := range r.Events() {
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
	return out
}
