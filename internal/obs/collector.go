package obs

import (
	"sort"

	"cawa/internal/sm"
	"cawa/internal/trace"
)

// Collector fans the per-SM trace recorders of one run into a single
// merged issue-event stream. The Chrome trace exporter and the hot-PC
// report both consume this stream, so what Perfetto shows and what
// `cawasim -hotpcs` prints can never diverge.
//
// A Collector belongs to one simulation: Wrap the design point's
// criticality-provider factory before the GPU is built, run, then
// read. It is not safe for concurrent use.
type Collector struct {
	capacity int
	recs     []*trace.Recorder
}

// NewCollector sizes each per-SM recorder ring to capacityPerSM events
// (<=0 uses the trace package default).
func NewCollector(capacityPerSM int) *Collector {
	return &Collector{capacity: capacityPerSM}
}

// Wrap decorates a criticality-provider factory so every provider the
// GPU creates records its SM's issue stream into the collector. A nil
// inner factory records over the null provider.
func (c *Collector) Wrap(inner func() sm.CriticalityProvider) func() sm.CriticalityProvider {
	return func() sm.CriticalityProvider {
		var in sm.CriticalityProvider
		if inner != nil {
			in = inner()
		}
		r := trace.NewRecorder(in, c.capacity)
		c.recs = append(c.recs, r)
		return r
	}
}

// Total returns the number of events observed across all SMs,
// including ones the bounded rings have since overwritten.
func (c *Collector) Total() uint64 {
	var t uint64
	for _, r := range c.recs {
		t += r.Total()
	}
	return t
}

// Events returns the retained events of every SM merged into one
// stream, ordered by cycle (ties keep SM order).
func (c *Collector) Events() []trace.Event {
	var out []trace.Event
	for _, r := range c.recs {
		out = append(out, r.Events()...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cycle < out[j].Cycle })
	return out
}

// HotPCs merges the per-SM PC profiles and returns the top limit PCs
// by accumulated stall time (limit <= 0 returns all).
func (c *Collector) HotPCs(limit int) []trace.PCProfile {
	agg := make(map[int32]*trace.PCProfile)
	for _, r := range c.recs {
		for _, p := range r.HotPCs() {
			a := agg[p.PC]
			if a == nil {
				a = &trace.PCProfile{PC: p.PC, Op: p.Op}
				agg[p.PC] = a
			}
			a.Issues += p.Issues
			a.Stall += p.Stall
		}
	}
	out := make([]trace.PCProfile, 0, len(agg))
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
