package reuse

import (
	"cawa/internal/cache"
)

// PCStat summarizes reuse behaviour of the lines inserted by one memory
// instruction (Figure 8).
type PCStat struct {
	Accesses uint64
	Cold     uint64
	// ReuseWithin counts reuses whose fully-associative stack distance
	// fits a cache of the given capacity in lines.
	ReuseWithinSmall uint64 // e.g. 16KB = 128 lines
	ReuseWithinLarge uint64 // e.g. 256KB = 2048 lines
	// CriticalReuses counts reuses issued by predicted-critical warps.
	CriticalReuses uint64
}

// Profiler consumes an L1 access stream (via memsys.L1D.AccessListener)
// and computes:
//   - per-warp, per-set stack-distance histograms at a configurable
//     geometry (Figure 3 uses 16KB 4-way: 32 sets, limit 4);
//   - per-PC reuse statistics against small/large capacities (Figure 8).
type Profiler struct {
	lineBytes  int64
	sets       int64
	smallLines int64
	largeLines int64

	perSet []*DistanceTracker
	global *DistanceTracker
	ByWarp map[int]*Histogram
	ByPC   map[int32]*PCStat
	All    Histogram
	Crit   Histogram // accesses from predicted-critical warps
}

// NewProfiler builds a profiler. sets and lineBytes describe the
// per-set geometry for the histograms; smallLines/largeLines are the
// capacities (in lines) used for the per-PC reuse classification.
func NewProfiler(sets int, lineBytes int, smallLines, largeLines int) *Profiler {
	p := &Profiler{
		lineBytes:  int64(lineBytes),
		sets:       int64(sets),
		smallLines: int64(smallLines),
		largeLines: int64(largeLines),
		perSet:     make([]*DistanceTracker, sets),
		global:     NewDistanceTracker(),
		ByWarp:     make(map[int]*Histogram),
		ByPC:       make(map[int32]*PCStat),
	}
	for i := range p.perSet {
		p.perSet[i] = NewDistanceTracker()
	}
	return p
}

// Record consumes one access.
func (p *Profiler) Record(req cache.Request, _ bool) {
	line := req.Addr / p.lineBytes
	set := line % p.sets

	d := p.perSet[set].Record(line)
	p.All.Add(d)
	if req.Critical {
		p.Crit.Add(d)
	}
	h := p.ByWarp[req.Warp]
	if h == nil {
		h = &Histogram{}
		p.ByWarp[req.Warp] = h
	}
	h.Add(d)

	gd := p.global.Record(line)
	ps := p.ByPC[req.PC]
	if ps == nil {
		ps = &PCStat{}
		p.ByPC[req.PC] = ps
	}
	ps.Accesses++
	if gd == Cold {
		ps.Cold++
		return
	}
	if gd < p.smallLines {
		ps.ReuseWithinSmall++
	}
	if gd < p.largeLines {
		ps.ReuseWithinLarge++
	}
	if req.Critical {
		ps.CriticalReuses++
	}
}

// WarpFracBeyond returns, for the given warps, the pooled fraction of
// reuses whose per-set distance reaches or exceeds ways — the share of
// would-be reuses evicted first in a ways-associative cache (Figure 3's
// headline number for the critical warps).
func (p *Profiler) WarpFracBeyond(warps []int, ways int64) float64 {
	var pooled Histogram
	for _, w := range warps {
		if h := p.ByWarp[w]; h != nil {
			pooled.Merge(h)
		}
	}
	return pooled.FracBeyond(ways)
}
