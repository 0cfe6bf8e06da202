package core

// CCWS-style cache-conscious wavefront scheduling (Rogers, O'Connor,
// Aamodt; MICRO'12 — the paper's reference [34], which also defines the
// GTO baseline). CCWS detects *lost intra-warp locality*: when a warp
// misses on a line that it itself recently had evicted, a per-warp
// lost-locality score (LLS) rises; the scheduler then throttles
// low-scoring warps so the cache-starved warps can keep their working
// sets resident.
//
// This implementation keeps the paper's structure — a per-warp victim
// tag array (VTA) fed by L1D evictions, hit-in-VTA detection on misses,
// scored throttling at the scheduler — with simplified score dynamics.
// It exists as an additional related-work baseline beyond the schedulers
// CAWA evaluates.

import (
	"cawa/internal/cache"
	"cawa/internal/memsys"
	"cawa/internal/sched"
	"cawa/internal/simt"
)

// CCWS parameters.
const (
	ccwsVTAEntries = 16 // victim tags retained per warp
	ccwsHitGain    = 64 // LLS increase per VTA hit
	ccwsDecay      = 1  // LLS decrease per issued instruction
	ccwsBaseScore  = 32 // score floor so idle warps stay schedulable
)

// CCWSProvider maintains per-warp lost-locality scores. It implements
// sm.CriticalityProvider (Criticality reports the LLS, which the ccws
// scheduling policy consumes) and must be attached to the SM's L1D with
// Attach so it observes evictions and misses.
type CCWSProvider struct {
	slots []*ccwsWarp
	byGID map[int]*ccwsWarp
}

type ccwsWarp struct {
	gid     int
	lls     float64
	victims []int64 // FIFO of evicted line addresses
}

// NewCCWSProvider returns an empty provider for one SM.
func NewCCWSProvider() *CCWSProvider {
	return &CCWSProvider{byGID: make(map[int]*ccwsWarp)}
}

// Attach subscribes the provider to the L1D's eviction and access
// streams. Call once per SM after construction (e.g. via the harness's
// AttachL1 hook).
func (p *CCWSProvider) Attach(l1 *memsys.L1D) {
	c := l1.Cache()
	prevEvict := c.EvictListener
	c.EvictListener = func(ev *cache.Eviction) {
		if prevEvict != nil {
			prevEvict(ev)
		}
		p.onEvict(int(ev.Line.FillWarp), ev.Addr)
	}
	prevAccess := l1.AccessListener
	l1.AccessListener = func(req cache.Request, hit bool) {
		if prevAccess != nil {
			prevAccess(req, hit)
		}
		if !hit {
			p.onMiss(req.Warp, req.Addr)
		}
	}
}

func (p *CCWSProvider) onEvict(gid int, lineAddr int64) {
	w := p.byGID[gid]
	if w == nil {
		return
	}
	if len(w.victims) >= ccwsVTAEntries {
		w.victims = w.victims[:copy(w.victims, w.victims[1:])] // keep the front capacity
	}
	w.victims = append(w.victims, lineAddr)
}

func (p *CCWSProvider) onMiss(gid int, addr int64) {
	w := p.byGID[gid]
	if w == nil {
		return
	}
	line := addr &^ 127
	for i, v := range w.victims {
		if v == line {
			// Lost locality detected: the warp re-references a line it
			// recently lost.
			w.lls += ccwsHitGain
			w.victims = append(w.victims[:i], w.victims[i+1:]...)
			return
		}
	}
}

// OnWarpArrived implements sm.CriticalityProvider.
func (p *CCWSProvider) OnWarpArrived(slot int, w *simt.Warp) {
	for slot >= len(p.slots) {
		p.slots = append(p.slots, nil)
	}
	cw := &ccwsWarp{gid: w.GID, lls: ccwsBaseScore}
	p.slots[slot] = cw
	p.byGID[w.GID] = cw
}

// OnWarpFinished implements sm.CriticalityProvider.
func (p *CCWSProvider) OnWarpFinished(slot int) {
	if slot >= len(p.slots) || p.slots[slot] == nil {
		return
	}
	delete(p.byGID, p.slots[slot].gid)
	p.slots[slot] = nil
}

// OnIssue implements sm.CriticalityProvider: scores decay as the warp
// makes progress.
func (p *CCWSProvider) OnIssue(slot int, _ *simt.Step, _, _ int64) {
	if slot < len(p.slots) && p.slots[slot] != nil {
		w := p.slots[slot]
		if w.lls > ccwsBaseScore {
			w.lls -= ccwsDecay
		}
	}
}

// Criticality implements sm.CriticalityProvider: the lost-locality
// score.
func (p *CCWSProvider) Criticality(slot int) float64 {
	if slot < len(p.slots) && p.slots[slot] != nil {
		return p.slots[slot].lls
	}
	return 0
}

// IsCritical implements sm.CriticalityProvider (unused by CCWS's cache
// path; reported for completeness as "score above base").
func (p *CCWSProvider) IsCritical(slot int) bool {
	return p.Criticality(slot) > ccwsBaseScore
}

// CCWSPolicy is the scheduling half: round-robin restricted to the
// highest-scoring warps whenever lost locality is detected. The number
// of schedulable warps shrinks proportionally to how much of the total
// score is above the base level.
type CCWSPolicy struct {
	lrr sched.LRR
	// topK is the reused scratch buffer for the per-cycle throttled
	// ready-set selection; Select would otherwise allocate every call.
	topK []int
}

// Name implements sched.Policy.
func (*CCWSPolicy) Name() string { return "CCWS" }

// Select implements sched.Policy.
func (p *CCWSPolicy) Select(ctx *sched.Context) int {
	n := len(ctx.Ready)
	if n == 0 {
		return -1
	}
	total, excess := 0.0, 0.0
	for _, s := range ctx.Ready {
		sc := ctx.Criticality(s)
		total += sc
		if sc > ccwsBaseScore {
			excess += sc - ccwsBaseScore
		}
	}
	allowed := ctx.Ready
	if excess > 0 && total > 0 {
		// Shrink the schedulable set: the larger the share of lost
		// locality, the fewer (highest-scoring) warps may issue.
		k := n - int(float64(n)*excess/total)
		if k < 1 {
			k = 1
		}
		if k < n {
			p.topK = topKByScore(ctx, k, p.topK[:0])
			allowed = p.topK
		}
	}
	sub := *ctx
	sub.Ready = allowed
	return p.lrr.Select(&sub)
}

func topKByScore(ctx *sched.Context, k int, scratch []int) []int {
	out := append(scratch, ctx.Ready...)
	// Partial selection sort: small n (<=24 per scheduler).
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(out); j++ {
			if ctx.Criticality(out[j]) > ctx.Criticality(out[best]) {
				best = j
			}
		}
		out[i], out[best] = out[best], out[i]
	}
	return out[:k]
}

// OnWarpArrived implements sched.Policy.
func (*CCWSPolicy) OnWarpArrived(int) {}

// OnWarpFinished implements sched.Policy.
func (*CCWSPolicy) OnWarpFinished(int) {}

func init() {
	sched.Register("ccws", func() sched.Policy { return &CCWSPolicy{} })
}

// CCWSSystem returns the design point for the CCWS baseline with its
// providers (SystemConfig.Providers) as an explicit ProviderOverride.
// The returned attach function must then be passed to the run harness
// (RunOptions.AttachL1) so each provider observes its SM's L1D events.
func CCWSSystem() (SystemConfig, func(smID int, l1 *memsys.L1D)) {
	sc := SystemConfig{Scheduler: "ccws"}
	var attach func(smID int, l1 *memsys.L1D)
	sc.ProviderOverride, attach = sc.Providers()
	return sc, attach
}
