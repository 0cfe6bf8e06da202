package harness

import (
	"fmt"

	"cawa/internal/cache"
	"cawa/internal/core"
	"cawa/internal/gpu"
	"cawa/internal/memsys"
	"cawa/internal/stats"
)

func init() {
	registerGrid(&fig9)
	registerGrid(&fig10)
	registerExp("fig11", "CPL warp criticality prediction accuracy", fig11)
	registerExpReq("fig12", "Critical warp scheduling priority over time, RR vs gCAWS (bfs)",
		func(s *Session) []RunKey { return matrix([]string{"bfs"}, core.Baseline()) }, fig12)
	registerGrid(&fig13)
	registerGrid(&fig14)
	registerExp("fig15", "Zero-reuse critical-warp lines: baseline vs CAWA", fig15)
	registerGrid(&fig16)
	registerGrid(&fig17)
}

// evalCols are the evaluated schedulers of Figures 9 and 10.
var evalCols = []gridCol{
	{label: "2lvl", sc: core.SystemConfig{Scheduler: "2lvl"}},
	{label: "gto", sc: gtoSystem},
	{label: "cawa", sc: core.CAWA()},
}

// fig9: IPC speedup over the RR baseline for the 2-level scheduler,
// GTO, and the full CAWA design (paper: CAWA +23% on Sens, GTO +16%,
// 2-level -2%; kmeans up to 3.13x under CAWA).
var fig9 = grid{
	id:        "fig9",
	title:     "IPC speedup over the RR baseline: 2-level, GTO, CAWA",
	caption:   "IPC speedup over baseline RR",
	cols:      evalCols,
	metric:    ipc,
	norm:      &rrSystem,
	summaries: []gridSummary{{label: "GMEAN(sens)", sensOnly: true}, {label: "GMEAN(all)"}},
}

func isSens(app string) bool {
	for _, a := range SensApps() {
		if a == app {
			return true
		}
	}
	return false
}

// fig10: absolute L1D MPKI under each scheduler (paper: CAWA reduces
// MPKI the most on cache-thrashing apps; heartwall and strcltr_small
// may rise while IPC still improves).
var fig10 = grid{
	id:      "fig10",
	title:   "L1D MPKI: baseline RR, 2-level, GTO, CAWA",
	caption: "L1D MPKI",
	cols:    append([]gridCol{{label: "rr", sc: rrSystem}}, evalCols...),
	metric:  mpki,
}

// cplSampling builds the PerCycle / PerCycleWake pair of a run that
// visits every occupied CPL slot of every SM on multiples of `every`
// cycles (spans end there). visit returns true to
// end the cycle's sweep early.
func cplSampling(every int64, visit func(cycle int64, cpl *core.CPL, slot, gid int) (done bool)) (func(*gpu.GPU, int64), func(int64) int64) {
	hook := func(g *gpu.GPU, cycle int64) {
		if cycle%every != 0 {
			return
		}
		for _, m := range g.SMs() {
			cpl, ok := m.Crit().(*core.CPL)
			if !ok {
				continue
			}
			for slot := 0; slot < g.Config().MaxWarpsPerSM; slot++ {
				if gid := cpl.GID(slot); gid >= 0 && visit(cycle, cpl, slot, gid) {
					return
				}
			}
		}
	}
	return hook, func(now int64) int64 { return now + every - now%every }
}

// samplePair counts how often a warp was sampled, and how often CPL had
// it flagged as a slow warp.
type samplePair struct{ slow, total int64 }

// fig11: CPL prediction accuracy, measured as the frequency with which
// the post-hoc critical (slowest) warp of each block was flagged as a
// slow warp by CPL during execution (paper: 73% average, 100% for
// needle).
func fig11(s *Session) (*Table, error) {
	t := NewTable("fig11", "CPL criticality prediction accuracy", "app", "accuracy")
	apps := s.paperApps()
	// Each instrumented run owns its sampler, so the per-app runs are
	// independent; fan them out and build the table sequentially.
	accs := make([]float64, len(apps))
	err := s.Fanout(len(apps), func(i int) error {
		app := apps[i]
		samples := map[int]*samplePair{} // by global warp id
		hook, wake := cplSampling(50, func(_ int64, cpl *core.CPL, slot, gid int) bool {
			p := samples[gid]
			if p == nil {
				p = &samplePair{}
				samples[gid] = p
			}
			p.total++
			if cpl.IsCritical(slot) {
				p.slow++
			}
			return false
		})
		r, err := s.RunUncached(RunOptions{
			Workload:     app,
			System:       core.SystemConfig{Scheduler: "gcaws", CPL: true},
			PerCycle:     hook,
			PerCycleWake: wake,
		})
		if err != nil {
			return err
		}
		var num, den float64
		for _, ws := range r.Agg.BlockGroup() {
			if len(ws) < 2 {
				continue
			}
			cw := stats.CriticalWarp(ws)
			if p := samples[cw.GID]; p != nil && p.total > 0 {
				num += float64(p.slow)
				den += float64(p.total)
			}
		}
		acc := 0.0
		if den > 0 {
			acc = num / den
		}
		if app == "needle" && den == 0 {
			acc = 1 // single-warp blocks are trivially critical
		}
		accs[i] = acc
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, app := range apps {
		t.AddRow(app, accs[i])
	}
	mean := 0.0
	for _, a := range accs {
		mean += a
	}
	t.AddRow("AVG", mean/float64(len(accs)))
	return t, nil
}

// rankPoint is one sample of a warp's criticality rank among its peers.
type rankPoint struct {
	cycle int64
	rank  int
	peers int
}

// fig12: the critical warp's priority rank within its block over its
// lifetime, under the RR baseline and under gCAWS (paper: gCAWS keeps
// the critical warp at high rank and schedules it more often).
func fig12(s *Session) (*Table, error) {
	base, err := s.Baseline("bfs")
	if err != nil {
		return nil, err
	}
	warps := pickBlock(&base.Agg, 8)
	if warps == nil {
		return nil, fmt.Errorf("fig12: no block found")
	}
	target := warps[len(warps)-1].GID // critical warp of that block

	schedulers := []string{"lrr", "gcaws"}
	traces := make([][]rankPoint, len(schedulers))
	err = s.Fanout(len(schedulers), func(i int) error {
		hook, wake := cplSampling(10, func(cycle int64, cpl *core.CPL, slot, gid int) bool {
			if gid != target {
				return false
			}
			rank, peers := cpl.Rank(slot)
			if peers > 1 { // a lone survivor has no meaningful rank
				traces[i] = append(traces[i], rankPoint{cycle, rank, peers})
			}
			return true
		})
		_, err := s.RunUncached(RunOptions{
			Workload:     "bfs",
			System:       core.SystemConfig{Scheduler: schedulers[i], CPL: true},
			PerCycle:     hook,
			PerCycleWake: wake,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	rrPoints, gPoints := traces[0], traces[1]

	const bins = 20
	t := NewTable("fig12", fmt.Sprintf("Criticality rank of critical warp gid=%d over normalized lifetime", target),
		"lifetime", "rr_rank", "gcaws_rank")
	rr := binRanks(rrPoints, bins)
	gc := binRanks(gPoints, bins)
	for i := 0; i < bins; i++ {
		t.AddRow(fmt.Sprintf("%.2f", (float64(i)+0.5)/bins), rr[i], gc[i])
	}
	t.Note = "rank: 0 = least critical, peers-1 = most critical within the thread-block"
	return t, nil
}

func binRanks(points []rankPoint, bins int) []float64 {
	out := make([]float64, bins)
	if len(points) == 0 {
		return out
	}
	lo, hi := points[0].cycle, points[len(points)-1].cycle
	span := hi - lo + 1
	sums := make([]float64, bins)
	counts := make([]int, bins)
	for _, p := range points {
		b := int((p.cycle - lo) * int64(bins) / span)
		if b >= bins {
			b = bins - 1
		}
		sums[b] += float64(p.rank)
		counts[b]++
	}
	for i := range out {
		if counts[i] > 0 {
			out[i] = sums[i] / float64(counts[i])
		}
	}
	return out
}

// fig13: speedups of the oracle CAWS scheduler, gCAWS alone, and the
// full CAWA over RR on the Sens applications (paper: oracle CAWS best
// on small kernels; gCAWS/CAWA win on large kernels and kmeans; CAWA
// ~5% above gCAWS overall). The oracle design point is keyed by each
// app's baseline profile.
var fig13 = grid{
	id:      "fig13",
	title:   "Speedup of oracle CAWS, gCAWS, and CAWA over RR (Sens apps)",
	caption: "Speedup over RR: oracle CAWS, gCAWS, CAWA",
	sens:    true,
	cols: []gridCol{
		{label: "caws_oracle", perApp: func(s *Session, app string) (core.SystemConfig, error) {
			oracle, err := s.OracleFor(app)
			return core.SystemConfig{Scheduler: "caws", Oracle: oracle}, err
		}},
		{label: "gcaws", sc: core.SystemConfig{Scheduler: "gcaws", CPL: true}},
		{label: "cawa", sc: core.CAWA()},
	},
	metric:    ipc,
	norm:      &rrSystem,
	summaries: gmeanRow,
}

// criticalHitRate pools L1D hits/accesses of the post-hoc critical
// warps of a run, read from the per-warp snapshot the Result carries
// (session-cached results no longer retain their GPU).
func criticalHitRate(r *Result) float64 {
	crit := CriticalGIDs(&r.Agg, 2)
	var hits, accs uint64
	for gid, a := range r.WarpL1Accesses {
		if crit[int(gid)] {
			accs += a
			hits += r.WarpL1Hits[gid]
		}
	}
	if accs == 0 {
		return 0
	}
	return float64(hits) / float64(accs)
}

// fig14: the L1D hit rate received by critical-warp requests, under
// GTO and CAWA, normalized to the RR baseline (paper: CAWA 2.46x on
// average, 7.22x for kmeans).
var fig14 = grid{
	id:        "fig14",
	title:     "Critical-warp L1D hit rate, normalized to the RR baseline",
	caption:   "Critical-warp L1D hit rate normalized to RR baseline",
	sens:      true,
	cols:      []gridCol{{label: "gto", sc: gtoSystem}, {label: "cawa", sc: core.CAWA()}},
	metric:    criticalHitRate,
	norm:      &rrSystem,
	summaries: gmeanRow,
}

// zeroReuseShare runs app with an eviction listener and returns the
// share of critical-warp-filled lines evicted without any reuse
// (lines "useful to critical warps" that never saw a re-reference).
func zeroReuseShare(s *Session, app string, sc core.SystemConfig) (float64, error) {
	var zero, total uint64
	_, err := s.RunUncached(RunOptions{
		Workload: app,
		System:   sc,
		AttachL1: func(_ int, l1 *memsys.L1D) {
			l1.Cache().EvictListener = func(ev *cache.Eviction) {
				if ev.Line.FillCritical {
					total++
					if ev.Line.Refs == 0 {
						zero++
					}
				}
			}
		},
	})
	if err != nil {
		return 0, err
	}
	if total == 0 {
		return 0, nil
	}
	return float64(zero) / float64(total), nil
}

// fig15: the share of critical-warp cache lines evicted with zero reuse
// under the baseline and under CAWA (paper: 44.3% in the baseline,
// greatly reduced by CACP's explicit partitioning).
func fig15(s *Session) (*Table, error) {
	t := NewTable("fig15", "Zero-reuse critical-warp lines (share of critical evictions)",
		"app", "baseline", "cawa")
	apps := s.sensApps()
	systems := []core.SystemConfig{{Scheduler: "lrr", CPL: true}, core.CAWA()}
	// Eviction-listener runs bypass the cache; fan out all app×system
	// cells and assemble the table sequentially.
	shares := make([][]float64, len(apps))
	for i := range shares {
		shares[i] = make([]float64, len(systems))
	}
	err := s.Fanout(len(apps)*len(systems), func(i int) error {
		a, j := i/len(systems), i%len(systems)
		v, err := zeroReuseShare(s, apps[a], systems[j])
		shares[a][j] = v
		return err
	})
	if err != nil {
		return nil, err
	}
	var sumB, sumC float64
	for i, app := range apps {
		t.AddRow(app, shares[i][0], shares[i][1])
		sumB += shares[i][0]
		sumC += shares[i][1]
	}
	t.AddRow("AVG", sumB/float64(len(apps)), sumC/float64(len(apps)))
	return t, nil
}

// cacpCols are the design points of Figures 16 and 17: each
// state-of-the-art scheduler with and without CACP, plus CAWA.
var cacpCols = []gridCol{
	{label: "rr", sc: rrSystem},
	{label: "rr+cacp", sc: core.SystemConfig{Scheduler: "lrr", CPL: true, CACP: true}},
	{label: "gto", sc: gtoSystem},
	{label: "gto+cacp", sc: core.SystemConfig{Scheduler: "gto", CPL: true, CACP: true}},
	{label: "2lvl", sc: core.SystemConfig{Scheduler: "2lvl"}},
	{label: "2lvl+cacp", sc: core.SystemConfig{Scheduler: "2lvl", CPL: true, CACP: true}},
	{label: "cawa", sc: core.CAWA()},
}

// fig16: L1D MPKI when CACP is applied underneath each scheduler
// (paper: CACP helps every scheduler; the coordinated CAWA is best).
var fig16 = grid{
	id:      "fig16",
	title:   "L1D MPKI with CACP applied to RR/GTO/2-level schedulers",
	caption: "L1D MPKI with CACP under different schedulers",
	sens:    true,
	cols:    cacpCols,
	metric:  mpki,
}

// fig17: IPC speedup over RR for the same design points (paper: CACP
// adds 2%-16.5% on top of the schedulers; CAWA remains best).
var fig17 = grid{
	id:        "fig17",
	title:     "IPC with CACP applied to RR/GTO/2-level schedulers",
	caption:   "IPC speedup over RR with CACP under different schedulers",
	sens:      true,
	cols:      cacpCols[1:],
	metric:    ipc,
	norm:      &rrSystem,
	summaries: gmeanRow,
}
