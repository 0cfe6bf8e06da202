package harness

import (
	"fmt"
	"sort"

	"cawa/internal/core"
	"cawa/internal/memsys"
	"cawa/internal/reuse"
	"cawa/internal/stats"
)

func init() {
	registerExpReq("fig1", "Warp execution time disparity across GPGPU applications (max per-block, baseline RR)",
		func(s *Session) []RunKey { return matrix(s.paperApps(), core.Baseline()) }, fig1)
	registerExpReq("fig2a", "Per-warp execution time, highest-disparity block, bfs (workload imbalance)",
		func(s *Session) []RunKey { return matrix([]string{"bfs"}, core.Baseline()) }, fig2a)
	registerExpReq("fig2b", "Per-warp execution time and instruction count, balanced-tree bfs (branch behaviour)",
		func(s *Session) []RunKey { return matrix([]string{"bfs-balanced"}, core.Baseline()) }, fig2b)
	registerExpReq("fig2c", "Memory-subsystem share of warp execution time, bfs",
		func(s *Session) []RunKey { return matrix([]string{"bfs"}, core.Baseline()) }, fig2c)
	registerExp("fig3", "Reuse distance of critical-warp cache lines, bfs (16KB 4-way L1D)", fig3)
	registerExpReq("fig4", "Scheduler-induced extra wait time for the critical warp, baseline RR",
		func(s *Session) []RunKey { return matrix(fig4Apps, core.Baseline()) }, fig4)
	registerExp("fig8", "Per-PC reuse behaviour of bfs under 256KB vs 16KB caches", fig8)
}

// fig4Apps are the four applications the paper's Figure 4 breaks down.
var fig4Apps = []string{"bfs", "b+tree", "kmeans", "srad_1"}

// fig1: for every application, the highest per-block warp execution
// time disparity under the round-robin baseline (paper: average 45%,
// up to ~70% for srad_1).
func fig1(s *Session) (*Table, error) {
	t := NewTable("fig1", "Warp execution time disparity (baseline RR)",
		"app", "max_disparity", "mean_disparity")
	sum := 0.0
	apps := s.paperApps()
	for _, app := range apps {
		r, err := s.Baseline(app)
		if err != nil {
			return nil, err
		}
		d := r.Agg.MaxDisparity(2)
		t.AddRow(app, d, r.Agg.MeanDisparity(2))
		sum += d
	}
	t.AddRow("AVG", sum/float64(len(apps)), 0)
	t.Note = "disparity = (slowest - fastest) / slowest warp execution time within a block"
	return t, nil
}

// fig2a: sorted per-warp execution times of the highest-disparity bfs
// block (paper: ~20% gap between fastest and slowest).
func fig2a(s *Session) (*Table, error) {
	warps, err := slowBlock(s, "bfs", "fig2a")
	if err != nil {
		return nil, err
	}
	t := NewTable("fig2a", "bfs: sorted per-warp execution time (highest-disparity block)",
		"warp", "exec_cycles", "norm_time")
	slowest := float64(warps[len(warps)-1].ExecTime())
	for i, w := range warps {
		t.AddRow(fmt.Sprintf("w%02d", i), float64(w.ExecTime()), float64(w.ExecTime())/slowest)
	}
	return t, nil
}

// slowBlock returns the warps of app's highest-disparity block under the
// RR baseline, fastest first.
func slowBlock(s *Session, app, id string) ([]stats.WarpRecord, error) {
	r, err := s.Baseline(app)
	if err != nil {
		return nil, err
	}
	warps := pickBlock(&r.Agg, 8)
	if warps == nil {
		return nil, fmt.Errorf("%s: no block found", id)
	}
	return warps, nil
}

// fig2b: the balanced-tree bfs still shows warp time disparity, caused
// by diverging branch behaviour; the dynamic instruction counts are
// reported alongside (paper: ~40% time gap, up to ~20% instruction
// gap).
func fig2b(s *Session) (*Table, error) {
	warps, err := slowBlock(s, "bfs-balanced", "fig2b")
	if err != nil {
		return nil, err
	}
	t := NewTable("fig2b", "Balanced-tree bfs: per-warp time and instructions",
		"warp", "exec_cycles", "norm_time", "thread_instrs", "norm_instrs")
	slowest := float64(warps[len(warps)-1].ExecTime())
	maxInstr := float64(1)
	for _, w := range warps {
		if v := float64(w.ThreadInstrs); v > maxInstr {
			maxInstr = v
		}
	}
	for i, w := range warps {
		t.AddRow(fmt.Sprintf("w%02d", i),
			float64(w.ExecTime()), float64(w.ExecTime())/slowest,
			float64(w.ThreadInstrs), float64(w.ThreadInstrs)/maxInstr)
	}
	return t, nil
}

// fig2c: the share of each warp's execution time spent stalled on the
// memory subsystem, slowest warps last (paper: slower warps see larger
// memory shares).
func fig2c(s *Session) (*Table, error) {
	warps, err := slowBlock(s, "bfs", "fig2c")
	if err != nil {
		return nil, err
	}
	t := NewTable("fig2c", "bfs: memory share of warp execution time",
		"warp", "exec_cycles", "mem_stall_cycles", "mem_share")
	for i, w := range warps {
		t.AddRow(fmt.Sprintf("w%02d", i),
			float64(w.ExecTime()), float64(w.MemStall), w.MemShare())
	}
	return t, nil
}

// fig3: reuse distances of the lines referenced by critical warps in a
// 16KB 4-way L1D geometry (32 sets of 128B lines). The paper reports
// that over 60% of would-be reuses are evicted before the critical warp
// re-references them.
func fig3(s *Session) (*Table, error) {
	r, profilers, err := reuseProfiledBFS(s)
	if err != nil {
		return nil, err
	}
	crit := CriticalGIDs(&r.Agg, 2)
	var critHist, allHist reuse.Histogram
	for _, p := range profilers {
		if p == nil {
			continue
		}
		for gid, h := range p.ByWarp {
			allHist.Merge(h)
			if crit[gid] {
				critHist.Merge(h)
			}
		}
	}
	t := NewTable("fig3", "bfs: reuse distance of critical warp cache lines (16KB 4-way)",
		"metric", "critical_warps", "all_warps")
	t.AddRow("reuses", float64(critHist.Reuses()), float64(allHist.Reuses()))
	t.AddRow("frac_evicted_before_reuse", critHist.FracBeyond(4), allHist.FracBeyond(4))
	t.AddRow("frac_dist<=1", frac(critHist, 0, 1), frac(allHist, 0, 1))
	t.AddRow("frac_dist2-3", frac(critHist, 2, 3), frac(allHist, 2, 3))
	t.AddRow("frac_dist4-15", frac(critHist, 4, 15), frac(allHist, 4, 15))
	t.AddRow("frac_dist>=16", critHist.FracBeyond(16), allHist.FracBeyond(16))
	t.Note = "frac_evicted_before_reuse = per-set stack distance >= 4 ways"
	return t, nil
}

// reuseProfiledBFS runs bfs with a reuse-distance profiler on every
// SM's L1D, in Figure 3's footnote geometry: 16KB, 4-way, 128B lines ->
// 32 sets; capacities in lines: 16KB = 128, 256KB = 2048.
func reuseProfiledBFS(s *Session) (*Result, []*reuse.Profiler, error) {
	profilers := make([]*reuse.Profiler, s.Config.NumSMs)
	r, err := s.RunUncached(RunOptions{
		Workload: "bfs",
		System:   core.SystemConfig{Scheduler: "lrr", CPL: true},
		AttachL1: func(smID int, l1 *memsys.L1D) {
			profilers[smID] = reuse.NewProfiler(32, 128, 128, 2048)
			l1.AccessListener = profilers[smID].Record
		},
	})
	return r, profilers, err
}

// frac returns the share of reuses whose distance lies in [lo, hi].
func frac(h reuse.Histogram, lo, hi int64) float64 {
	return h.FracBeyond(lo) - h.FracBeyond(hi+1)
}

// fig4: extra wait imposed on the critical warp by the scheduler: the
// cycles it was ready but not selected, as a share of its execution
// time (paper: up to 52.4% under RR).
func fig4(s *Session) (*Table, error) {
	t := NewTable("fig4", "Scheduler-induced wait of the critical warp (baseline RR)",
		"app", "sched_wait_share", "mem_share", "issue_share")
	for _, app := range fig4Apps {
		r, err := s.Baseline(app)
		if err != nil {
			return nil, err
		}
		var wait, mem, issue, total float64
		for _, ws := range r.Agg.BlockGroup() {
			if len(ws) < 2 {
				continue
			}
			cw := stats.CriticalWarp(ws)
			wait += float64(cw.SchedStall)
			mem += float64(cw.MemStall)
			issue += float64(cw.IssueCycles)
			total += float64(cw.ExecTime())
		}
		if total == 0 {
			total = 1
		}
		t.AddRow(app, wait/total, mem/total, issue/total)
	}
	return t, nil
}

// fig8: per-PC reuse behaviour: for each memory instruction of the bfs
// kernels, the share of its accesses that would hit in a large (256KB)
// versus the real (16KB) cache. Some PCs stream (no reuse at either
// size), motivating the signature-based predictors.
func fig8(s *Session) (*Table, error) {
	_, profilers, err := reuseProfiledBFS(s)
	if err != nil {
		return nil, err
	}
	merged := make(map[int32]*reuse.PCStat)
	for _, p := range profilers {
		if p == nil {
			continue
		}
		for pc, st := range p.ByPC {
			m := merged[pc]
			if m == nil {
				m = &reuse.PCStat{}
				merged[pc] = m
			}
			m.Accesses += st.Accesses
			m.Cold += st.Cold
			m.ReuseWithinSmall += st.ReuseWithinSmall
			m.ReuseWithinLarge += st.ReuseWithinLarge
			m.CriticalReuses += st.CriticalReuses
		}
	}
	pcs := make([]int32, 0, len(merged))
	for pc := range merged {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	t := NewTable("fig8", "bfs: per-PC reuse under 256KB vs 16KB caches",
		"pc", "accesses", "reuse_256KB", "reuse_16KB", "zero_reuse")
	for _, pc := range pcs {
		st := merged[pc]
		if st.Accesses == 0 {
			continue
		}
		a := float64(st.Accesses)
		// zero_reuse: first touches plus reuses that would miss even in
		// the large cache (streamed data).
		zero := (float64(st.Cold) + float64(reusesOf(st)-st.ReuseWithinLarge)) / a
		t.AddRow(fmt.Sprintf("PC-%d", pc),
			a,
			float64(st.ReuseWithinLarge)/a,
			float64(st.ReuseWithinSmall)/a,
			zero)
	}
	t.Note = "reuse_* = share of accesses re-referencing data within the given capacity"
	return t, nil
}

func reusesOf(st *reuse.PCStat) uint64 { return st.Accesses - st.Cold }
