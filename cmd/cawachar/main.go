// Command cawachar characterizes the warp criticality of workloads:
// per-block execution-time disparity, the stall breakdown of critical
// versus non-critical warps, and the reuse-distance profile of the
// critical warps' cache lines — the Section 2 methodology of the paper
// applied to any registered workload.
//
// Usage:
//
//	cawachar -workload bfs [-scheduler lrr] [-scale 1] [-seed 1]
//	cawachar -workload bfs,kmeans,srad_1 -j 4   # parallel characterization
//
// Several comma-separated workloads characterize concurrently across
// the -j worker pool (default all cores); reports print in the order
// given.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"

	"cawa/internal/config"
	"cawa/internal/core"
	"cawa/internal/harness"
	"cawa/internal/memsys"
	"cawa/internal/reuse"
	"cawa/internal/stats"
	"cawa/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, characterizes the
// workloads, prints their reports to stdout and returns the process
// exit code (0 ok, 1 on a failed run, 2 on usage errors).
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("cawachar", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		workload  = fl.String("workload", "bfs", "comma-separated workload names")
		scheduler = fl.String("scheduler", "lrr", "warp scheduler")
		scale     = fl.Float64("scale", 1, "workload size multiplier")
		seed      = fl.Int64("seed", 1, "input generator seed")
		sms       = fl.Int("sms", 0, "override number of SMs")
		workers   = fl.Int("j", 0, "max concurrent simulations (0 = all cores)")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if err := workloads.CheckScale(*scale); err != nil {
		fmt.Fprintln(stderr, "cawachar:", err)
		fl.Usage()
		return 2
	}

	cfg := config.GTX480()
	if *sms > 0 {
		cfg.NumSMs = *sms
	}
	if *workers <= 0 {
		*workers = runtime.NumCPU()
	}
	session := harness.NewSession(cfg, workloads.Params{Scale: *scale, Seed: *seed}).SetWorkers(*workers)

	names := strings.Split(*workload, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	// Fan the characterizations out across the pool, buffering each
	// report so output prints deterministically in the order given.
	reports := make([]bytes.Buffer, len(names))
	err := session.Fanout(len(names), func(i int) error {
		return characterize(&reports[i], session, names[i], *scheduler)
	})
	for i := range reports {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		io.Copy(stdout, &reports[i])
	}
	if err != nil {
		fmt.Fprintln(stderr, "cawachar:", err)
		return 1
	}
	return 0
}

// characterize runs one workload under the session's worker pool and
// writes its criticality report to w.
func characterize(w io.Writer, session *harness.Session, workload, scheduler string) error {
	profilers := make([]*reuse.Profiler, session.Config.NumSMs)
	res, err := session.RunUncached(harness.RunOptions{
		Workload: workload,
		System:   core.SystemConfig{Scheduler: scheduler, CPL: true},
		AttachL1: func(smID int, l1 *memsys.L1D) {
			profilers[smID] = reuse.NewProfiler(32, 128, 128, 2048)
			l1.AccessListener = profilers[smID].Record
		},
	})
	if err != nil {
		return err
	}

	a := &res.Agg
	fmt.Fprintf(w, "workload %s on %s: %d cycles, IPC %.2f, MPKI %.2f\n\n",
		workload, scheduler, a.Cycles, a.IPC(), a.MPKI())

	// Per-block disparity, worst blocks first.
	groups := a.BlockGroup()
	type row struct {
		block int
		ws    []stats.WarpRecord
		d     float64
	}
	rows := make([]row, 0, len(groups))
	for b, ws := range groups {
		rows = append(rows, row{b, ws, stats.BlockDisparity(ws)})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].d != rows[j].d {
			return rows[i].d > rows[j].d
		}
		return rows[i].block < rows[j].block
	})
	fmt.Fprintln(w, "block  warps  disparity  critical_gid  crit_cycles  crit_mem%  crit_schedwait%")
	show := rows
	if len(show) > 12 {
		show = show[:12]
	}
	for _, r := range show {
		cw := stats.CriticalWarp(r.ws)
		exec := float64(cw.ExecTime())
		if exec == 0 {
			exec = 1
		}
		fmt.Fprintf(w, "%5d  %5d  %9.3f  %12d  %11d  %8.1f%%  %14.1f%%\n",
			r.block, len(r.ws), r.d, cw.GID, cw.ExecTime(),
			100*float64(cw.MemStall)/exec, 100*float64(cw.SchedStall)/exec)
	}

	// Reuse-distance profile of critical-warp lines.
	crit := harness.CriticalGIDs(a, 2)
	gids := make([]int, 0, len(crit))
	for g := range crit {
		gids = append(gids, g)
	}
	var pooled reuse.Histogram
	for _, p := range profilers {
		if p == nil {
			continue
		}
		for gid, h := range p.ByWarp {
			if crit[gid] {
				pooled.Merge(h)
			}
		}
	}
	fmt.Fprintf(w, "\ncritical warps: %d, L1 accesses %d (%d reuses)\n",
		len(gids), pooled.Total, pooled.Reuses())
	fmt.Fprintf(w, "reuses evicted before re-reference in a 4-way set: %.1f%%\n",
		100*pooled.FracBeyond(4))
	fmt.Fprintf(w, "reuses evicted before re-reference in a 16-way set: %.1f%%\n",
		100*pooled.FracBeyond(16))
	return nil
}
