// Command cawasim runs one GPGPU workload on one simulated design
// point and prints its performance summary.
//
// Usage:
//
//	cawasim -workload bfs -scheduler gcaws -cpl -cacp [-scale 1] [-seed 1] [-sms 15] [-smpar N] [-v]
//
// Schedulers: lrr (baseline RR), gto, 2lvl, caws (oracle), gcaws.
// The full CAWA design point is -scheduler gcaws -cpl -cacp.
//
// Observability (see README "Observability"):
//
//	-trace-json out.json   Chrome trace-event file: per-warp spans with
//	                       stall slices, kernel spans and the sampled
//	                       metrics as counter tracks (open in Perfetto
//	                       or chrome://tracing)
//	-sample-every N        counter-track sampling cadence in cycles
//	-hotpcs N              print the N PCs with the most stall time,
//	                       from the same event stream as the trace
//
// Engine self-profiling (see DESIGN.md "Self-profiling"):
//
//	-perf FILE             profile the engine's own wall-clock phases
//	                       (domain compute, barrier wait, staged commit,
//	                       memsys drain, dispatch, horizon planning) and
//	                       write the PerfReport JSON (phase and shard
//	                       totals) to FILE; simulated results stay
//	                       byte-identical
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"cawa/internal/config"
	"cawa/internal/core"
	"cawa/internal/harness"
	"cawa/internal/obs"
	"cawa/internal/obs/perf"
	"cawa/internal/sched"
	"cawa/internal/stats"
	"cawa/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, simulates, prints the
// summary to stdout and returns the process exit code (0 ok, 1 on a
// failed run, 2 on usage errors).
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("cawasim", flag.ContinueOnError)
	fl.SetOutput(stderr)
	fail := func(err error) int {
		fmt.Fprintln(stderr, "cawasim:", err)
		return 1
	}
	var (
		workload  = fl.String("workload", "bfs", "workload name ("+strings.Join(workloads.Names(), ", ")+")")
		scheduler = fl.String("scheduler", "lrr", "warp scheduler ("+strings.Join(sched.Names(), ", ")+")")
		cpl       = fl.Bool("cpl", false, "attach the CPL criticality predictor")
		cacp      = fl.Bool("cacp", false, "enable criticality-aware cache prioritization (implies -cpl)")
		scale     = fl.Float64("scale", 1, "workload size multiplier")
		seed      = fl.Int64("seed", 1, "input generator seed")
		sms       = fl.Int("sms", 0, "override number of SMs (default: GTX480's 15)")
		verbose   = fl.Bool("v", false, "print per-block warp summaries")
		hotpcs    = fl.Int("hotpcs", 0, "print the N PCs with the most stall time")
		smpar     = fl.Int("smpar", 1, "domains sharing each span of the engine: 1 runs on this goroutine alone, N adds N-1 helper goroutines, 0 = one per core (byte-identical results; always 1 when tracing attaches observers)")

		traceJSON   = fl.String("trace-json", "", "write a Chrome trace-event file (Perfetto / chrome://tracing)")
		sampleEvery = fl.Int64("sample-every", 0, fmt.Sprintf("counter-track sampling interval in cycles (0 = %d when -trace-json is set)", obs.DefaultSampleEvery))

		perfJSON = fl.String("perf", "", "profile the engine's wall-clock phases and write the PerfReport JSON to this file")

		cpuprofile = fl.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = fl.String("memprofile", "", "write a pprof heap profile to this file")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if err := workloads.CheckScale(*scale); err != nil {
		fmt.Fprintln(stderr, "cawasim:", err)
		fl.Usage()
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	cfg := config.GTX480()
	if *sms > 0 {
		cfg.NumSMs = *sms
	}
	sc := core.SystemConfig{Scheduler: *scheduler, CPL: *cpl || *cacp, CACP: *cacp}
	if *scheduler == "caws" {
		fmt.Fprintln(stderr, "cawasim: profiling baseline run for oracle criticality...")
		s := harness.NewSession(cfg, workloads.Params{Scale: *scale, Seed: *seed})
		oracle, err := s.OracleFor(*workload)
		if err != nil {
			return fail(err)
		}
		sc.Oracle = oracle
	}

	smWorkers := *smpar
	if smWorkers == 0 {
		smWorkers = runtime.GOMAXPROCS(0)
	}
	opt := harness.RunOptions{
		Workload: *workload,
		Params:   workloads.Params{Scale: *scale, Seed: *seed},
		System:   sc,
		Config:   cfg,
		// The harness keeps tracing runs (whose observers may share state
		// across SMs) on one domain.
		SMWorkers: smWorkers,
	}

	// Engine self-profiling: purely observational — the profiler reads
	// the wall clock at the engine's phase seams and never feeds
	// simulated state, so results stay byte-identical (the equivalence
	// tests pin this).
	var prof *perf.Profiler
	if *perfJSON != "" {
		prof = harness.NewWallProfiler(0)
		opt.Profiler = prof
	}

	// Observability wiring. The collector decorates every SM's
	// criticality provider with an issue recorder (one event stream for
	// the Chrome trace and the hot-PC report); the sampler polls the
	// metric registry on a cycle cadence for the trace's counter
	// tracks. Neither is attached unless requested, so plain runs are
	// bit-identical to pre-observability builds.
	var collector *obs.Collector
	var sampler *obs.Sampler
	if *traceJSON != "" || *hotpcs > 0 {
		// Decorate exactly the providers the untraced run gets.
		collector = obs.NewCollector(1 << 20)
		opt.System.ProviderOverride = collector.Wrap(sc.Providers())
	}
	if *traceJSON != "" {
		sampler = obs.NewSampler(nil, *sampleEvery)
		opt.PerCycle = sampler.OnCycle
		// The wake hint keeps spans effective with sampling on: they end
		// on the sampler's cadence instead of shrinking to one cycle.
		opt.PerCycleWake = sampler.NextWake
	}

	res, err := harness.Run(opt)
	if err != nil {
		return fail(err)
	}

	a := &res.Agg
	fmt.Fprintf(stdout, "workload       %s (verified against Go reference)\n", res.Workload)
	fmt.Fprintf(stdout, "design point   %s\n", res.System)
	fmt.Fprintf(stdout, "launches       %d\n", res.Launches)
	fmt.Fprintf(stdout, "cycles         %d\n", a.Cycles)
	fmt.Fprintf(stdout, "warp instrs    %d\n", a.Instructions)
	fmt.Fprintf(stdout, "thread instrs  %d\n", a.ThreadInstrs)
	fmt.Fprintf(stdout, "IPC            %.3f\n", a.IPC())
	fmt.Fprintf(stdout, "L1D accesses   %d\n", a.L1DAccesses)
	fmt.Fprintf(stdout, "L1D misses     %d (%.2f%% miss rate, %.2f MPKI)\n",
		a.L1DMisses, a.L1DMissRate()*100, a.MPKI())
	fmt.Fprintf(stdout, "L2 accesses    %d (misses %d)\n", a.L2Accesses, a.L2Misses)
	fmt.Fprintf(stdout, "coalescing     %.2f transactions per memory instruction\n", a.CoalescingFactor())
	fmt.Fprintf(stdout, "warps          %d\n", len(a.Warps))
	fmt.Fprintf(stdout, "max disparity  %.3f\n", a.MaxDisparity(2))
	fmt.Fprintf(stdout, "mean disparity %.3f\n", a.MeanDisparity(2))

	if *verbose {
		for block, ws := range a.BlockGroup() {
			cw := stats.CriticalWarp(ws)
			fmt.Fprintf(stdout, "block %4d: %2d warps, disparity %.3f, critical gid %d (%d cycles)\n",
				block, len(ws), stats.BlockDisparity(ws), cw.GID, cw.ExecTime())
		}
	}

	if prof != nil {
		if err := writePerfReport(stdout, prof.Report(), *perfJSON); err != nil {
			return fail(err)
		}
	}

	if *traceJSON != "" {
		if err := writeTrace(stdout, stderr, res, collector, sampler, *traceJSON); err != nil {
			return fail(err)
		}
	}

	if *hotpcs > 0 {
		fmt.Fprintf(stdout, "\nhottest PCs by accumulated stall (last kernel's retained trace):\n")
		fmt.Fprintln(stdout, "  pc    op          issues      stall_cycles")
		for _, p := range collector.HotPCs(*hotpcs) {
			fmt.Fprintf(stdout, "  %-5d %-10s %9d  %12d\n", p.PC, p.Op, p.Issues, p.Stall)
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fail(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fail(err)
		}
		f.Close()
	}
	return 0
}

// writePerfReport writes the engine self-profile's PerfReport JSON to
// path and a one-line summary of where the engine spent its wall clock
// to stdout.
func writePerfReport(stdout io.Writer, rep *perf.Report, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if len(rep.Shards) > 0 {
		fmt.Fprintf(stdout, "engine profile %d barriers, barrier wait %.1f%%, shard spread %.2fx (%s)\n",
			rep.Epochs, rep.BarrierWaitFrac()*100, rep.Spread(), path)
	} else {
		fmt.Fprintf(stdout, "engine profile one domain, %s total (%s)\n",
			time.Duration(rep.WallNS), path)
	}
	return nil
}

// writeTrace renders the run's one Chrome trace to path.
func writeTrace(stdout, stderr io.Writer, res *harness.Result, collector *obs.Collector, sampler *obs.Sampler, path string) error {
	events := collector.Events()
	if total := collector.Total(); total > uint64(len(events)) {
		fmt.Fprintf(stderr, "cawasim: trace rings overwrote %d of %d events; only the most recent are exported\n",
			total-uint64(len(events)), total)
	}
	ct := obs.BuildChromeTrace(obs.TraceInput{
		Warps:  res.Agg.Warps,
		Events: events,
		Series: sampler.Series(),
		Spans:  res.Spans,
	})
	if err := ct.WriteFile(path); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "trace          %s (open in Perfetto or chrome://tracing)\n", path)
	return nil
}
