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
//	                       stall slices plus counter tracks (open in
//	                       Perfetto or chrome://tracing)
//	-obs-dir DIR           write trace.json, metrics.csv, metrics.json
//	                       and manifest.json into DIR
//	-sample-every N        metric sampling cadence in cycles
//	-hotpcs N              print the N PCs with the most stall time,
//	                       from the same event stream as the trace
//
// Engine self-profiling (see DESIGN.md "Self-profiling"):
//
//	-perf FILE             profile the engine's own wall-clock phases
//	                       (domain compute, barrier wait, staged commit,
//	                       memsys drain, dispatch, horizon planning) and
//	                       write the PerfReport JSON to FILE; simulated
//	                       results stay byte-identical
//	-perf-trace FILE       also write the profile as Chrome trace-event
//	                       counter tracks (Perfetto / chrome://tracing)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
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
		obsDir      = fl.String("obs-dir", "", "write observability artifacts (trace.json, metrics.csv, metrics.json, manifest.json) into this directory")
		sampleEvery = fl.Int64("sample-every", 0, fmt.Sprintf("metric sampling interval in cycles (0 = %d when observability is on)", obs.DefaultSampleEvery))

		perfJSON  = fl.String("perf", "", "profile the engine's wall-clock phases and write the PerfReport JSON to this file")
		perfTrace = fl.String("perf-trace", "", "write the engine profile as Chrome trace-event counter tracks")

		cpuprofile = fl.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = fl.String("memprofile", "", "write a pprof heap profile to this file")
	)
	if err := fl.Parse(args); err != nil {
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
	if *perfJSON != "" || *perfTrace != "" {
		prof = harness.NewWallProfiler(perf.DefaultSampleEvery)
		opt.Profiler = prof
	}

	// Observability wiring. The collector decorates every SM's
	// criticality provider with a trace recorder (one event stream for
	// the Chrome trace and the hot-PC report); the sampler polls the
	// metric registry on a cycle cadence for counter tracks and time
	// series. Neither is attached unless requested, so plain runs are
	// bit-identical to pre-observability builds.
	wantTrace := *traceJSON != "" || *obsDir != ""
	sysKey, err := sc.Key()
	if err != nil {
		sysKey = sc.Label()
	}
	var collector *obs.Collector
	var sampler *obs.Sampler
	if wantTrace || *hotpcs > 0 {
		// Decorate exactly the providers the untraced run gets, bound to
		// their L1Ds the same way.
		collector = obs.NewCollector(1 << 20)
		providers, attach := sc.Providers()
		opt.System.ProviderOverride = collector.Wrap(providers)
		opt.AttachL1 = attach
	}
	if wantTrace {
		sampler = obs.NewSampler(nil, *sampleEvery)
		opt.PerCycle = sampler.OnCycle
		// The wake hint keeps spans effective with sampling on: they end
		// on the sampler's cadence instead of shrinking to one cycle.
		opt.PerCycleWake = sampler.NextWake
	}

	start := time.Now()
	res, err := harness.Run(opt)
	elapsed := time.Since(start)
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

	var perfReport *perf.Report
	if prof != nil {
		perfReport = prof.Report()
		if err := writePerfArtifacts(stdout, perfReport, *perfJSON, *perfTrace); err != nil {
			return fail(err)
		}
	}

	if wantTrace {
		if err := writeObsArtifacts(stdout, stderr, res, collector, sampler, elapsed, *traceJSON, *obsDir, cfg, opt.Params, sysKey, perfReport); err != nil {
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

// writePerfArtifacts renders the engine self-profile: the PerfReport
// JSON and, when requested, its Chrome-trace counter tracks. A one-line
// summary of where the engine spent its wall clock goes to stdout.
func writePerfArtifacts(stdout io.Writer, rep *perf.Report, jsonPath, tracePath string) error {
	write := func(path string, render func(io.Writer) error) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := render(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(jsonPath, rep.WriteJSON); err != nil {
		return err
	}
	if err := write(tracePath, rep.WriteChromeTrace); err != nil {
		return err
	}
	if len(rep.Shards) > 0 {
		fmt.Fprintf(stdout, "engine profile %d barriers, barrier wait %.1f%%, shard spread %.2fx (%s)\n",
			rep.Epochs, rep.BarrierWaitFrac()*100, rep.Spread(), jsonPath)
	} else {
		fmt.Fprintf(stdout, "engine profile one domain, %s total (%s)\n",
			time.Duration(rep.WallNS), jsonPath)
	}
	return nil
}

// writeObsArtifacts renders the Chrome trace and, under -obs-dir, the
// metric time series and the run manifest.
func writeObsArtifacts(stdout, stderr io.Writer, res *harness.Result, collector *obs.Collector, sampler *obs.Sampler,
	elapsed time.Duration, traceJSON, obsDir string, cfg config.Config, params workloads.Params, sysKey string,
	perfReport *perf.Report) error {
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
	if traceJSON != "" {
		if err := ct.WriteFile(traceJSON); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace          %s (open in Perfetto or chrome://tracing)\n", traceJSON)
	}
	if obsDir == "" {
		return nil
	}
	if err := os.MkdirAll(obsDir, 0o755); err != nil {
		return err
	}
	if err := ct.WriteFile(filepath.Join(obsDir, "trace.json")); err != nil {
		return err
	}
	if err := writeSeries(filepath.Join(obsDir, "metrics.csv"), sampler, obs.WriteSeriesCSV); err != nil {
		return err
	}
	if err := writeSeries(filepath.Join(obsDir, "metrics.json"), sampler, obs.WriteSeriesJSON); err != nil {
		return err
	}
	m := &obs.Manifest{
		Architecture: cfg.Name,
		NumSMs:       cfg.NumSMs,
		Scale:        params.Scale,
		Seed:         params.Seed,
		Workers:      1,
		CacheMisses:  1,
		WallSeconds:  elapsed.Seconds(),
		Perf:         perfReport,
		Runs: []obs.RunRecord{{
			App:       res.Workload,
			System:    res.System,
			SystemKey: sysKey,
			Seconds:   elapsed.Seconds(),
			Launches:  res.Launches,
			Cycles:    res.Agg.Cycles,
			Instrs:    res.Agg.Instructions,
			IPC:       res.Agg.IPC(),
			Warps:     len(res.Agg.Warps),
		}},
	}
	if err := m.WriteFile(filepath.Join(obsDir, "manifest.json")); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "observability  %s (trace.json, metrics.csv, metrics.json, manifest.json)\n", obsDir)
	return nil
}

// writeSeries streams the sampler's series through one exporter.
func writeSeries(path string, sampler *obs.Sampler, export func(w io.Writer, series []*obs.Series) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := export(f, sampler.Series()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
