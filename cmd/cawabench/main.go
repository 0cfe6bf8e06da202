// Command cawabench regenerates the paper's tables and figures.
//
// Usage:
//
//	cawabench -exp fig9            # one experiment
//	cawabench -exp fig9,fig10     # several
//	cawabench -exp all             # everything
//	cawabench -all                 # everything (same as -exp all)
//	cawabench -list                # show available experiment ids
//
// Simulations fan out across a worker pool (-j, default all cores):
// every experiment declares its run matrix, the matrices are pooled and
// deduplicated, and the cells simulate in parallel before the tables
// build sequentially. Tables are byte-identical to a -j 1 run. -smpar N
// additionally lets each simulation share its spans between up to N
// domains (N-1 helper goroutines), budgeted from the same -j pool (total
// concurrency never exceeds -j); results stay byte-identical, so use it
// when runs are scarce (a single figure, the tail of a sweep) rather
// than to oversubscribe a saturated pool.
//
// The -scale and -sms flags trade fidelity for speed; EXPERIMENTS.md
// records the reference results at the default settings. -timing writes
// a machine-readable JSON summary of per-run and total wall-clock so
// sweep-throughput regressions are trackable. -perf FILE additionally
// profiles the engine's own wall-clock phases (domain compute, barrier
// wait, staged commit, memsys drain, dispatch, horizon planning) across
// every simulation in the sweep and writes the aggregated PerfReport
// JSON — results stay byte-identical with it on.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"cawa/internal/config"
	"cawa/internal/harness"
	"cawa/internal/obs"
	"cawa/internal/workloads"
)

// timingSummary is the machine-readable wall-clock report (-timing).
// Manifest carries the session's run manifest: the full design-point
// key and outcome of every simulation plus the run-cache hit/miss
// counters, so two sweeps can be compared mechanically.
type timingSummary struct {
	Workers      int                 `json:"workers"`
	Experiments  []experimentTiming  `json:"experiments"`
	Runs         []harness.RunTiming `json:"runs"`
	CacheHits    uint64              `json:"cache_hits"`
	CacheMisses  uint64              `json:"cache_misses"`
	SimSeconds   float64             `json:"sim_seconds"`   // summed simulation time across workers
	TotalSeconds float64             `json:"total_seconds"` // wall-clock of the whole invocation
	Manifest     *obs.Manifest       `json:"manifest"`
}

type experimentTiming struct {
	ID      string  `json:"id"`
	Seconds float64 `json:"seconds"`
}

func main() {
	var (
		exp     = flag.String("exp", "", "comma-separated experiment ids, or \"all\"")
		all     = flag.Bool("all", false, "run every experiment")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		scale   = flag.Float64("scale", 1, "workload size multiplier")
		seed    = flag.Int64("seed", 1, "input generator seed")
		sms     = flag.Int("sms", 0, "override number of SMs")
		workers = flag.Int("j", 0, "max concurrent simulations (0 = all cores)")
		smpar   = flag.Int("smpar", 1, "domains sharing each run's spans, budgeted from the -j pool (byte-identical results; <=1 = the run's own goroutine only)")
		asJSON  = flag.Bool("json", false, "emit tables as JSON documents")
		timing  = flag.String("timing", "", "write a JSON timing summary to this file (\"-\" = stderr)")

		perfOut = flag.String("perf", "", "profile the engine's wall-clock phases across the sweep and write the PerfReport JSON to this file (\"-\" = stderr)")

		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cawabench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cawabench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "cawabench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "cawabench: %v\n", err)
			}
		}()
	}

	if *list {
		for _, id := range harness.ExperimentIDs() {
			e, _ := harness.LookupExperiment(id)
			fmt.Printf("%-14s %s\n", id, e.Title)
		}
		return
	}

	var ids []string
	switch {
	case *all || *exp == "all":
		ids = harness.ExperimentIDs()
	case *exp != "":
		ids = strings.Split(*exp, ",")
	default:
		fmt.Fprintln(os.Stderr, "cawabench: pass -exp <ids>, -exp all, or -list")
		os.Exit(2)
	}
	for i := range ids {
		ids[i] = strings.TrimSpace(ids[i])
	}

	cfg := config.GTX480()
	if *sms > 0 {
		cfg.NumSMs = *sms
	}
	if *workers <= 0 {
		*workers = runtime.NumCPU()
	}
	session := harness.NewSession(cfg, workloads.Params{Scale: *scale, Seed: *seed}).
		SetWorkers(*workers).SMParallel(*smpar)
	if *perfOut != "" {
		session.EnableProfiling()
	}

	wallStart := time.Now()
	// Pool the declared run matrices of every requested experiment so
	// independent simulations from different figures share the workers.
	if err := harness.PrewarmExperiments(session, ids); err != nil {
		fmt.Fprintf(os.Stderr, "cawabench: %v\n", err)
		os.Exit(1)
	}
	summary := timingSummary{Workers: *workers}
	for _, id := range ids {
		start := time.Now()
		tbl, err := harness.RunExperiment(id, session)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cawabench: %s: %v\n", id, err)
			os.Exit(1)
		}
		elapsed := time.Since(start).Seconds()
		summary.Experiments = append(summary.Experiments, experimentTiming{ID: id, Seconds: elapsed})
		if *asJSON {
			doc, err := json.MarshalIndent(tbl, "", "  ")
			if err != nil {
				fmt.Fprintf(os.Stderr, "cawabench: %s: %v\n", id, err)
				os.Exit(1)
			}
			fmt.Println(string(doc))
			continue
		}
		fmt.Println(tbl)
		fmt.Printf("(%s in %.1fs)\n\n", id, elapsed)
	}

	if *perfOut != "" {
		rep := session.PerfReport()
		if rep == nil {
			fmt.Fprintln(os.Stderr, "cawabench: perf: no runs were profiled")
			os.Exit(1)
		}
		doc, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "cawabench: perf: %v\n", err)
			os.Exit(1)
		}
		doc = append(doc, '\n')
		if *perfOut == "-" {
			os.Stderr.Write(doc)
		} else if err := os.WriteFile(*perfOut, doc, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "cawabench: perf: %v\n", err)
			os.Exit(1)
		}
		if len(rep.Shards) > 0 {
			fmt.Fprintf(os.Stderr, "cawabench: engine profile %d barriers, barrier wait %.1f%%, shard spread %.2fx\n",
				rep.Epochs, rep.BarrierWaitFrac()*100, rep.Spread())
		}
	}

	if *timing != "" {
		summary.Runs = session.Timings()
		for _, r := range summary.Runs {
			summary.SimSeconds += r.Seconds
		}
		summary.CacheHits, summary.CacheMisses = session.CacheStats()
		summary.Manifest = session.Manifest()
		summary.TotalSeconds = time.Since(wallStart).Seconds()
		doc, err := json.MarshalIndent(summary, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "cawabench: timing: %v\n", err)
			os.Exit(1)
		}
		doc = append(doc, '\n')
		if *timing == "-" {
			os.Stderr.Write(doc)
		} else if err := os.WriteFile(*timing, doc, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "cawabench: timing: %v\n", err)
			os.Exit(1)
		}
	}
}
