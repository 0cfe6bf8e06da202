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
// records the reference results at the default settings. -timing FILE
// writes the sweep's one timing document: seconds per experiment,
// summed simulation seconds, the invocation's total, the session
// manifest (workers, cache counters and every simulated run with its
// full design-point key and seconds), and the engine's own wall-clock
// phases (domain compute, barrier wait, staged commit, memsys drain,
// dispatch, horizon planning) summed over every simulation as a
// PerfReport, so sweep-throughput regressions are trackable and
// decompose. -timing turns that profiling on, which costs about 2 % of
// the sweep's wall time; simulated results stay byte-identical.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"cawa/internal/config"
	"cawa/internal/harness"
	"cawa/internal/obs"
	"cawa/internal/obs/perf"
	"cawa/internal/workloads"
)

// timingSummary is the machine-readable wall-clock report (-timing).
// Manifest carries the session's run manifest: the worker count, the
// run-cache hit/miss counters, and the full design-point key, outcome
// and seconds of every simulation, so two sweeps can be compared
// mechanically. Perf is the engine profile summed over those
// simulations.
type timingSummary struct {
	Experiments  []experimentTiming `json:"experiments"`
	SimSeconds   float64            `json:"sim_seconds"`   // summed simulation time across workers
	TotalSeconds float64            `json:"total_seconds"` // wall-clock of the whole invocation
	Manifest     *obs.Manifest      `json:"manifest"`
	Perf         *perf.Report       `json:"perf"`
}

type experimentTiming struct {
	ID      string  `json:"id"`
	Seconds float64 `json:"seconds"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, runs the requested
// experiments, prints their tables to stdout and returns the process
// exit code (0 ok, 1 on a failed experiment or artifact, 2 on usage
// errors).
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("cawabench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	fail := func(err error) int {
		fmt.Fprintln(stderr, "cawabench:", err)
		return 1
	}
	var (
		exp     = fl.String("exp", "", "comma-separated experiment ids, or \"all\"")
		all     = fl.Bool("all", false, "run every experiment")
		list    = fl.Bool("list", false, "list experiment ids and exit")
		scale   = fl.Float64("scale", 1, "workload size multiplier")
		seed    = fl.Int64("seed", 1, "input generator seed")
		sms     = fl.Int("sms", 0, "override number of SMs")
		workers = fl.Int("j", 0, "max concurrent simulations (0 = all cores)")
		smpar   = fl.Int("smpar", 1, "domains sharing each run's spans, budgeted from the -j pool (byte-identical results; <=1 = the run's own goroutine only)")
		asJSON  = fl.Bool("json", false, "emit tables as JSON documents")
		timing  = fl.String("timing", "", "profile the sweep and write its JSON timing summary, engine profile included, to this file (\"-\" = stderr)")

		cpuprofile = fl.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = fl.String("memprofile", "", "write a pprof heap profile to this file")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if err := workloads.CheckScale(*scale); err != nil {
		fmt.Fprintln(stderr, "cawabench:", err)
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
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fail(err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(err)
			}
		}()
	}

	if *list {
		for _, id := range harness.ExperimentIDs() {
			e, _ := harness.LookupExperiment(id)
			fmt.Fprintf(stdout, "%-14s %s\n", id, e.Title)
		}
		return 0
	}

	var ids []string
	switch {
	case *all || *exp == "all":
		ids = harness.ExperimentIDs()
	case *exp != "":
		ids = strings.Split(*exp, ",")
	default:
		fmt.Fprintln(stderr, "cawabench: pass -exp <ids>, -exp all, or -list")
		return 2
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
	if *timing != "" {
		session.EnableProfiling()
	}

	wallStart := time.Now()
	// Pool the declared run matrices of every requested experiment so
	// independent simulations from different figures share the workers.
	if err := harness.PrewarmExperiments(session, ids); err != nil {
		return fail(err)
	}
	var summary timingSummary
	for _, id := range ids {
		start := time.Now()
		tbl, err := harness.RunExperiment(id, session)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", id, err))
		}
		elapsed := time.Since(start).Seconds()
		summary.Experiments = append(summary.Experiments, experimentTiming{ID: id, Seconds: elapsed})
		if *asJSON {
			doc, err := json.MarshalIndent(tbl, "", "  ")
			if err != nil {
				return fail(fmt.Errorf("%s: %w", id, err))
			}
			fmt.Fprintln(stdout, string(doc))
			continue
		}
		fmt.Fprintln(stdout, tbl)
		fmt.Fprintf(stdout, "(%s in %.1fs)\n\n", id, elapsed)
	}

	if *timing != "" {
		summary.Manifest = session.Manifest()
		summary.Perf = session.PerfReport()
		for _, r := range summary.Manifest.Runs {
			summary.SimSeconds += r.Seconds
		}
		summary.TotalSeconds = time.Since(wallStart).Seconds()
		err := writeArtifact(*timing, stderr, func(w io.Writer) error {
			doc, err := json.MarshalIndent(summary, "", "  ")
			if err != nil {
				return err
			}
			_, err = w.Write(append(doc, '\n'))
			return err
		})
		if err != nil {
			return fail(fmt.Errorf("timing: %w", err))
		}
	}
	return 0
}

// writeArtifact renders one JSON artifact to path, or to stderr when
// path is "-".
func writeArtifact(path string, stderr io.Writer, render func(io.Writer) error) error {
	if path == "-" {
		return render(stderr)
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
