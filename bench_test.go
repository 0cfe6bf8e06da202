package cawa

// Benchmark harness: one testing.B benchmark per paper table/figure
// (see the per-experiment index in DESIGN.md). Each benchmark runs the
// corresponding experiment end-to-end on a reduced configuration
// (2 SMs, quarter-scale inputs) so the whole suite finishes in
// minutes; `cmd/cawabench -exp <id>` regenerates the full-size tables
// recorded in EXPERIMENTS.md.
//
// Benchmarks report simulated cycles per wall second where meaningful,
// plus experiment-specific headline metrics via b.ReportMetric.

import (
	"runtime"
	"strconv"
	"testing"
)

func benchSession() *Session {
	return NewSession(SmallConfig(), Params{Scale: 0.25, Seed: 7}).
		SetWorkers(runtime.GOMAXPROCS(0))
}

// runExp is the common driver: run the experiment b.N times (sessions
// cache within an iteration but not across, keeping work honest).
func runExp(b *testing.B, id string) *Table {
	b.Helper()
	var tbl *Table
	for i := 0; i < b.N; i++ {
		s := benchSession()
		var err error
		tbl, err = RunExperiment(id, s)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
	return tbl
}

// metric extracts a numeric cell for ReportMetric; the table formats
// numbers itself, so parse back.
func metric(tbl *Table, row, col int) float64 {
	v, err := strconv.ParseFloat(tbl.Value(row, col), 64)
	if err != nil {
		return 0
	}
	return v
}

func BenchmarkFig1Disparity(b *testing.B) {
	tbl := runExp(b, "fig1")
	b.ReportMetric(metric(tbl, tbl.Rows()-1, 0), "avg_disparity")
}

func BenchmarkFig2aImbalance(b *testing.B) { runExp(b, "fig2a") }
func BenchmarkFig2bBranch(b *testing.B)    { runExp(b, "fig2b") }
func BenchmarkFig2cMemory(b *testing.B)    { runExp(b, "fig2c") }

func BenchmarkFig3Reuse(b *testing.B) {
	tbl := runExp(b, "fig3")
	b.ReportMetric(metric(tbl, 1, 0), "frac_evicted_before_reuse")
}

func BenchmarkFig4SchedDelay(b *testing.B) { runExp(b, "fig4") }
func BenchmarkFig8PCReuse(b *testing.B)    { runExp(b, "fig8") }

func BenchmarkFig9Performance(b *testing.B) {
	tbl := runExp(b, "fig9")
	// GMEAN(sens) row: columns 2lvl, gto, cawa.
	b.ReportMetric(metric(tbl, tbl.Rows()-2, 2), "cawa_gmean_sens_speedup")
}

func BenchmarkFig10MPKI(b *testing.B) { runExp(b, "fig10") }

func BenchmarkFig11CPLAccuracy(b *testing.B) {
	tbl := runExp(b, "fig11")
	b.ReportMetric(metric(tbl, tbl.Rows()-1, 0), "avg_accuracy")
}

func BenchmarkFig12PriorityTimeline(b *testing.B) { runExp(b, "fig12") }

func BenchmarkFig13SchedulerBreakdown(b *testing.B) {
	tbl := runExp(b, "fig13")
	b.ReportMetric(metric(tbl, tbl.Rows()-1, 2), "cawa_gmean_speedup")
}

func BenchmarkFig14CriticalHitRate(b *testing.B) {
	tbl := runExp(b, "fig14")
	b.ReportMetric(metric(tbl, tbl.Rows()-1, 1), "cawa_norm_hit_rate")
}

func BenchmarkFig15ZeroReuse(b *testing.B) {
	tbl := runExp(b, "fig15")
	b.ReportMetric(metric(tbl, tbl.Rows()-1, 0), "baseline_zero_reuse")
	b.ReportMetric(metric(tbl, tbl.Rows()-1, 1), "cawa_zero_reuse")
}

func BenchmarkFig16CACPMPKI(b *testing.B) { runExp(b, "fig16") }
func BenchmarkFig17CACPIPC(b *testing.B)  { runExp(b, "fig17") }

func BenchmarkTable1Config(b *testing.B)     { runExp(b, "tab1") }
func BenchmarkTable2Benchmarks(b *testing.B) { runExp(b, "tab2") }

func BenchmarkSec552CPLonGTO(b *testing.B) {
	tbl := runExp(b, "sec552")
	b.ReportMetric(metric(tbl, tbl.Rows()-1, 0), "gcaws_vs_gto_gmean")
}

// Ablation benches for the design decisions called out in DESIGN.md.

func BenchmarkAblationCPLTerms(b *testing.B)  { runExp(b, "abl-cpl") }
func BenchmarkAblationGreedy(b *testing.B)    { runExp(b, "abl-greedy") }
func BenchmarkAblationPartition(b *testing.B) { runExp(b, "abl-partition") }
func BenchmarkAblationSignature(b *testing.B) { runExp(b, "abl-signature") }
func BenchmarkAblationDynPart(b *testing.B)   { runExp(b, "abl-dynpart") }
func BenchmarkExtensionCCWS(b *testing.B)     { runExp(b, "ext-ccws") }

// Parallel sweep throughput: a small run matrix prewarmed across the
// worker pool — the fan-out path cawabench -exp all takes.
func BenchmarkParallelSweep(b *testing.B) {
	keys := []RunKey{
		{App: "bfs", System: Baseline()},
		{App: "bfs", System: SystemConfig{Scheduler: "gto"}},
		{App: "bfs", System: CAWA()},
		{App: "kmeans", System: Baseline()},
		{App: "kmeans", System: SystemConfig{Scheduler: "gto"}},
		{App: "kmeans", System: CAWA()},
	}
	for i := 0; i < b.N; i++ {
		s := NewSession(SmallConfig(), Params{Scale: 0.125, Seed: 7}).
			SetWorkers(runtime.GOMAXPROCS(0))
		if err := s.Prewarm(keys); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
}

// Raw simulator throughput: simulated cycles per second on a
// cache-thrashing workload (kmeans) under the full CAWA design, for
// measuring while you work; cmd/cawaperf is the repository's benchmark
// and carries the per-layer numbers.
//
//	serial-2sm   SmallConfig on one domain
//	serial-15sm  the paper's GTX480 on one domain
//	smpar-15sm   GTX480 with one span domain per available core —
//	             speedup is smpar-15sm / serial-15sm at matching
//	             GOMAXPROCS (the go-test name suffix -N records it)
func BenchmarkSimulatorThroughput(b *testing.B) {
	bench := func(b *testing.B, cfg Config, smWorkers int) {
		var cycles int64
		for i := 0; i < b.N; i++ {
			res, err := RunWith(RunOptions{
				Workload: "kmeans", Params: Params{Scale: 0.125, Seed: 7},
				System: CAWA(), Config: cfg, SMWorkers: smWorkers,
			})
			if err != nil {
				b.Fatal(err)
			}
			cycles += res.Agg.Cycles
		}
		b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim_cycles/s")
	}
	b.Run("serial-2sm", func(b *testing.B) { bench(b, SmallConfig(), 0) })
	b.Run("serial-15sm", func(b *testing.B) { bench(b, GTX480(), 0) })
	b.Run("smpar-15sm", func(b *testing.B) {
		workers := runtime.GOMAXPROCS(0)
		if workers < 2 {
			workers = 2 // keep a helper domain engaged on 1-core hosts
		}
		bench(b, GTX480(), workers)
	})
}
