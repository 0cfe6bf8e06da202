// Package harness runs workloads on configured GPU design points and
// regenerates every table and figure of the paper's motivation and
// evaluation sections (see DESIGN.md for the experiment index).
package harness

import (
	"context"
	"fmt"

	"cawa/internal/checkpoint"
	"cawa/internal/config"
	"cawa/internal/core"
	"cawa/internal/gpu"
	"cawa/internal/memsys"
	"cawa/internal/obs/perf"
	"cawa/internal/stats"
	"cawa/internal/workloads"
)

// RunOptions describes one simulated application run.
type RunOptions struct {
	// Workload is a registered workload name.
	Workload string
	// Params tunes the workload size and seed (zero value = defaults).
	Params workloads.Params
	// System is the design point (scheduler / CPL / CACP combination).
	System core.SystemConfig
	// Config is the architecture; zero value means config.GTX480().
	Config config.Config
	// AttachL1, when set, is called for every SM's L1D before the run
	// (profiler taps).
	AttachL1 func(smID int, l1 *memsys.L1D)
	// PerCycle, when set, observes the GPU after every span of the
	// engine — after every cycle unless PerCycleWake is also provided
	// (see gpu.GPU.PerCycle).
	PerCycle func(g *gpu.GPU, cycle int64)
	// PerCycleWake, when set alongside PerCycle, tells the engine the
	// next cycle the hook must observe, so spans end there (for
	// cadenced samplers: obs.Sampler.NextWake).
	PerCycleWake func(now int64) int64
	// SMWorkers is the number of domains that share each span of the
	// engine (see gpu.GPU.SMWorkers): values above 1 run all but the
	// first on goroutines of their own. Results are byte-identical at
	// any value. Runs that attach observers which may share state
	// between SMs (AttachL1 taps, a ProviderOverride) always run on one
	// domain — the caller's goroutine — whatever this says.
	SMWorkers int
	// Profiler, when non-nil, self-profiles the engine's wall-clock
	// phases into the given accumulator (see gpu.GPU.Perf and
	// internal/obs/perf). Observational only: simulation results are
	// byte-identical with or without it (TestProfilerEquivalence).
	Profiler *perf.Profiler

	// tickedOracle runs the launch loop's tick-every-cycle reference
	// instead of the span engine (gpu.GPU.UseTickedOracle). Reachable
	// from this package's tests only.
	tickedOracle bool

	// SampleWarmup and SampleInterval enable SimPoint-style sampled
	// simulation over the workload's launch sequence. Sampling is active
	// when SampleInterval > 1: launch index ix runs on the detailed
	// timing model iff ix < SampleWarmup (the cache/predictor warmup
	// prefix) or (ix-SampleWarmup)%SampleInterval == 0 (the periodic
	// sample windows); every other launch executes functionally
	// (checkpoint.FunctionalLaunch) — exact memory effects, no timing.
	// Verify stays exact under sampling; Agg covers only the detailed
	// launches (Result.Detailed counts them). See DESIGN.md for the
	// sampling error budget.
	SampleWarmup   int
	SampleInterval int
}

// sampleDetailed reports whether launch ix runs on the detailed timing
// model under the given sampling parameters.
func sampleDetailed(ix, warmup, interval int) bool {
	if interval <= 1 {
		return true
	}
	return ix < warmup || (ix-warmup)%interval == 0
}

// Result is the outcome of one application run. Everything experiments
// read after the fact is snapshotted into plain serializable fields at
// run end (Agg, Spans, the per-warp L1 tallies), so a Result can be
// cached, JSON-encoded for the disk cache or the serving layer, and
// held for a session's lifetime without pinning the run's GPU — whose
// memory image, caches and MSHRs dwarf the statistics by orders of
// magnitude. Session-cached results have GPU nil (see ReleaseGPU);
// only direct Run/RunUncached callers get the live GPU for deeper
// post-run inspection.
type Result struct {
	Workload string
	System   string
	Agg      stats.Launch // merged across detailed launches
	Launches int
	// Detailed counts the launches that ran on the timing model. Equal
	// to Launches unless sampled simulation was active (RunOptions
	// SampleWarmup/SampleInterval); Agg covers only these.
	Detailed int

	// Spans are the cycle windows of the run's kernel launches
	// (snapshot of gpu.GPU.Spans).
	Spans []gpu.LaunchSpan

	// WarpL1Accesses and WarpL1Hits pool each warp's L1D accesses and
	// hits across SMs by global warp id — the counters behind the
	// critical-warp hit-rate analysis (Figure 14).
	WarpL1Accesses map[int32]uint64
	WarpL1Hits     map[int32]uint64

	// GPU allows post-run inspection (cache tag state, policies,
	// providers) on directly executed runs. It is nil on session-cached
	// results and excluded from serialization.
	GPU *gpu.GPU `json:"-"`
}

// ReleaseGPU drops the result's reference to the run's GPU so the
// memory image, cache arrays and MSHRs become collectable. The
// snapshotted statistics remain valid. The session's result cache calls
// this on every entry it retains.
func (r *Result) ReleaseGPU() { r.GPU = nil }

// snapshotGPU fills the serializable post-run fields from the GPU.
func (r *Result) snapshotGPU(g *gpu.GPU) {
	r.Spans = append([]gpu.LaunchSpan(nil), g.Spans...)
	r.WarpL1Accesses = make(map[int32]uint64)
	r.WarpL1Hits = make(map[int32]uint64)
	for _, s := range g.SMs() {
		l1 := s.L1D()
		for gid, a := range l1.WarpAccesses {
			r.WarpL1Accesses[gid] += a
		}
		for gid, h := range l1.WarpHits {
			r.WarpL1Hits[gid] += h
		}
	}
}

// Run executes the workload to completion on the design point.
func Run(opt RunOptions) (*Result, error) {
	return RunContext(context.Background(), opt)
}

// RunContext executes the workload to completion on the design point,
// honoring ctx: cancellation or deadline expiry aborts the simulation
// mid-kernel (checked cheaply inside gpu.Launch) and returns ctx's
// error. A cancelled run's partial state is discarded entirely.
func RunContext(ctx context.Context, opt RunOptions) (*Result, error) {
	return runLaunches(ctx, opt, nil, nil)
}

// runLaunches is the one launch loop behind Run, RunContext and
// RunCheckpointed. Every launch of the workload takes exactly one of
// three paths: functional replay (the prefix a warm checkpoint already
// covers, and the launches sampled simulation skips), restore-and-resume
// (the launch warm was captured in), or a detailed launch from cycle
// zero.
//
// ck, when non-nil, captures periodic checkpoints (the caller reads
// ck.last after an error) and enables resuming from warm. A nil ck leaves
// g.PerCycle and g.PerCycleWake exactly as the caller set them, so an
// uninstrumented run's spans are never clamped by a hook.
func runLaunches(ctx context.Context, opt RunOptions, ck *checkpointer, warm *WarmCheckpoint) (*Result, error) {
	var sysKey string
	if ck != nil {
		// The design point's identity as requested: setupRun's CCWS
		// auto-wiring adds a ProviderOverride, which has no stable key.
		var err error
		if sysKey, err = opt.System.Key(); err != nil {
			return nil, err
		}
	}
	wl, g, res, err := setupRun(&opt)
	if err != nil {
		return nil, err
	}
	resumeAt := -1
	if ck != nil {
		ck.attach(g, res, &opt, sysKey)
		if warm != nil && warm.compatible(ck.meta) {
			resumeAt = warm.Snap.Meta.LaunchIndex
		}
	}
	fail := func(err error) (*Result, error) {
		return nil, fmt.Errorf("harness: %s on %s: %w", opt.Workload, opt.System.Label(), err)
	}

	ix := 0
	for ; ; ix++ {
		k, ok := wl.Next()
		if !ok {
			break
		}
		if ck != nil {
			ck.meta.LaunchIndex = ix
		}
		var launch *stats.Launch
		switch {
		case ix < resumeAt || !sampleDetailed(ix, opt.SampleWarmup, opt.SampleInterval):
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := checkpoint.FunctionalLaunch(k, wl.Mem(), opt.Config.WarpSize); err != nil {
				return fail(err)
			}
			res.Launches++
			continue
		case ix == resumeAt:
			// The completed launches' statistics come from the
			// checkpoint, replacing whatever the replayed prefix counted.
			if err := checkpoint.Restore(warm.Snap, g, k); err != nil {
				return fail(fmt.Errorf("checkpoint restore: %w", err))
			}
			res.Agg = cloneAgg(warm.Partial.Agg)
			res.Launches, res.Detailed = warm.Partial.Launches, warm.Partial.Detailed
			ck.nextCap = warm.Snap.Meta.Cycle + ck.every
			launch, err = g.Resume(ctx)
		default:
			launch, err = g.Launch(ctx, k)
		}
		if err != nil {
			return fail(err)
		}
		res.Agg.Merge(launch)
		res.Launches++
		res.Detailed++
	}
	if ix <= resumeAt {
		return fail(fmt.Errorf("checkpoint launch index %d beyond workload launch count %d", resumeAt, ix))
	}
	if err := wl.Verify(); err != nil {
		return fail(fmt.Errorf("verification failed: %w", err))
	}
	res.snapshotGPU(g)
	return res, nil
}

// setupRun builds the workload, the GPU, and an empty Result for one
// run, wiring the hooks and the domain count.
func setupRun(opt *RunOptions) (workloads.Workload, *gpu.GPU, *Result, error) {
	if opt.Params == (workloads.Params{}) {
		opt.Params = workloads.DefaultParams()
	}
	if opt.Config.NumSMs == 0 {
		opt.Config = config.GTX480()
	}
	wl, err := workloads.New(opt.Workload, opt.Params)
	if err != nil {
		return nil, nil, nil, err
	}
	// The CCWS baseline needs per-SM providers observing their L1Ds;
	// wire them automatically unless the caller already supplied a
	// ProviderOverride. Precedence: an explicit ProviderOverride always
	// wins (no auto-wiring, no AttachL1 hijack); otherwise only the
	// provider factory and the L1 attachment are filled in — every
	// other System field (CACP, CACPConfig, Variant, ...) keeps the
	// caller's semantics. Documented by TestCCWSAutoWiringPrecedence.
	if opt.System.Scheduler == "ccws" && opt.System.ProviderOverride == nil {
		sc, attach := core.CCWSSystem()
		opt.System.ProviderOverride = sc.ProviderOverride
		userAttach := opt.AttachL1
		opt.AttachL1 = func(smID int, l1 *memsys.L1D) {
			attach(smID, l1)
			if userAttach != nil {
				userAttach(smID, l1)
			}
		}
	}
	g, err := opt.System.NewGPU(opt.Config, wl.Mem())
	if err != nil {
		return nil, nil, nil, err
	}
	if opt.AttachL1 != nil {
		for i, s := range g.SMs() {
			opt.AttachL1(i, s.L1D())
		}
	}
	g.PerCycle = opt.PerCycle
	g.PerCycleWake = opt.PerCycleWake
	g.Perf = opt.Profiler
	// Observers attached through caller closures may share state between
	// SMs, so those runs keep every SM on the caller's goroutine.
	// Evaluated after the CCWS auto-wiring above, whose per-SM providers
	// are attached the same way.
	if opt.AttachL1 == nil && opt.System.ProviderOverride == nil {
		g.SMWorkers = opt.SMWorkers
	}
	if opt.tickedOracle {
		g.UseTickedOracle()
	}

	res := &Result{Workload: opt.Workload, System: opt.System.Label(), GPU: g}
	res.Agg.Kernel = opt.Workload
	return wl, g, res, nil
}
