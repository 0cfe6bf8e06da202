// Package harness runs workloads on configured GPU design points and
// regenerates every table and figure of the paper's motivation and
// evaluation sections (see DESIGN.md for the experiment index).
package harness

import (
	"context"
	"fmt"
	"slices"

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
	// claimOrder and panicAt are the engine's test hooks
	// (gpu.GPU.UseClaimOrder, gpu.GPU.PanicInSpanAt), reachable from
	// this package's tests only: the order the span domains claim SMs
	// in, and a cycle whose span makes every SM panic.
	claimOrder []int
	panicAt    int64
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
	Agg      stats.Launch // merged across the run's launches
	Launches int
	// Detailed always equals Launches: every launch runs on the timing
	// model. It stays in the encoding only because the disk-cache
	// entries, cawaserve replies and cawaperf's result digests all hash
	// or serve json.Marshal(Result); drop it at the next EngineVersion
	// bump.
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
		for _, w := range s.L1D().Warps() {
			if w.Accesses != 0 {
				r.WarpL1Accesses[w.GID] += w.Accesses
			}
			if w.Hits != 0 {
				r.WarpL1Hits[w.GID] += w.Hits
			}
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
	r, _, err := runLaunches(ctx, opt, false, nil)
	return r, err
}

// runLaunches is the one launch loop behind Run, RunContext and
// RunCheckpointed. Every launch of the workload takes exactly one of
// three paths: functional replay (the prefix a warm checkpoint already
// covers), restore-and-resume (the launch warm was captured in), or a
// detailed launch from cycle zero.
//
// checkpointed enables resuming from warm and the one capture a run
// takes: when ctx stops a detailed launch, the GPU still holds that
// launch's state at the span boundary where the engine polled ctx (see
// gpu.GPU.Launch), and the returned WarmCheckpoint records it. Nothing
// mutates res after the stop, so the checkpoint's Partial needs no copy.
// No run installs a hook of its own: g.PerCycle and g.PerCycleWake stay
// exactly as the caller set them.
func runLaunches(ctx context.Context, opt RunOptions, checkpointed bool, warm *WarmCheckpoint) (*Result, *WarmCheckpoint, error) {
	wl, g, res, err := setupRun(&opt)
	if err != nil {
		return nil, nil, err
	}
	meta := checkpoint.Meta{
		EngineVersion: EngineVersion,
		Workload:      opt.Workload,
		Scale:         opt.Params.Scale,
		Seed:          opt.Params.Seed,
	}
	if checkpointed {
		if meta.SystemKey, err = opt.System.Key(); err != nil {
			return nil, nil, err
		}
	}
	resumeAt := -1
	if checkpointed && warm != nil && warm.compatible(meta) {
		resumeAt = warm.Snap.Meta.LaunchIndex
	}
	fail := func(err error) error {
		return fmt.Errorf("harness: %s on %s: %w", opt.Workload, opt.System.Label(), err)
	}

	ix := 0
	for ; ; ix++ {
		k, ok := wl.Next()
		if !ok {
			break
		}
		var launch *stats.Launch
		switch {
		case ix < resumeAt:
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			if err := checkpoint.FunctionalLaunch(k, wl.Mem(), opt.Config.WarpSize); err != nil {
				return nil, nil, fail(err)
			}
			res.Launches++
			continue
		case ix == resumeAt:
			// The completed launches' statistics come from the
			// checkpoint, replacing whatever the replayed prefix counted.
			if err := checkpoint.Restore(warm.Snap, g, k); err != nil {
				return nil, nil, fail(fmt.Errorf("checkpoint restore: %w", err))
			}
			res.Agg = warm.Partial.Agg
			// Merge appends: never into the checkpoint's array.
			res.Agg.Warps = slices.Clip(res.Agg.Warps)
			res.Launches, res.Detailed = warm.Partial.Launches, warm.Partial.Detailed
			launch, err = g.Resume(ctx)
		default:
			launch, err = g.Launch(ctx, k)
		}
		if err != nil {
			var last *WarmCheckpoint
			if checkpointed && ctx.Err() != nil {
				meta.LaunchIndex = ix
				if snap, cerr := checkpoint.Capture(g, meta); cerr == nil {
					partial := *res
					partial.GPU = nil
					last = &WarmCheckpoint{Partial: partial, Snap: snap}
				}
			}
			return nil, last, fail(err)
		}
		res.Agg.Merge(launch)
		res.Launches++
		res.Detailed++
	}
	if ix <= resumeAt {
		return nil, nil, fail(fmt.Errorf("checkpoint launch index %d beyond workload launch count %d", resumeAt, ix))
	}
	if err := wl.Verify(); err != nil {
		return nil, nil, fail(fmt.Errorf("verification failed: %w", err))
	}
	res.snapshotGPU(g)
	return res, nil, nil
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
	if opt.AttachL1 == nil && opt.System.ProviderOverride == nil {
		g.SMWorkers = opt.SMWorkers
	}
	if opt.tickedOracle {
		g.UseTickedOracle()
	}
	g.UseClaimOrder(opt.claimOrder)
	g.PanicInSpanAt(opt.panicAt)

	res := &Result{Workload: opt.Workload, System: opt.System.Label(), GPU: g}
	res.Agg.Kernel = opt.Workload
	return wl, g, res, nil
}
