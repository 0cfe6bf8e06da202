package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"cawa/internal/config"
	"cawa/internal/core"
	"cawa/internal/obs"
	"cawa/internal/obs/perf"
	"cawa/internal/stats"
	"cawa/internal/workloads"
)

// wallBase anchors WallClock: reading nanoseconds as an offset from
// process start keeps the values on Go's monotonic clock (immune to
// wall-time steps) and small enough to survive any arithmetic the
// profiler does.
var wallBase = time.Now()

// WallClock is the host-backed perf.Clock. It lives in harness — not
// in the profiler or the engine — because cawalint bans wall-clock
// reads in the simulation packages; the harness is the outermost layer
// allowed to know what time it is, and injects it downward.
func WallClock() int64 {
	return int64(time.Since(wallBase))
}

// NewWallProfiler builds a perf.Profiler over the host clock. The
// argument has no effect; it stays so that existing callers keep
// compiling.
func NewWallProfiler(int64) *perf.Profiler {
	return perf.New(WallClock)
}

// PaperApps lists the twelve benchmarks in the paper's Table 2 order:
// the seven scheduler/cache-sensitive applications first.
var PaperApps = []string{
	"bfs", "b+tree", "heartwall", "kmeans", "needle", "srad_1", "strcltr_small",
	"backprop", "particle", "pathfinder", "strcltr_mid", "tpacf",
}

// SensApps returns the paper's Sens benchmarks.
func SensApps() []string { return PaperApps[:7] }

// NonSensApps returns the paper's Non-sens benchmarks.
func NonSensApps() []string { return PaperApps[7:] }

// RunKey names one (application, design point) cell of an experiment's
// run matrix. Experiments declare their matrix up front (see
// Experiment.Requests) so the session can simulate all cells in
// parallel before sequential table construction.
type RunKey struct {
	App    string
	System core.SystemConfig
}

// Session is a concurrent run scheduler: it executes application runs
// on a bounded worker pool (default runtime.NumCPU), caches results,
// and deduplicates concurrent requests for the same (app, design
// point) so each cell simulates exactly once (singleflight). All
// methods are safe for concurrent use. Each simulation is fully
// self-contained (per-instance GPU, memory image and workload RNG), so
// results are deterministic regardless of worker count or completion
// order.
type Session struct {
	// Config is the simulated architecture; defaults to GTX480.
	Config config.Config
	// Params scales workloads; defaults to workloads.DefaultParams.
	Params workloads.Params
	// Apps, when non-nil, restricts the application set experiments
	// iterate over (default: PaperApps). Reduced-scale tests use it to
	// run a figure on a subset of benchmarks.
	Apps []string
	// Disk, when non-nil, backs the in-memory result cache with a
	// persistent content-addressed store: misses consult it before
	// simulating, and fresh results are written through, so restarts and
	// repeated campaigns skip re-simulation (see DiskCache).
	Disk *DiskCache

	mu       sync.Mutex
	cache    map[string]*flight
	sem      chan struct{}
	smpar    int // target span domains per run (<=1: the caller's goroutine only)
	profile  bool
	perfAgg  *perf.Profiler  // merged profile across runs; nil until profiling enabled
	records  []obs.RunRecord // one per simulation; append-only, so views of it stay valid (runs)
	hits     uint64          // Run requests served from the in-memory cache
	misses   uint64          // Run requests that missed the in-memory cache
	diskHits uint64          // misses answered by the disk cache without simulating
	// diskWriteErrors counts result write-throughs the disk cache
	// refused (a full or vanished directory): the run still succeeds.
	diskWriteErrors uint64
	// warmResumes counts simulations that warm-started from a persisted
	// checkpoint instead of beginning at cycle zero.
	warmResumes uint64
	started     time.Time

	// runFn, when non-nil, replaces RunContext as the simulation
	// executor. It is a seam for tests (injected failures, controlled
	// run durations); production code never sets it.
	runFn func(ctx context.Context, opt RunOptions) (*Result, error)
}

// flight is one singleflight cache slot: the first requester simulates
// and closes done; later requesters block on done and share the result.
type flight struct {
	done chan struct{}
	res  *Result
	err  error

	// The result's one encoding, json.Marshal(res), made by the first
	// caller that needs it — or taken from a disk entry that proved it
	// holds those bytes — and shared by every later one: the disk
	// write-through and every reply of a service send these bytes.
	encodeOnce sync.Once
	encoded    []byte
	encodeErr  error
}

// encoding returns the successful flight's canonical encoding. The
// slice is shared; callers must not modify or append to it.
func (f *flight) encoding() ([]byte, error) {
	f.encodeOnce.Do(func() { f.encoded, f.encodeErr = json.Marshal(f.res) })
	return f.encoded, f.encodeErr
}

// NewSession builds a Session with the given architecture and workload
// scaling, sized to runtime.NumCPU workers.
func NewSession(cfg config.Config, p workloads.Params) *Session {
	return &Session{
		Config:  cfg,
		Params:  p,
		cache:   make(map[string]*flight),
		sem:     make(chan struct{}, runtime.NumCPU()),
		started: time.Now(),
	}
}

// SetWorkers bounds the number of simulations in flight (values below 1
// clamp to 1) and returns the session for chaining. Runs already
// holding a slot finish under the previous bound.
func (s *Session) SetWorkers(n int) *Session {
	if n < 1 {
		n = 1
	}
	s.mu.Lock()
	s.sem = make(chan struct{}, n)
	s.mu.Unlock()
	return s
}

// Workers returns the current worker-pool bound.
func (s *Session) Workers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return cap(s.sem)
}

// SMParallel asks every run the session launches to share its spans
// between up to n domains (results are byte-identical, see
// gpu.GPU.SMWorkers). Values <= 1 keep every run on one goroutine.
//
// Run-level and SM-level parallelism are budgeted from the same worker
// pool: a run always holds its base slot and opportunistically claims
// up to n-1 extra slots for its helper domains, returning them when it
// finishes. Total concurrency therefore never exceeds Workers() — when
// the pool is saturated by runs, every run degrades gracefully to one
// domain, and when runs are scarce (the tail of a sweep, a single
// cache-miss request in cawaserve) the idle slots accelerate the runs
// still in flight.
func (s *Session) SMParallel(n int) *Session {
	s.mu.Lock()
	s.smpar = n
	s.mu.Unlock()
	return s
}

// EnableProfiling turns on engine self-profiling for every subsequent
// run: each simulation gets a private wall-clock perf.Profiler (no
// cross-run sharing — domain workers of concurrent runs must never
// write one accumulator) whose totals merge into a session-wide
// profile when the run finishes. Chainable. Profiling is observational
// only — results stay byte-identical — so the result cache is not
// keyed on it; note that cache and disk hits skip simulation entirely
// and therefore contribute nothing to the profile.
func (s *Session) EnableProfiling() *Session {
	s.mu.Lock()
	s.profile = true
	if s.perfAgg == nil {
		s.perfAgg = NewWallProfiler(0)
	}
	s.mu.Unlock()
	return s
}

// PerfReport snapshots the session-wide merged engine profile, or nil
// when EnableProfiling was never called.
func (s *Session) PerfReport() *perf.Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.perfAgg == nil {
		return nil
	}
	return s.perfAgg.Report()
}

// SetRunFunc replaces the simulation executor with fn (nil restores
// the default, RunContext). This is a seam for harness- and
// service-level tests that need injected failures or runs whose
// duration they control; it must never be set in production code.
func (s *Session) SetRunFunc(fn func(ctx context.Context, opt RunOptions) (*Result, error)) {
	s.mu.Lock()
	s.runFn = fn
	s.mu.Unlock()
}

// acquire claims one base worker slot (blocking until one frees or ctx
// dies) plus up to extra additional slots claimed opportunistically
// (non-blocking), all from the same semaphore so run-level and
// SM-level concurrency share one budget. It returns the total number
// of slots held and their release func.
func (s *Session) acquire(ctx context.Context, extra int) (held int, release func(), err error) {
	s.mu.Lock()
	sem := s.sem
	s.mu.Unlock()
	select {
	case sem <- struct{}{}:
		held = 1
	case <-ctx.Done():
		return 0, nil, ctx.Err()
	}
	for held-1 < extra {
		select {
		case sem <- struct{}{}:
			held++
		default:
			extra = 0 // pool saturated; stop asking
		}
	}
	n := held
	return held, func() {
		for i := 0; i < n; i++ {
			<-sem
		}
	}, nil
}

// simulate executes one run under the worker-pool bound and records a
// manifest entry with its wall-clock cost and outcome.
//
// Checkpointing is on exactly when there is a disk to persist to: with
// disk non-nil the run warm-starts from the checkpoint an earlier cut
// run left under ckptKey (stale engine versions and damaged blobs read
// back as misses), and when ctx cuts it short it persists the
// checkpoint of the stop so the next attempt resumes at that very
// cycle. A warm start that fails for any reason but ctx costs
// a cold start, never the run: the artifact is removed and the run
// repeated once from cycle zero. Either way the engine's hooks stay
// exactly as opt set them. A SetRunFunc seam replaces the engine
// entirely, so it runs without checkpointing.
//
// A panic on the simulating goroutine — the engine's or a SetRunFunc
// function's — becomes the run's error: the flight fails and is
// evicted like any other, the process lives. That includes a panic on
// one of the engine's helper domains (-smpar > 1): the engine recovers
// it there and re-panics it on this goroutine once the span has ended
// (gpu/domains.go).
func (s *Session) simulate(ctx context.Context, opt RunOptions, disk *DiskCache, ckptKey string) (*Result, error) {
	s.mu.Lock()
	smpar := s.smpar
	profile := s.profile
	s.mu.Unlock()
	extra := 0
	if smpar > 1 && opt.SMWorkers == 0 {
		extra = smpar - 1
	}
	held, release, err := s.acquire(ctx, extra)
	if err != nil {
		return nil, err
	}
	if extra > 0 {
		// The run's domain count is however many slots the pool could
		// spare right now (>= 1). Results are byte-identical at any
		// count, so the cache never keys on it.
		opt.SMWorkers = held
	}
	if profile && opt.Profiler == nil {
		// One private profiler per run: concurrent runs must not share
		// an accumulator (domain workers write per-shard slots). The
		// totals merge into the session profile below.
		opt.Profiler = NewWallProfiler(0)
	}
	s.mu.Lock()
	run := s.runFn
	s.mu.Unlock()
	checkpointed := disk != nil && run == nil
	var warm *WarmCheckpoint
	if checkpointed {
		var ok bool
		if warm, ok = disk.LoadCheckpoint(ckptKey); ok {
			s.mu.Lock()
			s.warmResumes++
			s.mu.Unlock()
		}
	}
	// attempt runs the simulation once. A panic on this goroutine ends
	// the attempt with an error instead of the process.
	attempt := func() (r *Result, last *WarmCheckpoint, err error) {
		defer func() {
			if p := recover(); p != nil {
				r, last, err = nil, nil, fmt.Errorf("harness: %s on %s: simulation panicked: %v", opt.Workload, opt.System.Label(), p)
			}
		}()
		if run != nil {
			r, err = run(ctx, opt)
			return r, nil, err
		}
		return runLaunches(ctx, opt, checkpointed, warm)
	}
	start := time.Now()
	r, last, err := attempt()
	if err != nil && warm != nil && ctx.Err() == nil {
		// The warm start failed and the caller did not cut it short: the
		// artifact is the suspect (it passed its digest but does not fit
		// this run). It must cost a cold start, never the run — drop it
		// and run again from cycle zero, on a fresh workload and GPU (the
		// failed attempt replayed launches into the old memory).
		disk.RemoveCheckpoint(ckptKey)
		warm = nil
		r, last, err = attempt()
	}
	elapsed := time.Since(start)
	release()
	if last != nil {
		// ctx cut the run short; persist where it stopped so the next
		// attempt resumes there. Best-effort like the result
		// write-through.
		disk.StoreCheckpoint(ckptKey, last) //nolint:errcheck
	}
	if profile && opt.Profiler != nil {
		s.mu.Lock()
		if s.perfAgg != nil {
			s.perfAgg.Merge(opt.Profiler)
		}
		s.mu.Unlock()
	}
	rec := obs.RunRecord{
		App:     opt.Workload,
		System:  opt.System.Label(),
		Seconds: elapsed.Seconds(),
	}
	if key, kerr := opt.System.Key(); kerr == nil {
		rec.SystemKey = key
	} else {
		rec.SystemKey = rec.System
	}
	switch {
	case err != nil:
		rec.Err = err.Error()
	default:
		rec.Launches = r.Launches
		rec.Cycles = r.Agg.Cycles
		rec.Instrs = r.Agg.Instructions
		rec.IPC = r.Agg.IPC()
		rec.Warps = len(r.Agg.Warps)
	}
	s.mu.Lock()
	s.records = append(s.records, rec)
	s.mu.Unlock()
	return r, err
}

// Run simulates (or returns the cached) application run on the design
// point. Concurrent calls with the same key share one simulation.
func (s *Session) Run(app string, sc core.SystemConfig) (*Result, error) {
	return s.RunContext(context.Background(), app, sc)
}

// RunContext is Run with cancellation: if ctx dies while the request is
// queued for a worker slot, waiting on another caller's in-flight
// simulation, or mid-simulation, the call returns ctx's error promptly.
//
// Failure handling: a flight that ends in an error — including a
// cancellation — is evicted from the cache before its waiters are
// released, so one transient failure never poisons the (app, design
// point) for the session's lifetime; the next request re-simulates.
// Waiters sharing the failed flight receive its error (standard
// singleflight semantics), but a waiter whose own ctx dies first
// detaches with its own ctx error and leaves the flight untouched.
//
// Successful results are cached with their GPU reference dropped
// (Result.ReleaseGPU): a long-running session holds only the
// snapshotted statistics, never the runs' memory images.
func (s *Session) RunContext(ctx context.Context, app string, sc core.SystemConfig) (*Result, error) {
	f, err := s.lookup(ctx, app, sc)
	if err != nil {
		return nil, err
	}
	return f.res, f.err
}

// RunJSON is RunContext answering with the result's canonical encoding,
// json.Marshal of the *Result RunContext returns for the same key. The
// encoding is made once per cached result and the same slice is handed
// to every caller: it must not be modified or appended to. A session
// with a Disk writes exactly these bytes into the entry. A result
// loaded from disk is served as the entry's own bytes only when the
// strict entry decoder proved them canonical; any other parsable file
// is encoded afresh, so a non-canonical file is never passed on
// verbatim.
func (s *Session) RunJSON(ctx context.Context, app string, sc core.SystemConfig) ([]byte, error) {
	f, err := s.lookup(ctx, app, sc)
	if err != nil {
		return nil, err
	}
	if f.err != nil {
		return nil, f.err
	}
	return f.encoding()
}

// lookup returns the finished cache slot for (app, sc): a cached one,
// one another caller is filling (waited for), or a new one this call
// fills from the disk cache or a simulation. The error is the caller's
// own — an invalid design point or ctx dying while it waits — and the
// flight's outcome is in its res and err.
func (s *Session) lookup(ctx context.Context, app string, sc core.SystemConfig) (*flight, error) {
	sysKey, err := sc.Key()
	if err != nil {
		return nil, fmt.Errorf("harness: %s: %w", app, err)
	}
	key := app + "|" + sysKey
	s.mu.Lock()
	if s.cache == nil {
		s.cache = make(map[string]*flight)
	}
	if f, ok := s.cache[key]; ok {
		s.hits++
		s.mu.Unlock()
		select {
		case <-f.done:
			return f, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	s.cache[key] = f
	s.misses++
	disk := s.Disk
	s.mu.Unlock()
	defer close(f.done)

	var entryKey, ckptKey string
	if disk != nil {
		entryKey = disk.EntryKey(app, sysKey, s.Params, s.Config)
		if res, encoded, ok := disk.load(entryKey); ok {
			s.mu.Lock()
			s.diskHits++
			s.mu.Unlock()
			f.res = res
			if encoded != nil {
				// The entry proved these bytes are json.Marshal(res).
				f.encodeOnce.Do(func() { f.encoded = encoded })
			}
			return f, nil
		}
		ckptKey = disk.CheckpointKey(entryKey)
	}

	opt := RunOptions{Workload: app, Params: s.Params, System: sc, Config: s.Config}
	f.res, f.err = s.simulate(ctx, opt, disk, ckptKey)
	if f.err != nil {
		// Evict before releasing waiters: a retry must re-simulate
		// rather than observe the stale error as a cache "hit".
		s.mu.Lock()
		if s.cache[key] == f {
			delete(s.cache, key)
		}
		s.mu.Unlock()
		return f, nil
	}
	f.res.ReleaseGPU()
	if disk != nil {
		// Write-through is best-effort: a full or read-only disk
		// degrades to in-memory caching, never to a failed run. The
		// entry embeds the flight's own encoding, so it costs no
		// second marshal.
		if data, err := f.encoding(); err == nil {
			if disk.storeJSON(entryKey, data) != nil {
				s.mu.Lock()
				s.diskWriteErrors++
				s.mu.Unlock()
			}
		}
		// The final result supersedes any warm checkpoint.
		disk.RemoveCheckpoint(ckptKey)
	}
	return f, nil
}

// RunUncached executes one run under the session's worker-pool bound
// without touching the result cache. Experiments whose runs carry
// per-run instrumentation (PerCycle samplers, AttachL1 taps) use it so
// hooked runs still respect -j and appear in the timing summary. Zero
// Params/Config fields default to the session's.
func (s *Session) RunUncached(opt RunOptions) (*Result, error) {
	if opt.Params == (workloads.Params{}) {
		opt.Params = s.Params
	}
	if opt.Config.NumSMs == 0 {
		opt.Config = s.Config
	}
	return s.simulate(context.Background(), opt, nil, "")
}

// Prewarm simulates every key of the run matrix across the worker
// pool, deduplicating against the cache and against concurrent
// requests, and returns the first (lowest-index) error.
func (s *Session) Prewarm(keys []RunKey) error {
	return s.Fanout(len(keys), func(i int) error {
		_, err := s.Run(keys[i].App, keys[i].System)
		return err
	})
}

// Fanout runs fn(0) … fn(n-1) concurrently and returns the
// lowest-index error (deterministic under nondeterministic completion
// order). fn bodies self-limit through Run/RunUncached, so Fanout
// itself imposes no bound and nested fan-outs cannot deadlock the
// pool.
func (s *Session) Fanout(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Timings returns the record of every simulation the session's worker
// pool executed, in completion order (cache hits and singleflight
// waiters are not recorded — each simulation appears exactly once).
// The slice is a read-only view of the session's log: callers must
// not modify its elements.
func (s *Session) Timings() []obs.RunRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs()
}

// runs returns the records as a view capped at their current length,
// so the session's later appends never show through it. Callers hold
// s.mu.
func (s *Session) runs() []obs.RunRecord {
	return s.records[:len(s.records):len(s.records)]
}

// CacheStats returns how many Session.Run requests were served from
// the result cache (including singleflight waiters) versus simulated.
func (s *Session) CacheStats() (hits, misses uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses
}

// DiskHits returns how many in-memory cache misses were answered by
// the persistent disk cache without simulating.
func (s *Session) DiskHits() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.diskHits
}

// DiskWriteErrors returns how many result write-throughs to the disk
// cache failed. Each such result is still served from memory, but a
// restart will simulate it again.
func (s *Session) DiskWriteErrors() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.diskWriteErrors
}

// WarmResumes reports how many simulations warm-started from a
// persisted checkpoint instead of beginning at cycle zero.
func (s *Session) WarmResumes() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.warmResumes
}

// Manifest snapshots the session — architecture, workload scaling,
// worker count, cache effectiveness, and every simulation executed so
// far — as one observability document. Its Runs is the read-only view
// Timings returns, not a copy, so a caller that reads only the counters
// pays nothing for a long session.
func (s *Session) Manifest() *obs.Manifest {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &obs.Manifest{
		Architecture:    s.Config.Name,
		NumSMs:          s.Config.NumSMs,
		Scale:           s.Params.Scale,
		Seed:            s.Params.Seed,
		Workers:         cap(s.sem),
		CacheHits:       s.hits,
		CacheMisses:     s.misses,
		DiskHits:        s.diskHits,
		DiskWriteErrors: s.diskWriteErrors,
		WallSeconds:     time.Since(s.started).Seconds(),
		Runs:            s.runs(),
	}
}

// paperApps is the application set experiments iterate over: the
// session's Apps restriction, or the full paper list.
func (s *Session) paperApps() []string {
	if s.Apps != nil {
		return s.Apps
	}
	return PaperApps
}

// sensApps restricts SensApps to the session's application set.
func (s *Session) sensApps() []string {
	if s.Apps == nil {
		return SensApps()
	}
	var out []string
	for _, a := range s.Apps {
		if isSens(a) {
			out = append(out, a)
		}
	}
	return out
}

// Baseline returns the cached round-robin run of app.
func (s *Session) Baseline(app string) (*Result, error) {
	return s.Run(app, core.Baseline())
}

// OracleFor profiles app under the baseline scheduler and returns the
// per-warp execution times used as oracle criticality by CAWS.
func (s *Session) OracleFor(app string) (map[int]float64, error) {
	r, err := s.Baseline(app)
	if err != nil {
		return nil, err
	}
	oracle := make(map[int]float64, len(r.Agg.Warps))
	for _, w := range r.Agg.Warps {
		oracle[w.GID] = float64(w.ExecTime())
	}
	return oracle, nil
}

// matrix builds the cross product of apps and design points as a run
// matrix for Prewarm.
func matrix(apps []string, systems ...core.SystemConfig) []RunKey {
	keys := make([]RunKey, 0, len(apps)*len(systems))
	for _, app := range apps {
		for _, sc := range systems {
			keys = append(keys, RunKey{App: app, System: sc})
		}
	}
	return keys
}

// CriticalGIDs returns, for a finished run, the global warp id of the
// slowest (critical) warp of every block with at least minWarps warps.
func CriticalGIDs(agg *stats.Launch, minWarps int) map[int]bool {
	out := make(map[int]bool)
	for _, ws := range agg.BlockGroup() {
		if len(ws) < minWarps {
			continue
		}
		out[stats.CriticalWarp(ws).GID] = true
	}
	return out
}

// pickBlock selects the block with the highest warp execution time
// disparity among blocks with at least minWarps warps, returning its
// warp records sorted fastest-first.
func pickBlock(agg *stats.Launch, minWarps int) []stats.WarpRecord {
	groups := agg.BlockGroup()
	ids := make([]int, 0, len(groups))
	for id, ws := range groups {
		if len(ws) >= minWarps {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		for id := range groups {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	best, bestD := -1, -1.0
	for _, id := range ids {
		if d := stats.BlockDisparity(groups[id]); d > bestD {
			best, bestD = id, d
		}
	}
	if best < 0 {
		return nil
	}
	return stats.SortedByExecTime(groups[best])
}
