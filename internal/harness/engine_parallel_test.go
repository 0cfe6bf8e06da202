package harness

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"cawa/internal/cache"
	"cawa/internal/config"
	"cawa/internal/core"
	"cawa/internal/gpu"
	"cawa/internal/memsys"
	"cawa/internal/sm"
)

// waitGoroutines polls until the process goroutine count drops back to
// at most base, failing the test if it never does. Domain workers park
// on channels, so a leak shows up as a stable elevated count.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestParallelEngineCancel cancels a multi-domain run from a PerCycle
// hook mid-kernel and checks that the abort lands before the next span
// and releases every helper goroutine: the runner's deferred stop must
// park-and-join all helpers even though the launch unwinds by error
// return, not by retiring its blocks.
func TestParallelEngineCancel(t *testing.T) {
	const cancelAt = 2000
	const checkCadence = 1 // ctx is polled before every span; this hook makes them one cycle long

	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := RunContext(ctx, RunOptions{
		Workload: "bfs", Params: cancelTestParams,
		System: core.Baseline(), Config: engineMatrixConfig(),
		SMWorkers: 4,
		PerCycle: func(g *gpu.GPU, cycle int64) {
			if cycle == cancelAt {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel mid-run cancel: got %v, want context.Canceled", err)
	}
	aborted, ok := abortCycle(err.Error())
	if !ok {
		t.Fatalf("abort error %q does not record the abort cycle", err)
	}
	if aborted < cancelAt || aborted > cancelAt+checkCadence {
		t.Errorf("aborted at cycle %d; want within %d cycles of the cancel at %d",
			aborted, checkCadence, cancelAt)
	}
	waitGoroutines(t, base)
}

// TestParallelSessionCancelThenRerun is TestSessionCancelThenRerun on
// four domains: a cancelled multi-domain run must evict its flight,
// leak no goroutines, and leave the session producing results
// byte-identical to a one-domain session that never saw the
// cancellation.
func TestParallelSessionCancelThenRerun(t *testing.T) {
	app, sc := "bfs", core.CAWA()
	cfg := engineMatrixConfig()

	base := runtime.NumGoroutine()
	disturbed := NewSession(cfg, cancelTestParams).SetWorkers(4).SMParallel(4)
	disturbed.SetRunFunc(func(ctx context.Context, opt RunOptions) (*Result, error) {
		runCtx, cancel := context.WithCancel(ctx)
		defer cancel()
		opt.PerCycle = func(g *gpu.GPU, cycle int64) {
			if cycle == 3000 {
				cancel()
			}
		}
		return RunContext(runCtx, opt)
	})
	if _, err := disturbed.RunContext(context.Background(), app, sc); !errors.Is(err, context.Canceled) {
		t.Fatalf("injected cancel: got %v, want context.Canceled", err)
	}
	waitGoroutines(t, base)

	// Re-run on the same session: must re-simulate (the flight was
	// evicted, not poisoned) and match a pristine serial session.
	disturbed.SetRunFunc(nil)
	retried, err := disturbed.Run(app, sc)
	if err != nil {
		t.Fatalf("re-run after cancel: %v", err)
	}
	pristine, err := NewSession(cfg, cancelTestParams).Run(app, sc)
	if err != nil {
		t.Fatalf("pristine serial run: %v", err)
	}
	compareResults(t, "parallel-after-cancel", retried, pristine)
}

// TestSessionSharedWorkerBudget pins the over-subscription fix: a
// session's run-level workers and SM-domain goroutines draw from one
// pool, so total concurrency never exceeds SetWorkers(n) no matter how
// runs and domains stack. With 4 slots and SMParallel(2), two runs
// claim 2 slots each (base + one extra for domains) and a third run
// must wait for a base slot rather than push the total to 5.
func TestSessionSharedWorkerBudget(t *testing.T) {
	const workers, smpar = 4, 2
	s := NewSession(config.Small(), cancelTestParams).SetWorkers(workers).SMParallel(smpar)

	var mu sync.Mutex
	var weights []int // opt.SMWorkers of each run, in start order
	inflight, peak := 0, 0
	gate := make(chan struct{})
	s.SetRunFunc(func(ctx context.Context, opt RunOptions) (*Result, error) {
		w := opt.SMWorkers
		if w == 0 {
			w = 1
		}
		mu.Lock()
		weights = append(weights, w)
		inflight += w
		if inflight > peak {
			peak = inflight
		}
		mu.Unlock()
		<-gate
		mu.Lock()
		inflight -= w
		mu.Unlock()
		return &Result{Workload: opt.Workload, System: opt.System.Label()}, nil
	})

	started := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(weights)
	}
	// Start three runs one at a time so slot acquisition is ordered
	// (racing starts could legitimately split the extra slots
	// differently — that would still respect the budget, but not the
	// exact weights this test asserts).
	apps := []string{"bfs", "kmeans", "needle"}
	var wg sync.WaitGroup
	for i, app := range apps {
		wg.Add(1)
		go func(app string) {
			defer wg.Done()
			if _, err := s.Run(app, core.Baseline()); err != nil {
				t.Errorf("%s: %v", app, err)
			}
		}(app)
		if i < 2 {
			for started() < i+1 {
				time.Sleep(time.Millisecond)
			}
		}
	}
	// Runs 1 and 2 hold 2 slots each: the pool is full, run 3 must be
	// blocked in acquire. Give it real time to (wrongly) start.
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	if len(weights) != 2 {
		mu.Unlock()
		t.Fatalf("third run started with the pool saturated (started %d)", len(weights))
	}
	if weights[0] != smpar || weights[1] != smpar {
		t.Errorf("saturating runs got SMWorkers %v, want %d each", weights, smpar)
	}
	if inflight != workers {
		t.Errorf("inflight weight %d with two %d-wide runs, want %d", inflight, smpar, workers)
	}
	mu.Unlock()

	close(gate)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(weights) != 3 {
		t.Fatalf("runs executed: %d, want 3", len(weights))
	}
	if peak > workers {
		t.Errorf("peak total concurrency %d exceeds the %d-slot pool", peak, workers)
	}
	for i, w := range weights {
		if w > smpar {
			t.Errorf("run %d got SMWorkers %d, above the SMParallel(%d) target", i, w, smpar)
		}
	}
}

// TestSharedObserversRunOnInlineDomain: runs carrying observers that
// may share state between SMs must keep every SM on the caller's
// goroutine even when the caller asks for several domains — and, being
// the same engine, must still match the ticked oracle. One domain is
// observable three ways: the returned GPU's SMWorkers, the goroutine
// count seen from inside the run, and the taps themselves, which would
// trip the race detector if two SMs ever ran concurrently.
func TestSharedObserversRunOnInlineDomain(t *testing.T) {
	opt := RunOptions{
		Workload: "bfs", Params: cancelTestParams,
		System: core.Baseline(), Config: engineMatrixConfig(),
		SMWorkers: 4,
	}
	oracle := opt
	oracle.tickedOracle = true
	want, err := Run(oracle)
	if err != nil {
		t.Fatal(err)
	}

	// No shared observer: the domain count passes through.
	plain, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if plain.GPU.SMWorkers != 4 {
		t.Errorf("plain run: GPU.SMWorkers = %d, want 4", plain.GPU.SMWorkers)
	}
	compareResults(t, "plain", plain, want)

	// An AttachL1 tap: one inline domain. The tap deliberately shares an
	// unsynchronized counter between all SMs.
	tapped := opt
	base := runtime.NumGoroutine()
	taps, accesses, peak := 0, 0, 0
	tapped.AttachL1 = func(smID int, l1 *memsys.L1D) {
		taps++
		l1.AccessListener = func(cache.Request, bool) {
			accesses++
			if n := runtime.NumGoroutine(); n > peak {
				peak = n
			}
		}
	}
	tr, err := Run(tapped)
	if err != nil {
		t.Fatal(err)
	}
	if taps != tapped.Config.NumSMs || accesses == 0 {
		t.Fatalf("tap attached %d times and saw %d accesses, want %d taps and traffic", taps, accesses, tapped.Config.NumSMs)
	}
	if tr.GPU.SMWorkers > 1 {
		t.Errorf("tapped run: GPU.SMWorkers = %d, want one domain", tr.GPU.SMWorkers)
	}
	if peak > base {
		t.Errorf("tapped run had %d goroutines alive mid-span, baseline %d: the inline domain needs none", peak, base)
	}
	compareResults(t, "tapped", tr, want)

	// A ProviderOverride: its providers, built one per SM in SM order,
	// are the run's, and they may share state through the closure, so
	// one inline domain too.
	var built []sm.CriticalityProvider
	over := opt
	over.System.ProviderOverride = func() sm.CriticalityProvider {
		c := core.NewCPL()
		built = append(built, c)
		return c
	}
	over.System.Variant = "cpl-recorder"
	or, err := Run(over)
	if err != nil {
		t.Fatal(err)
	}
	if or.GPU.SMWorkers > 1 {
		t.Errorf("override run: GPU.SMWorkers = %d, want one domain", or.GPU.SMWorkers)
	}
	for i, m := range or.GPU.SMs() {
		if m.Crit() != built[i] {
			t.Fatalf("SM %d has provider %T, not the override's", i, m.Crit())
		}
	}
	over.tickedOracle = true
	ow, err := Run(over)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, "override", or, ow)
}
