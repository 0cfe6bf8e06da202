package gpu

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cawa/internal/config"
	"cawa/internal/memory"
	"cawa/internal/sm"
)

// newIdleGPU builds a GPU with n SMs and no kernel resident: every SM
// cycle is a pure scheduler pass, which makes the runner's barrier
// mechanics observable without simulating a workload (the harness
// engine-equivalence matrix covers loaded behavior).
func newIdleGPU(t *testing.T, n int) *GPU {
	t.Helper()
	cfg := config.Small()
	cfg.NumSMs = n
	g, err := New(Options{Config: cfg, Memory: memory.New(1 << 16)})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// waitGoroutines polls until the goroutine count returns to base,
// failing after a deadline: parked domain workers that missed a stop
// signal show up as a stable elevated count.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDomainRunnerLifecycle drives the runner through many spans —
// enough to exercise both the yield-spin and the parked path of the
// hybrid barrier on any machine — and checks that stepSpan returns with
// every SM of every domain at the span's last cycle, that one domain
// means zero goroutines, that teardown restores the goroutine count, and
// that the staging plumbing is uninstalled afterwards.
func TestDomainRunnerLifecycle(t *testing.T) {
	g := newIdleGPU(t, 8)
	base := runtime.NumGoroutine()
	span := func(from, to int64) {
		t.Helper()
		g.runner.stepSpan(from, to)
		for i, s := range g.sms {
			if s.Now() != to {
				t.Fatalf("span %d..%d returned with SM %d at cycle %d", from, to, i, s.Now())
			}
		}
	}

	g.startDomains()
	if got := g.runner.domains(); got != 1 {
		t.Fatalf("default runner has %d domains, want the one inline domain", got)
	}
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("one inline domain started %d goroutines", n-base)
	}
	span(1, 3)
	g.stopDomains()

	g.SMWorkers = 4
	g.startDomains()
	if got := g.runner.domains(); got != 4 {
		t.Fatalf("runner has %d domains, want 4", got)
	}
	if n := runtime.NumGoroutine(); n != base+3 {
		t.Fatalf("4 domains run on %d helper goroutines, want 3 (the first is inline)", n-base)
	}
	for c := int64(4); c <= 500; c++ {
		span(c, c)
		if c%97 == 0 {
			// Let helpers fall off the spin path (barrierSpins yields,
			// about a millisecond) and park, so later spans exercise
			// the channel wakeup.
			time.Sleep(20 * time.Millisecond)
		}
	}
	g.stopDomains()
	waitGoroutines(t, base)

	if g.runner != nil {
		t.Error("stopDomains left the runner installed")
	}
	for i, s := range g.sms {
		if s.L1D().Staged() {
			t.Errorf("SM %d still has a staging buffer after stopDomains", i)
		}
	}

	// The plumbing is reusable: a second launch-scoped start/stop works.
	g.SMWorkers = 2
	g.startDomains()
	span(501, 520)
	g.stopDomains()
	waitGoroutines(t, base)
}

// TestDomainRunnerRunsEverySMOnce: whatever the domain count, every
// span takes every SM across exactly that span's bounds exactly once —
// no SM skipped by a claim that lost a race, none run twice, none run
// with another span's bounds by a helper that woke late. Spans vary in
// length, and every so often the helpers are left idle long enough to
// park, so later spans find them waking late.
func TestDomainRunnerRunsEverySMOnce(t *testing.T) {
	g := newIdleGPU(t, 16)
	base := runtime.NumGoroutine()
	// A lost SM never finishes, so its span never ends: fail loudly
	// instead of hanging until the test binary's timeout.
	watchdog := time.AfterFunc(time.Minute, func() { panic("a span never ended: an SM was lost") })
	defer watchdog.Stop()
	for workers := 1; workers <= 16; workers++ {
		r := newDomainRunner(g.sms, workers, nil)
		if got := r.domains(); got != workers {
			t.Fatalf("workers=%d: runner has %d domains", workers, got)
		}
		var runs [16]atomic.Int64
		var from, to int64
		var wrongBounds atomic.Int64
		r.step = func(s *sm.SM, f, l int64) {
			// The test writes from/to before stepSpan publishes the
			// span, so a domain reading them after its claim is ordered
			// after the write.
			if f != from || l != to {
				wrongBounds.Add(1)
			}
			runs[s.ID].Add(1)
			stepSM(s, f, l)
		}
		to = g.sms[0].Now()
		for span := int64(1); span <= 120; span++ {
			from, to = to+1, to+1+span%3
			r.stepSpan(from, to)
			for i := range runs {
				if n := runs[i].Load(); n != span {
					t.Fatalf("workers=%d span %d: SM %d ran %d times in %d spans", workers, span, i, n, span)
				}
			}
			if span%40 == 0 {
				time.Sleep(20 * time.Millisecond) // helpers spin out and park
			}
		}
		if n := wrongBounds.Load(); n != 0 {
			t.Fatalf("workers=%d: %d SM runs saw another span's bounds", workers, n)
		}
		r.stop()
		waitGoroutines(t, base)
	}
	// Domain counts above the SM count clamp to it.
	r := newDomainRunner(g.sms[:5], 9, nil)
	if got := r.domains(); got != 5 {
		t.Errorf("9 domains on 5 SMs: runner has %d, want 5", got)
	}
	r.stop()
	waitGoroutines(t, base)
}

// TestDomainRunnerSpinBudget: a runner started while GOMAXPROCS
// exceeds the usable CPUs parks its waiters without spinning, and its
// spans still take every SM; at the default GOMAXPROCS the budget is
// barrierSpins.
func TestDomainRunnerSpinBudget(t *testing.T) {
	g := newIdleGPU(t, 4)
	base := runtime.NumGoroutine()
	r := newDomainRunner(g.sms, 4, nil)
	if want := barrierSpins; runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		t.Logf("GOMAXPROCS %d above %d CPUs: default budget not checked", runtime.GOMAXPROCS(0), runtime.NumCPU())
	} else if r.spins != want {
		t.Errorf("default GOMAXPROCS: spin budget %d, want %d", r.spins, want)
	}
	r.stop()

	// Raise GOMAXPROCS past the CPUs; the deferred call restores it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU() + 1))
	r = newDomainRunner(g.sms, 4, nil)
	if r.spins != 0 {
		t.Errorf("GOMAXPROCS above the CPUs: spin budget %d, want 0", r.spins)
	}
	to := g.sms[0].Now()
	for span := 0; span < 50; span++ {
		r.stepSpan(to+1, to+1)
		to++
		for i, s := range g.sms {
			if s.Now() != to {
				t.Fatalf("span %d returned with SM %d at cycle %d", to, i, s.Now())
			}
		}
	}
	r.stop()
	waitGoroutines(t, base)
}

// TestDomainRunnerRecoversHelperPanic: an SM that panics on any domain
// is recovered there, the span still ends, and the first panic comes
// back out of stepSpan on the caller's goroutine; the helpers stay
// stoppable. SM 0, claimed first, is held until another SM has
// panicked, so the panic is always on a goroutine other than the one
// running SM 0 — a helper whenever the engine claimed first.
func TestDomainRunnerRecoversHelperPanic(t *testing.T) {
	g := newIdleGPU(t, 8)
	base := runtime.NumGoroutine()
	for workers := 2; workers <= 4; workers++ {
		r := newDomainRunner(g.sms, workers, nil)
		var panicked atomic.Bool
		r.step = func(s *sm.SM, from, to int64) {
			switch {
			case from != 3:
			case s.ID == 0:
				deadline := time.Now().Add(10 * time.Second)
				for !panicked.Load() && time.Now().Before(deadline) {
					runtime.Gosched()
				}
			default:
				panicked.Store(true)
				panic("boom")
			}
			stepSM(s, from, to)
		}
		r.stepSpan(1, 1)
		r.stepSpan(2, 2)
		got := func() (p any) {
			defer func() { p = recover() }()
			r.stepSpan(3, 3)
			return nil
		}()
		msg, _ := got.(string)
		if !strings.Contains(msg, "boom") || !strings.Contains(msg, "gpu: sm ") {
			t.Fatalf("workers=%d: stepSpan re-panicked with %v, want the SM's panic", workers, got)
		}
		r.stop()
		waitGoroutines(t, base)
	}
}

// TestDomainRunnerStopIdempotent: stop before any span, stop twice,
// and stop racing a parked helper must all terminate cleanly.
func TestDomainRunnerStopIdempotent(t *testing.T) {
	g := newIdleGPU(t, 4)
	base := runtime.NumGoroutine()

	r := newDomainRunner(g.sms, 4, nil)
	r.stop()
	r.stop() // second call is a no-op
	waitGoroutines(t, base)

	r = newDomainRunner(g.sms, 4, nil)
	r.stepSpan(1, 1)
	time.Sleep(20 * time.Millisecond) // helpers fall through the spin path and park
	r.stop()
	r.stop()
	waitGoroutines(t, base)
}
