package gpu

import (
	"runtime"
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
	if got := len(g.runner.workers); got != 1 {
		t.Fatalf("default runner has %d domains, want the one inline domain", got)
	}
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("one inline domain started %d goroutines", n-base)
	}
	span(1, 3)
	g.stopDomains()

	g.SMWorkers = 4
	g.startDomains()
	if got := len(g.runner.workers); got != 4 {
		t.Fatalf("runner has %d domains, want 4", got)
	}
	if n := runtime.NumGoroutine(); n != base+3 {
		t.Fatalf("4 domains run on %d helper goroutines, want 3 (the first is inline)", n-base)
	}
	for c := int64(4); c <= 500; c++ {
		span(c, c)
		if c%97 == 0 {
			// Let helpers fall off the spin path and park, so later
			// spans exercise the channel wakeup.
			time.Sleep(2 * time.Millisecond)
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

// TestDomainRunnerPartition: the contiguous shard must cover every SM
// exactly once, and worker counts above the SM count clamp.
func TestDomainRunnerPartition(t *testing.T) {
	g := newIdleGPU(t, 5)
	for _, workers := range []int{1, 2, 3, 5, 9} {
		r := newDomainRunner(g.sms, workers, nil)
		want := workers
		if want > len(g.sms) {
			want = len(g.sms)
		}
		if len(r.workers) != want {
			t.Errorf("workers=%d: runner built %d shards, want %d", workers, len(r.workers), want)
		}
		seen := make(map[*sm.SM]int)
		total := 0
		for _, w := range r.workers {
			if len(w.sms) == 0 {
				t.Errorf("workers=%d: empty shard", workers)
			}
			for _, s := range w.sms {
				seen[s]++
				total++
			}
		}
		if total != len(g.sms) || len(seen) != len(g.sms) {
			t.Errorf("workers=%d: shards cover %d/%d SMs (%d slots)", workers, len(seen), len(g.sms), total)
		}
		r.stop()
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
	time.Sleep(2 * time.Millisecond) // helpers fall through the spin path and park
	r.stop()
	r.stop()
	waitGoroutines(t, base)
}
