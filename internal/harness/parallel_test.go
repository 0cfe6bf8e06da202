package harness

import (
	"testing"

	"cawa/internal/config"
	"cawa/internal/core"
	"cawa/internal/sm"
	"cawa/internal/workloads"
)

func tinySession() *Session {
	return NewSession(config.Small(), workloads.Params{Scale: 0.05, Seed: 3})
}

// TestSessionSingleflightDedup: concurrent requests for one design
// point must simulate exactly once and share the result.
func TestSessionSingleflightDedup(t *testing.T) {
	s := tinySession().SetWorkers(4)
	const callers = 8
	results := make([]*Result, callers)
	err := s.Fanout(callers, func(i int) error {
		r, err := s.Run("needle", core.Baseline())
		results[i] = r
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d received a different result instance", i)
		}
	}
	if n := len(s.Timings()); n != 1 {
		t.Fatalf("%d simulations executed, want 1 (singleflight)", n)
	}
}

// TestSessionKeyRequiresVariant: design points carrying behaviour in
// function fields are not cacheable without a stable Variant label, and
// distinct Variants must occupy distinct cache slots.
func TestSessionKeyRequiresVariant(t *testing.T) {
	s := tinySession().SetWorkers(2)
	tweak := func(c *core.CPL) { c.DisableStallTerm = true }
	if _, err := s.Run("needle", core.SystemConfig{Scheduler: "gcaws", CPL: true, CPLTweak: tweak}); err == nil {
		t.Fatal("CPLTweak without Variant accepted")
	}
	if _, err := s.Run("needle", core.SystemConfig{
		Scheduler:        "lrr",
		ProviderOverride: func() sm.CriticalityProvider { return core.NewCPL() },
	}); err == nil {
		t.Fatal("ProviderOverride without Variant accepted")
	}
	r1, err := s.Run("needle", core.SystemConfig{Scheduler: "gcaws", CPL: true, CPLTweak: tweak, Variant: "a"})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Run("needle", core.SystemConfig{Scheduler: "gcaws", CPL: true, CPLTweak: tweak, Variant: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if r1 == r2 {
		t.Fatal("distinct Variants shared a cache entry")
	}
	if n := len(s.Timings()); n != 2 {
		t.Fatalf("%d simulations executed, want 2", n)
	}
}

// TestParallelSequentialTablesIdentical: the determinism guarantee of
// the parallel engine — a representative experiment rendered from a
// single-worker session and from a multi-worker session must be
// byte-for-byte identical.
func TestParallelSequentialTablesIdentical(t *testing.T) {
	render := func(workers int) string {
		s := NewSession(config.Small(), workloads.Params{Scale: 0.1, Seed: 7}).SetWorkers(workers)
		s.Apps = []string{"bfs", "kmeans"}
		tbl, err := RunExperiment("fig9", s)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return tbl.String()
	}
	seq := render(1)
	par := render(4)
	if seq != par {
		t.Fatalf("parallel table diverged from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
}

// TestPrewarmExperiments: pooling the matrices of several experiments
// must populate the cache so the subsequent sequential passes add no
// simulations.
func TestPrewarmExperiments(t *testing.T) {
	s := tinySession().SetWorkers(4)
	s.Apps = []string{"bfs"}
	ids := []string{"fig1", "fig2a", "fig2c"}
	if err := PrewarmExperiments(s, ids); err != nil {
		t.Fatal(err)
	}
	warmed := len(s.Timings())
	if warmed != 1 { // all three matrices collapse to baseline("bfs")
		t.Fatalf("%d simulations after prewarm, want 1", warmed)
	}
	for _, id := range ids {
		if _, err := RunExperiment(id, s); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(s.Timings()); n != warmed {
		t.Fatalf("sequential passes re-simulated: %d runs, want %d", n, warmed)
	}
	if err := PrewarmExperiments(s, []string{"nope"}); err == nil {
		t.Fatal("unknown experiment id accepted")
	}
}

// TestDeclaredMatrixCoversRun: for every experiment, the declared run
// matrix covers everything the table pass reads from the session cache —
// after Prewarm(Requests), Run adds not one cache miss. A cell missing
// from the matrix would still produce the right table, only serialised
// behind the sequential pass, so nothing else would notice.
func TestDeclaredMatrixCoversRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	for _, id := range ExperimentIDs() {
		// A fresh session each, so one figure's matrix cannot cover for
		// a hole in another's.
		s := NewSession(config.Small(), workloads.Params{Scale: 0.05, Seed: 7})
		e, _ := LookupExperiment(id)
		if e.Requests != nil {
			if err := s.Prewarm(e.Requests(s)); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
		}
		_, before := s.CacheStats()
		if _, err := e.Run(s); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if _, after := s.CacheStats(); after != before {
			t.Errorf("%s: table pass missed the session cache %d times; its run matrix is incomplete", id, after-before)
		}
	}
}
