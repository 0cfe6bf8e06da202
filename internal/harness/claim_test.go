package harness

import (
	"context"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cawa/internal/core"
	"cawa/internal/workloads"
)

// TestClaimOrderIndependence proves that the order in which the span
// domains claim SMs cannot reach results. One goroutine takes the SMs
// in reverse order, and in a seeded shuffle, across the engine matrix;
// every result must be byte-identical to one domain taking them in
// ascending order. With several domains the claim order is whatever
// the host scheduler makes it, so an order dependence would show here
// as a deterministic diff rather than as a rare flake there.
func TestClaimOrderIndependence(t *testing.T) {
	apps := PaperApps
	if testing.Short() {
		apps = apps[:4]
	}
	if raceDetectorEnabled {
		apps = apps[:2]
	}
	cfg := engineMatrixConfig()
	params := workloads.Params{Scale: 0.05, Seed: 3}

	reverse := make([]int, cfg.NumSMs)
	for i := range reverse {
		reverse[i] = cfg.NumSMs - 1 - i
	}
	shuffled := rand.New(rand.NewSource(7)).Perm(cfg.NumSMs)
	ordered := func(order []int) *Session {
		s := NewSession(cfg, params)
		s.SetRunFunc(func(ctx context.Context, opt RunOptions) (*Result, error) {
			opt.SMWorkers = 1
			opt.claimOrder = order
			return RunContext(ctx, opt)
		})
		return s
	}
	ref := NewSession(cfg, params)
	variants := []struct {
		name    string
		session *Session
	}{
		{"reverse", ordered(reverse)},
		{"shuffle", ordered(shuffled)},
	}

	var keys []RunKey
	for _, sys := range matrixSystems {
		keys = append(keys, matrix(apps, sys.sc)...)
	}
	if err := ref.Prewarm(keys); err != nil {
		t.Fatal(err)
	}
	for _, v := range variants {
		if err := v.session.Prewarm(keys); err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
	}
	for _, sys := range matrixSystems {
		for _, app := range apps {
			rr, err := ref.Run(app, sys.sc)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range variants {
				vr, err := v.session.Run(app, sys.sc)
				if err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				compareResults(t, sys.name+"/"+app+" "+v.name, vr, rr)
			}
		}
	}
}

// TestSessionSurvivesDomainPanic: a panic inside an SM's span step, on
// whichever domain runs it, costs that run and not the process. Every
// other run panics in the span holding cycle 300: Run must return an
// error carrying the panic's text, the next Run (the failed flight is
// evicted, so it simulates again) must succeed, and no helper
// goroutine may outlive its launch.
func TestSessionSurvivesDomainPanic(t *testing.T) {
	cfg := engineMatrixConfig()
	params := workloads.Params{Scale: 0.05, Seed: 3}
	base := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		workers := 2 + i%3
		var calls atomic.Int64
		s := NewSession(cfg, params).SetWorkers(workers).SMParallel(workers)
		s.SetRunFunc(func(ctx context.Context, opt RunOptions) (*Result, error) {
			if calls.Add(1) == 1 {
				opt.panicAt = 300
			}
			return RunContext(ctx, opt)
		})
		_, err := s.Run("bfs", core.CAWA())
		if err == nil || !strings.Contains(err.Error(), "test hook: sm ") {
			t.Fatalf("round %d (%d domains): Run returned %v, want the SM's panic as its error", i, workers, err)
		}
		res, err := s.Run("bfs", core.CAWA())
		if err != nil || res.Agg.Cycles == 0 {
			t.Fatalf("round %d (%d domains): the run after a panic failed: %v", i, workers, err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: %d goroutines running, %d before", i, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
