package harness

import (
	"context"
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"cawa/internal/config"
	"cawa/internal/core"
	"cawa/internal/gpu"
	"cawa/internal/workloads"
)

// cancelTestParams is deliberately tiny: cancellation semantics don't
// depend on workload size, only on the engine observing a dead context.
var cancelTestParams = workloads.Params{Scale: 0.05, Seed: 3}

// TestRunContextPreCancelled: a context that is already dead must fail
// the run before any simulation work.
func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, RunOptions{
		Workload: "bfs", Params: cancelTestParams,
		System: core.Baseline(), Config: config.Small(),
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run: got %v, want context.Canceled", err)
	}
}

// TestRunContextMidRunCancel cancels from a PerCycle hook at a known
// simulated cycle and checks both that the run aborts and that the
// abort happens before the next span: the engine polls ctx once per
// span, and a hook without a wake makes every span one cycle, so the
// abort lands on the very cycle of the cancel.
func TestRunContextMidRunCancel(t *testing.T) {
	const cancelAt = 2000

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := RunContext(ctx, RunOptions{
		Workload: "bfs", Params: cancelTestParams,
		System: core.Baseline(), Config: config.Small(),
		PerCycle: func(g *gpu.GPU, cycle int64) {
			if cycle == cancelAt {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: got %v, want context.Canceled", err)
	}
	// The abort error records the cycle the engine noticed: "aborted at
	// cycle N".
	aborted, ok := abortCycle(err.Error())
	if !ok {
		t.Fatalf("abort error %q does not record the abort cycle", err)
	}
	if aborted != cancelAt {
		t.Errorf("aborted at cycle %d; want the cycle of the cancel, %d", aborted, cancelAt)
	}
}

// abortCycle extracts N from "... aborted at cycle N: ..." abort
// errors.
func abortCycle(msg string) (int64, bool) {
	const marker = "aborted at cycle "
	i := strings.Index(msg, marker)
	if i < 0 {
		return 0, false
	}
	rest := msg[i+len(marker):]
	if j := strings.IndexByte(rest, ':'); j >= 0 {
		rest = rest[:j]
	}
	n, err := strconv.ParseInt(rest, 10, 64)
	return n, err == nil
}

// TestSessionCancelThenRerun is the serving layer's core invariant: a
// cancelled run must leave the session fully usable — the poisoned
// flight is evicted, and re-running the same key produces results
// byte-identical to a session that never saw a cancellation (same
// aggregate counters, same per-warp records, same launch spans).
func TestSessionCancelThenRerun(t *testing.T) {
	app, sc := "bfs", core.CAWA()

	disturbed := NewSession(config.Small(), cancelTestParams)
	// First request: wrap the executor so the run cancels itself at a
	// fixed simulated cycle — deterministic mid-run cancellation with no
	// wall-clock races.
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

	// Second request on the same key: must re-simulate and succeed.
	disturbed.SetRunFunc(nil)
	retried, err := disturbed.Run(app, sc)
	if err != nil {
		t.Fatalf("re-run after cancel: %v", err)
	}

	pristine, err := NewSession(config.Small(), cancelTestParams).Run(app, sc)
	if err != nil {
		t.Fatalf("pristine run: %v", err)
	}
	if !reflect.DeepEqual(retried.Agg, pristine.Agg) {
		t.Errorf("aggregate counters diverge after cancel+retry:\nretried  %+v\npristine %+v",
			retried.Agg, pristine.Agg)
	}
	if !reflect.DeepEqual(retried.Spans, pristine.Spans) {
		t.Errorf("launch spans diverge after cancel+retry")
	}
	if retried.Launches != pristine.Launches {
		t.Errorf("launches: retried %d, pristine %d", retried.Launches, pristine.Launches)
	}
}

// TestSessionWaiterDetachesOnCancel: a waiter on someone else's flight
// whose own context dies must detach with its own error and leave the
// flight (and the eventual cached result) untouched.
func TestSessionWaiterDetachesOnCancel(t *testing.T) {
	s := NewSession(config.Small(), cancelTestParams)
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	s.SetRunFunc(func(ctx context.Context, opt RunOptions) (*Result, error) {
		started <- struct{}{}
		<-release
		return RunContext(ctx, opt)
	})
	firstDone := make(chan error, 1)
	go func() {
		_, err := s.Run("bfs", core.Baseline())
		firstDone <- err
	}()
	<-started // the flight is registered and running

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunContext(ctx, "bfs", core.Baseline()); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter with dead ctx: got %v, want context.Canceled", err)
	}

	close(release)
	if err := <-firstDone; err != nil {
		t.Fatalf("first requester: %v", err)
	}
	// The flight completed and is cached: the detached waiter must not
	// have evicted it.
	hitsBefore, _ := s.CacheStats()
	if _, err := s.Run("bfs", core.Baseline()); err != nil {
		t.Fatal(err)
	}
	hitsAfter, _ := s.CacheStats()
	if hitsAfter != hitsBefore+1 {
		t.Errorf("expected a cache hit after waiter detach (hits %d -> %d)", hitsBefore, hitsAfter)
	}
}
