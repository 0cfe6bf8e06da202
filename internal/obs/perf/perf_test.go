package perf

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// fakeClock is a deterministic nanosecond counter advanced manually.
type fakeClock struct{ ns int64 }

func (c *fakeClock) now() int64       { return c.ns }
func (c *fakeClock) advance(ns int64) { c.ns += ns }

func TestPhaseTotals(t *testing.T) {
	clk := &fakeClock{}
	p := New(clk.now)
	for _, ns := range []int64{10, 30, -5} { // negative clamps to zero
		p.ObservePhase(PhaseDispatch, ns)
	}
	r := p.Report()
	if len(r.Phases) != 1 {
		t.Fatalf("Phases = %+v, want only dispatch", r.Phases)
	}
	if got, want := r.Phases[0], (PhaseStats{Phase: "dispatch", Count: 3, TotalNS: 40, MeanNS: 40.0 / 3}); got != want {
		t.Errorf("dispatch = %+v, want %+v", got, want)
	}
}

func TestObserveEpochShardAccounting(t *testing.T) {
	clk := &fakeClock{}
	p := New(clk.now)
	p.EnsureShards(2)

	// Epoch of 100ns; shard 0 computed 80ns, shard 1 computed 30ns.
	p.AddShardCompute(0, 80)
	p.AddShardCompute(1, 30)
	p.ObserveEpoch(0, 100, 2)

	// A shard reporting more compute than the epoch span clamps.
	p.AddShardCompute(0, 500)
	p.AddShardCompute(1, 200)
	p.ObserveEpoch(100, 300, 2)

	clk.advance(300)
	r := p.Report()
	if r.Epochs != 2 {
		t.Fatalf("Epochs = %d, want 2", r.Epochs)
	}
	if len(r.Shards) != 2 {
		t.Fatalf("Shards = %d, want 2", len(r.Shards))
	}
	// shard 0: 80 + 200(clamped) compute, 20 + 0 wait.
	if r.Shards[0].ComputeNS != 280 || r.Shards[0].WaitNS != 20 {
		t.Errorf("shard0 = %+v, want compute 280 wait 20", r.Shards[0])
	}
	// shard 1: 30 + 200 compute, 70 + 0 wait.
	if r.Shards[1].ComputeNS != 230 || r.Shards[1].WaitNS != 70 {
		t.Errorf("shard1 = %+v, want compute 230 wait 70", r.Shards[1])
	}
	if r.Imbalance == nil {
		t.Fatal("no imbalance summary")
	}
	// total wait 90, total wall 280+230+90 = 600.
	if want := 90.0 / 600.0; math.Abs(r.Imbalance.BarrierWaitFrac-want) > 1e-9 {
		t.Errorf("BarrierWaitFrac = %v, want %v", r.Imbalance.BarrierWaitFrac, want)
	}
	if want := 280.0 / 255.0; math.Abs(r.Imbalance.Spread-want) > 1e-9 {
		t.Errorf("Spread = %v, want %v", r.Imbalance.Spread, want)
	}
	if r.PhaseTotalNS("domain_compute") != 300 {
		t.Errorf("domain_compute total = %d, want 300", r.PhaseTotalNS("domain_compute"))
	}
	if r.PhaseTotalNS("barrier_wait") != 90 {
		t.Errorf("barrier_wait total = %d, want 90", r.PhaseTotalNS("barrier_wait"))
	}
	if r.WallNS != 300 {
		t.Errorf("WallNS = %d, want 300", r.WallNS)
	}
}

func TestProfilerMerge(t *testing.T) {
	clkA, clkB := &fakeClock{}, &fakeClock{}
	a, b := New(clkA.now), New(clkB.now)
	a.ObservePhase(PhaseMemsysDrain, 10)
	b.ObservePhase(PhaseMemsysDrain, 20)
	b.ObservePhase(PhaseDispatch, 5)
	b.EnsureShards(1)
	b.AddShardCompute(0, 7)
	b.ObserveEpoch(0, 10, 1)

	a.Merge(b)
	r := a.Report()
	if r.PhaseTotalNS("memsys_drain") != 30 {
		t.Errorf("merged memsys_drain = %d, want 30", r.PhaseTotalNS("memsys_drain"))
	}
	if r.PhaseTotalNS("dispatch") != 5 {
		t.Errorf("merged dispatch = %d, want 5", r.PhaseTotalNS("dispatch"))
	}
	if len(r.Shards) != 1 || r.Shards[0].ComputeNS != 7 || r.Shards[0].WaitNS != 3 {
		t.Errorf("merged shards = %+v", r.Shards)
	}
	if r.Epochs != 1 {
		t.Errorf("merged epochs = %d, want 1", r.Epochs)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	clk := &fakeClock{}
	p := New(clk.now)
	p.EnsureShards(1)
	p.AddShardCompute(0, 40)
	p.ObserveEpoch(0, 50, 1)
	clk.advance(50)
	r := p.Report()
	if r.SchemaVersion != ReportSchemaVersion {
		t.Fatalf("SchemaVersion = %d", r.SchemaVersion)
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if back.Epochs != r.Epochs || back.SchemaVersion != r.SchemaVersion {
		t.Fatalf("round-trip mismatch: %+v vs %+v", back, r)
	}
	if back.Imbalance == nil || back.Imbalance.BarrierWaitFrac != r.Imbalance.BarrierWaitFrac {
		t.Fatal("imbalance lost in round-trip")
	}
}

func TestPhaseNamesStable(t *testing.T) {
	want := []string{"domain_compute", "barrier_wait", "staged_commit", "memsys_drain", "dispatch", "lookahead"}
	for i, w := range want {
		if got := Phase(i).String(); got != w {
			t.Errorf("Phase(%d) = %q, want %q", i, got, w)
		}
	}
	if int(NumPhases) != len(want) {
		t.Errorf("NumPhases = %d, want %d (update report consumers)", NumPhases, len(want))
	}
}

// TestShardComputeAddsWithinEpoch: a domain adds the compute of every
// SM it ran in a span, and the fold clears it, so a domain that claims
// nothing in the next span waits all of it.
func TestShardComputeAddsWithinEpoch(t *testing.T) {
	p := New((&fakeClock{}).now)
	p.EnsureShards(2)
	p.AddShardCompute(0, 30)
	p.AddShardCompute(0, 20)
	p.ObserveEpoch(0, 100, 2)
	p.ObserveEpoch(100, 150, 2)
	r := p.Report()
	if s := r.Shards[0]; s.ComputeNS != 50 || s.WaitNS != 100 {
		t.Errorf("shard 0 = %+v, want compute 50 wait 50+50", s)
	}
	if s := r.Shards[1]; s.ComputeNS != 0 || s.WaitNS != 150 {
		t.Errorf("shard 1 = %+v, want compute 0 wait 100+50", s)
	}
	if got := r.PhaseTotalNS("barrier_wait"); got != 250 {
		t.Errorf("barrier_wait = %d, want 250", got)
	}
}

func TestObservePhaseAllocFree(t *testing.T) {
	clk := &fakeClock{}
	p := New(clk.now)
	p.EnsureShards(4)
	allocs := testing.AllocsPerRun(1000, func() {
		p.ObservePhase(PhaseMemsysDrain, 123)
		p.AddShardCompute(2, 50)
		p.ObserveEpoch(0, 100, 4)
	})
	if allocs != 0 {
		t.Fatalf("hot path allocates: %v allocs/op", allocs)
	}
}
