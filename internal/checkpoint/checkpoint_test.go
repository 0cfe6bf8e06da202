package checkpoint

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"cawa/internal/config"
	"cawa/internal/core"
	"cawa/internal/gpu"
	"cawa/internal/memory"
	"cawa/internal/state"
	"cawa/internal/stats"
	"cawa/internal/workloads"
)

var testParams = workloads.Params{Scale: 0.05, Seed: 3}

func testConfig() config.Config {
	cfg := config.Small()
	cfg.NumSMs = 4
	return cfg
}

// engineVariant is one way to run a launch: the tick-every-cycle oracle
// or the span engine at some domain count. The names predate the span
// engine and are kept so the subtest IDs built from them stay stable.
type engineVariant struct {
	name      string
	oracle    bool
	smWorkers int
}

var engineVariants = []engineVariant{
	{name: "serial-ticked", oracle: true},
	{name: "serial-ff", smWorkers: 1},          // one inline domain
	{name: "parallel", smWorkers: 2},           // inline + one helper
	{name: "parallel-lookahead", smWorkers: 4}, // one domain per SM
}

func buildGPU(t testing.TB, sc core.SystemConfig, wl workloads.Workload, v engineVariant) *gpu.GPU {
	t.Helper()
	g, err := sc.NewGPU(testConfig(), wl.Mem())
	if err != nil {
		t.Fatalf("NewGPU: %v", err)
	}
	g.SMWorkers = v.smWorkers
	if v.oracle {
		g.UseTickedOracle()
	}
	return g
}

// memWords copies the workload's whole memory image.
func memWords(wl workloads.Workload) []int64 {
	m := wl.Mem()
	return m.ReadWords(0, int(m.Size()/memory.WordBytes))
}

type refRun struct {
	launches []*stats.Launch
	words    []int64
	span     gpu.LaunchSpan // span of the launch the checkpoint targets
	launchIx int            // its index
	at2      probe          // the capture at cycle t2 inside that launch
	t1, t2   int64
}

// runReference runs the workload uninterrupted on the ticked oracle,
// picking two probe cycles inside the last launch: t1 (the
// checkpoint cycle) and t2 (a later cycle whose StateHash the resumed
// run must reproduce).
func runReference(t *testing.T, workload string, sc core.SystemConfig) refRun {
	t.Helper()
	wl, err := workloads.New(workload, testParams)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	g := buildGPU(t, sc, wl, engineVariants[0])

	// First pass just to learn the launch spans.
	var launches []*stats.Launch
	for {
		k, ok := wl.Next()
		if !ok {
			break
		}
		out, err := g.Launch(context.Background(), k)
		if err != nil {
			t.Fatalf("launch %s: %v", k.Name, err)
		}
		launches = append(launches, out)
	}
	if err := wl.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if len(g.Spans) == 0 {
		t.Fatal("no launch spans")
	}
	r := refRun{launches: launches, words: memWords(wl)}
	r.launchIx = len(g.Spans) - 1
	r.span = g.Spans[r.launchIx]
	if r.span.End-r.span.Start < 8 {
		t.Fatalf("span too short to probe: %+v", r.span)
	}
	r.t1 = r.span.Start + (r.span.End-r.span.Start)/2
	r.t2 = r.t1 + (r.span.End-r.t1)/2
	if r.t2 <= r.t1 {
		r.t2 = r.t1 + 1
	}

	// Second uninterrupted pass recording the StateHash at t2.
	wl2, err := workloads.New(workload, testParams)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	g2 := buildGPU(t, sc, wl2, engineVariants[0])
	ix := 0
	for {
		k, ok := wl2.Next()
		if !ok {
			break
		}
		if ix == r.launchIx {
			armCapture(t, g2, r.t2, &r.at2)
		}
		if _, err := g2.Launch(context.Background(), k); err != nil {
			t.Fatalf("launch %s: %v", k.Name, err)
		}
		ix++
	}
	if r.at2.hash == "" {
		t.Fatalf("reference run never reached probe cycle %d", r.t2)
	}
	return r
}

// probe is what armCapture records at its cycle: the snapshot, its
// StateHash, and the device's walk by a saver of its own, which
// state.Diff reads to name where two captures part.
type probe struct {
	hash string
	snap *Snapshot
	walk *state.Archive
}

// armCapture installs a PerCycle hook that captures the GPU at cycle
// at into p, then disarms itself.
func armCapture(t *testing.T, g *gpu.GPU, at int64, p *probe) {
	t.Helper()
	g.PerCycle = func(g *gpu.GPU, cycle int64) {
		if cycle != at {
			return
		}
		s, err := Capture(g, Meta{Workload: "test"})
		if err != nil {
			t.Errorf("capture at %d: %v", cycle, err)
			g.PerCycle, g.PerCycleWake = nil, nil
			return
		}
		p.hash, p.snap, p.walk = StateHash(s), s, state.NewSaver(0)
		g.Archive(p.walk, nil)
		g.PerCycle, g.PerCycleWake = nil, nil
	}
	g.PerCycleWake = func(now int64) int64 {
		if now < at {
			return at
		}
		return now + 1
	}
}

// TestRoundTrip checkpoints a run mid-launch on one engine variant,
// restores onto another (every pairing in long mode), and
// requires: identical launch statistics for the interrupted launch,
// identical final memory, a passing workload Verify, and an identical
// StateHash at a later probe cycle of the resumed run.
func TestRoundTrip(t *testing.T) {
	systems := map[string]core.SystemConfig{
		"lrr":  {Scheduler: "lrr"},
		"gto":  {Scheduler: "gto"},
		"cawa": core.CAWA(),
	}
	type pairing struct{ capture, resume engineVariant }
	pairs := []pairing{
		{engineVariants[0], engineVariants[3]}, // oracle -> one domain per SM
		{engineVariants[3], engineVariants[1]}, // one domain per SM -> inline
	}
	if !testing.Short() {
		pairs = pairs[:0]
		for _, c := range engineVariants {
			for _, r := range engineVariants {
				pairs = append(pairs, pairing{c, r})
			}
		}
	}

	const workload = "kmeans"
	for name, sc := range systems {
		sc := sc
		t.Run(name, func(t *testing.T) {
			ref := runReference(t, workload, sc)
			for _, p := range pairs {
				t.Run(p.capture.name+"_to_"+p.resume.name, func(t *testing.T) {
					blob := captureRun(t, workload, sc, p.capture, ref)
					resumeRun(t, workload, sc, p.resume, ref, blob)
				})
			}
		})
	}
}

// snapshotAt runs the workload on the given engine and snapshots it at
// cycle at inside launch launchIx, returning the snapshot and its
// StateHash.
func snapshotAt(t *testing.T, workload string, sc core.SystemConfig, v engineVariant, launchIx int, at int64) (*Snapshot, string) {
	t.Helper()
	wl, err := workloads.New(workload, testParams)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	g := buildGPU(t, sc, wl, v)
	var p probe
	ix := 0
	for {
		k, ok := wl.Next()
		if !ok {
			break
		}
		if ix == launchIx {
			armCapture(t, g, at, &p)
		}
		if _, err := g.Launch(context.Background(), k); err != nil {
			t.Fatalf("launch %s: %v", k.Name, err)
		}
		ix++
	}
	if p.snap == nil {
		t.Fatalf("%s run never reached cycle %d of launch %d", v.name, at, launchIx)
	}
	return p.snap, p.hash
}

// captureRun re-runs the workload on the capture engine, snapshots it
// at ref.t1 inside the target launch, and returns the encoded
// checkpoint.
func captureRun(t *testing.T, workload string, sc core.SystemConfig, v engineVariant, ref refRun) []byte {
	t.Helper()
	snap, _ := snapshotAt(t, workload, sc, v, ref.launchIx, ref.t1)
	var buf bytes.Buffer
	if _, err := Encode(&buf, snap); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// resumeRun decodes the checkpoint, rebuilds the workload, replays the
// completed launches functionally, restores, resumes on the resume
// engine, and checks every fidelity requirement against the reference.
func resumeRun(t *testing.T, workload string, sc core.SystemConfig, v engineVariant, ref refRun, blob []byte) {
	t.Helper()
	snap, err := Decode(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	wl, err := workloads.New(workload, testParams)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	cfg := testConfig()
	for i := 0; i < ref.launchIx; i++ {
		k, ok := wl.Next()
		if !ok {
			t.Fatalf("workload ended before launch %d", i)
		}
		if err := FunctionalLaunch(k, wl.Mem(), cfg.WarpSize); err != nil {
			t.Fatalf("functional launch %d: %v", i, err)
		}
	}
	k, ok := wl.Next()
	if !ok {
		t.Fatalf("workload ended before the checkpointed launch")
	}
	g := buildGPU(t, sc, wl, v)
	if err := Restore(snap, g, k); err != nil {
		t.Fatalf("restore: %v", err)
	}
	var at2 probe
	armCapture(t, g, ref.t2, &at2)
	out, err := g.Resume(context.Background())
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if at2.hash != ref.at2.hash {
		t.Errorf("state hash at cycle %d diverged after restore:\n resumed %s\n reference %s\n%s",
			ref.t2, at2.hash, ref.at2.hash, state.Diff(at2.walk, ref.at2.walk))
	}
	if !reflect.DeepEqual(out, ref.launches[ref.launchIx]) {
		t.Errorf("resumed launch stats differ from uninterrupted run:\n got  %+v\n want %+v",
			out, ref.launches[ref.launchIx])
	}
	// Any launches after the checkpointed one run normally.
	ix := ref.launchIx + 1
	for {
		k, ok := wl.Next()
		if !ok {
			break
		}
		out, err := g.Launch(context.Background(), k)
		if err != nil {
			t.Fatalf("launch %s: %v", k.Name, err)
		}
		if !reflect.DeepEqual(out, ref.launches[ix]) {
			t.Errorf("post-resume launch %d stats differ", ix)
		}
		ix++
	}
	if err := wl.Verify(); err != nil {
		t.Errorf("verify after resume: %v", err)
	}
	if got := memWords(wl); !reflect.DeepEqual(got, ref.words) {
		t.Errorf("final memory image differs from uninterrupted run")
	}
}

// TestRoundTripAllWorkloads extends the kmeans matrix of TestRoundTrip
// to the whole paper catalog: every workload × {lrr, gto, cawa}
// checkpoints mid-launch on the ticked oracle and resumes on the span
// engine with one domain per SM (the most adversarial pairing: ticked
// state restored into multi-domain span execution), checking launch stats,
// final memory, Verify, and the later-cycle StateHash. Short mode —
// what check.sh's GOMAXPROCS race matrix runs — rotates each workload
// through one of the three systems to bound -race wall clock; full
// mode covers all combinations.
func TestRoundTripAllWorkloads(t *testing.T) {
	systems := []struct {
		name string
		sc   core.SystemConfig
	}{
		{"lrr", core.SystemConfig{Scheduler: "lrr"}},
		{"gto", core.SystemConfig{Scheduler: "gto"}},
		{"cawa", core.CAWA()},
	}
	for wi, workload := range workloads.Names() {
		workload := workload
		for si, sys := range systems {
			if testing.Short() && si != wi%len(systems) {
				continue
			}
			sys := sys
			t.Run(workload+"/"+sys.name, func(t *testing.T) {
				ref := runReference(t, workload, sys.sc)
				blob := captureRun(t, workload, sys.sc, engineVariants[0], ref)
				resumeRun(t, workload, sys.sc, engineVariants[3], ref, blob)
			})
		}
	}
}

// TestLookaheadMidSpanCheckpoint proves a checkpoint requested at a
// cycle strictly inside a span is honored at exactly that cycle with
// state identical to the ticked oracle's. Two parts: a probe run with a
// far-future wake hint (which never clamps the horizon) records the
// engine's natural span boundaries — PerCycle only fires after a span's
// last cycle, so a gap between consecutive observations is a genuine
// multi-cycle span. A cycle inside the widest gap is then requested as
// a capture point: the PerCycleWake hint must end the planned span at
// exactly that cycle, and the resulting snapshot must hash identically
// to the oracle's capture at the same cycle (and likewise at the
// adjacent cycle, so the clamp neither skips nor double-ticks the
// boundary) — on one inline domain and on one domain per SM.
func TestLookaheadMidSpanCheckpoint(t *testing.T) {
	sc := core.CAWA()
	const workload = "kmeans"
	ref := runReference(t, workload, sc)

	// Probe pass: observe the span engine's boundary cycles in the
	// target launch without perturbing its planning.
	wl, err := workloads.New(workload, testParams)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	g := buildGPU(t, sc, wl, engineVariants[3])
	var boundaries []int64
	ix := 0
	for {
		k, ok := wl.Next()
		if !ok {
			break
		}
		if ix == ref.launchIx {
			g.PerCycle = func(g *gpu.GPU, cycle int64) {
				boundaries = append(boundaries, cycle)
			}
			g.PerCycleWake = func(now int64) int64 { return now + (1 << 40) }
		}
		if _, err := g.Launch(context.Background(), k); err != nil {
			t.Fatalf("launch %s: %v", k.Name, err)
		}
		g.PerCycle, g.PerCycleWake = nil, nil
		ix++
	}
	var at, width int64
	for i := 1; i < len(boundaries); i++ {
		if w := boundaries[i] - boundaries[i-1]; w > width {
			width = w
			at = boundaries[i-1] + w/2
		}
	}
	if width < 3 {
		t.Fatalf("no multi-cycle span observed in launch %d (widest boundary gap %d): the mid-span case is vacuous here", ref.launchIx, width)
	}
	t.Logf("probing cycle %d inside a %d-cycle span", at, width)

	for _, c := range []int64{at, at + 1} {
		oSnap, oHash := snapshotAt(t, workload, sc, engineVariants[0], ref.launchIx, c)
		for _, v := range []engineVariant{engineVariants[1], engineVariants[3]} {
			sSnap, sHash := snapshotAt(t, workload, sc, v, ref.launchIx, c)
			if oSnap.Meta.Cycle != c || sSnap.Meta.Cycle != c {
				t.Errorf("capture cycle drifted: oracle %d, %s %d, want %d",
					oSnap.Meta.Cycle, v.name, sSnap.Meta.Cycle, c)
			}
			if oHash != sHash {
				t.Errorf("mid-span capture at cycle %d on %s diverged from the oracle:\n span   %s\n oracle %s", c, v.name, sHash, oHash)
			}
		}
	}
}
