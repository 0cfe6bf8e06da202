package gpu

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"cawa/internal/config"
	"cawa/internal/isa"
	"cawa/internal/isa/analysis"
	"cawa/internal/memory"
	"cawa/internal/simt"
)

func trivialKernel(t *testing.T, grid, block int) *simt.Kernel {
	t.Helper()
	b := isa.NewBuilder("trivial")
	b.SReg(isa.R0, isa.SRGTid)
	b.AddI(isa.R1, isa.R0, 1)
	b.Exit()
	return &simt.Kernel{Name: "trivial", Program: b.MustBuild(), GridDim: grid, BlockDim: block}
}

func TestLaunchValidation(t *testing.T) {
	mem := memory.New(1 << 16)
	g, err := New(Options{Config: config.Small(), Memory: mem})
	if err != nil {
		t.Fatal(err)
	}
	// Block larger than the SM warp capacity.
	big := trivialKernel(t, 1, 49*32)
	if _, err := g.Launch(context.Background(), big); err == nil {
		t.Fatal("oversized block accepted")
	}
	// Shared memory beyond the SM.
	shm := trivialKernel(t, 1, 32)
	shm.SharedWords = 1 << 20
	if _, err := g.Launch(context.Background(), shm); err == nil {
		t.Fatal("oversized shared memory accepted")
	}
	// Register demand beyond the file.
	regs := trivialKernel(t, 1, 1024)
	regs.RegsPerThread = 64
	if _, err := g.Launch(context.Background(), regs); err == nil {
		t.Fatal("oversized register demand accepted")
	}
	// Invalid geometry.
	badK := trivialKernel(t, 0, 32)
	if _, err := g.Launch(context.Background(), badK); err == nil {
		t.Fatal("zero grid accepted")
	}
}

// TestLaunchRejectsWhatValidateRejects: Launch runs the static verifier
// once, with its own launch context, instead of also running
// Kernel.Validate's pass. Kernels that pass CheckGeometry but fail
// Validate's verifier must still be refused by Launch, before a cycle
// runs.
func TestLaunchRejectsWhatValidateRejects(t *testing.T) {
	mem := memory.New(1 << 16)
	g, err := New(Options{Config: config.Small(), Memory: mem})
	if err != nil {
		t.Fatal(err)
	}
	undef := isa.NewBuilder("undef")
	undef.Add(isa.R1, isa.R2, isa.R3) // r2, r3 read before any write
	undef.Exit()
	oob := isa.NewBuilder("shared_oob")
	oob.MovI(isa.R1, 64*8) // one word past the block's 64 shared words
	oob.StS(isa.R1, 0, isa.R1)
	oob.Exit()
	for _, k := range []*simt.Kernel{
		{Name: "undef", Program: undef.MustBuild(), GridDim: 2, BlockDim: 32},
		{Name: "shared_oob", Program: oob.MustBuild(), GridDim: 2, BlockDim: 32, SharedWords: 64},
	} {
		if err := k.CheckGeometry(); err != nil {
			t.Fatalf("%s: geometry %v", k.Name, err)
		}
		if err := k.Validate(); err == nil {
			t.Fatalf("%s: Validate accepted it; the test needs a kernel its verifier rejects", k.Name)
		}
		if _, err := g.Launch(context.Background(), k); err == nil {
			t.Errorf("%s: Launch accepted a kernel Validate rejects", k.Name)
		}
	}
	if g.Cycle() != 0 {
		t.Errorf("a rejected launch simulated %d cycles", g.Cycle())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{Config: config.Small()}); err == nil {
		t.Fatal("missing memory accepted")
	}
	bad := config.Small()
	bad.NumSMs = 0
	if _, err := New(Options{Config: bad, Memory: memory.New(1 << 12)}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestMultiLaunchAccumulatesGIDs(t *testing.T) {
	mem := memory.New(1 << 16)
	g, err := New(Options{Config: config.Small(), Memory: mem})
	if err != nil {
		t.Fatal(err)
	}
	k := trivialKernel(t, 3, 64)
	l1, err := g.Launch(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := g.Launch(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for _, w := range l1.Warps {
		seen[w.GID] = true
	}
	for _, w := range l2.Warps {
		if seen[w.GID] {
			t.Fatalf("gid %d reused across launches", w.GID)
		}
	}
	// Block ids must be unique across launches too.
	blocks := make(map[int]bool)
	for _, w := range append(l1.Warps, l2.Warps...) {
		blocks[w.Block] = true
	}
	if len(blocks) != 6 {
		t.Fatalf("distinct blocks %d, want 6", len(blocks))
	}
	// Cycle counter keeps advancing.
	if g.Cycle() <= l1.Cycles {
		t.Fatalf("global cycle %d did not accumulate", g.Cycle())
	}
}

func TestBlocksSpreadAcrossSMs(t *testing.T) {
	mem := memory.New(1 << 16)
	g, err := New(Options{Config: config.Small(), Memory: mem})
	if err != nil {
		t.Fatal(err)
	}
	launch, err := g.Launch(context.Background(), trivialKernel(t, 8, 64))
	if err != nil {
		t.Fatal(err)
	}
	perSM := make(map[int]int)
	for _, w := range launch.Warps {
		perSM[w.SM]++
	}
	if len(perSM) != 2 {
		t.Fatalf("blocks landed on %d SMs, want 2 (breadth-first dispatch)", len(perSM))
	}
}

func TestPerCycleHook(t *testing.T) {
	mem := memory.New(1 << 16)
	g, err := New(Options{Config: config.Small(), Memory: mem})
	if err != nil {
		t.Fatal(err)
	}
	var calls int64
	g.PerCycle = func(gg *GPU, cycle int64) { calls++ }
	launch, err := g.Launch(context.Background(), trivialKernel(t, 2, 64))
	if err != nil {
		t.Fatal(err)
	}
	if calls != launch.Cycles {
		t.Fatalf("hook called %d times over %d cycles", calls, launch.Cycles)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() int64 {
		mem := memory.New(1 << 20)
		buf := mem.Alloc(1024)
		b := isa.NewBuilder("det")
		b.SReg(isa.R0, isa.SRGTid)
		b.RemI(isa.R1, isa.R0, 100)
		b.MulI(isa.R1, isa.R1, 8)
		b.Param(isa.R2, 0)
		b.Add(isa.R1, isa.R1, isa.R2)
		b.Ld(isa.R3, isa.R1, 0)
		b.AddI(isa.R3, isa.R3, 1)
		b.St(isa.R1, 0, isa.R3)
		b.Exit()
		k := &simt.Kernel{Name: "det", Program: b.MustBuild(), GridDim: 6, BlockDim: 128,
			Params: []int64{buf}}
		g, err := New(Options{Config: config.Small(), Memory: mem})
		if err != nil {
			t.Fatal(err)
		}
		launch, err := g.Launch(context.Background(), k)
		if err != nil {
			t.Fatal(err)
		}
		return launch.Cycles
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic: %d vs %d cycles", a, b)
	}
}

func TestCoalescingFactor(t *testing.T) {
	run := func(strideBytes int64) float64 {
		mem := memory.New(1 << 22)
		buf := mem.Alloc(32 * 512)
		b := isa.NewBuilder("coal")
		b.SReg(isa.R0, isa.SRLane)
		b.MulI(isa.R1, isa.R0, strideBytes)
		b.Param(isa.R2, 0)
		b.Add(isa.R1, isa.R1, isa.R2)
		b.Ld(isa.R3, isa.R1, 0)
		b.Exit()
		k := &simt.Kernel{Name: "coal", Program: b.MustBuild(), GridDim: 1, BlockDim: 32,
			Params: []int64{buf}}
		g, err := New(Options{Config: config.Small(), Memory: mem})
		if err != nil {
			t.Fatal(err)
		}
		launch, err := g.Launch(context.Background(), k)
		if err != nil {
			t.Fatal(err)
		}
		return launch.CoalescingFactor()
	}
	if got := run(8); got != 2 { // 32 lanes x 8B = 256B = 2 lines
		t.Fatalf("coalesced factor %v, want 2", got)
	}
	if got := run(128); got != 32 { // one line per lane
		t.Fatalf("scattered factor %v, want 32", got)
	}
}

func TestMaxCyclesGuard(t *testing.T) {
	mem := memory.New(1 << 16)
	cfg := config.Small()
	cfg.MaxCycles = 100
	g, err := New(Options{Config: cfg, Memory: mem})
	if err != nil {
		t.Fatal(err)
	}
	b := isa.NewBuilder("spin")
	b.Label("head")
	b.Bra("head")
	b.Exit()
	k := &simt.Kernel{Name: "spin", Program: b.MustBuild(), GridDim: 1, BlockDim: 32}
	if _, err := g.Launch(context.Background(), k); err == nil {
		t.Fatal("runaway kernel not aborted")
	}
}

// TestLaunchVerifiesEachShapeOnce: a relaunch of a program under a
// launch shape this GPU already accepted skips analysis.Verify; any
// field of the shape that differs — the parameters, even when the
// caller rewrites its slice in place, or the memory size — is verified
// again, and a kernel the verifier refuses is refused on every launch.
func TestLaunchVerifiesEachShapeOnce(t *testing.T) {
	mem := memory.New(1 << 16)
	g, err := New(Options{Config: config.Small(), Memory: mem})
	if err != nil {
		t.Fatal(err)
	}
	b := isa.NewBuilder("store_param")
	b.Param(isa.R1, 0)
	b.St(isa.R1, 0, isa.R1) // every lane stores to params[0]
	b.Exit()
	k := &simt.Kernel{Name: "store_param", Program: b.MustBuild(), GridDim: 1, BlockDim: 32,
		Params: []int64{memory.Base}}
	launch := func(want int, ok bool) {
		t.Helper()
		_, err := g.Launch(context.Background(), k)
		if (err == nil) != ok {
			t.Fatalf("params %v: launch error %v, want ok=%v", k.Params, err, ok)
		}
		if g.verifies != want {
			t.Fatalf("params %v: %d verifier runs, want %d", k.Params, g.verifies, want)
		}
	}
	launch(1, true)
	launch(1, true) // the same shape: skipped
	k.Params = []int64{memory.Base + 8}
	launch(2, true)
	k.Params[0] = memory.Base // rewritten in place: the first shape again
	launch(2, true)
	k.Params[0] = mem.Size() + 1<<20 // every lane stores past the memory
	launch(3, false)
	launch(4, false) // refused again, not remembered
	k.Params = []int64{memory.Base + 8}
	launch(4, true)

	// The memory size is part of the shape.
	shape := k.AnalysisLaunch()
	shape.WarpSize = g.cfg.WarpSize
	shape.GlobalBytes = mem.Size()
	if err := g.verifyLaunch(k.Program, shape); err != nil || g.verifies != 4 {
		t.Fatalf("remembered shape: err %v, %d runs", err, g.verifies)
	}
	shape.GlobalBytes = 1 << 30
	if err := g.verifyLaunch(k.Program, shape); err != nil || g.verifies != 5 {
		t.Fatalf("new GlobalBytes: err %v, %d runs, want 5", err, g.verifies)
	}

	// A program the verifier rejects is rejected on every launch.
	undef := isa.NewBuilder("undef")
	undef.Add(isa.R1, isa.R2, isa.R3)
	undef.Exit()
	bad := &simt.Kernel{Name: "undef", Program: undef.MustBuild(), GridDim: 1, BlockDim: 32}
	for i := 0; i < 2; i++ {
		if _, err := g.Launch(context.Background(), bad); err == nil {
			t.Fatalf("launch %d accepted a kernel the verifier rejects", i)
		}
	}
	if g.verifies != 7 {
		t.Fatalf("%d verifier runs, want 7", g.verifies)
	}
}

// TestVerifyMemoIsBounded: a GPU keeps at most maxVerified accepted
// shapes, dropping the oldest, and one that cycled out is verified again.
func TestVerifyMemoIsBounded(t *testing.T) {
	g, err := New(Options{Config: config.Small(), Memory: memory.New(1 << 16)})
	if err != nil {
		t.Fatal(err)
	}
	k := trivialKernel(t, 1, 32)
	for i := 0; i <= maxVerified; i++ {
		k.Params = []int64{int64(i)}
		if _, err := g.Launch(context.Background(), k); err != nil {
			t.Fatal(err)
		}
	}
	if len(g.verified) != maxVerified || g.verifies != maxVerified+1 {
		t.Fatalf("%d remembered, %d runs; want %d, %d", len(g.verified), g.verifies, maxVerified, maxVerified+1)
	}
	k.Params = []int64{0} // the oldest, dropped
	if _, err := g.Launch(context.Background(), k); err != nil || g.verifies != maxVerified+2 {
		t.Fatalf("err %v, %d runs; want %d", err, g.verifies, maxVerified+2)
	}
}

// TestSameLaunchComparesEveryField: changing any one field of an
// analysis.Launch makes it a different shape, so a field added to the
// struct must be added to sameLaunch too.
func TestSameLaunchComparesEveryField(t *testing.T) {
	base := analysis.Launch{GridDim: 2, BlockDim: 64, WarpSize: 32, SharedWords: 16, Params: []int64{1, 2}, GlobalBytes: 1 << 16}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		changed := base
		changed.Params = slices.Clone(base.Params)
		f := reflect.ValueOf(&changed).Elem().Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Slice:
			f.Index(0).SetInt(f.Index(0).Int() + 1)
		default:
			t.Fatalf("field %s: kind %s not covered by this test", typ.Field(i).Name, f.Kind())
		}
		if sameLaunch(&base, &changed) {
			t.Errorf("sameLaunch ignores %s", typ.Field(i).Name)
		}
	}
	if !sameLaunch(&base, &analysis.Launch{GridDim: 2, BlockDim: 64, WarpSize: 32, SharedWords: 16, Params: []int64{1, 2}, GlobalBytes: 1 << 16}) {
		t.Error("sameLaunch rejects an equal shape")
	}
}
