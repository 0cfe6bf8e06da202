package sched

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"cawa/internal/state"
)

// mkCtx builds a selection context with fixed ages (slot index = age)
// and criticality values.
func mkCtx(ready []int, crit map[int]float64, waiting map[int]bool) *Context {
	var set []uint64
	for s, w := range waiting {
		for w && s>>6 >= len(set) {
			set = append(set, 0)
		}
		if w {
			set[s>>6] |= 1 << (s & 63)
		}
	}
	return &Context{
		Ready: ready,
		Age:   func(s int) int64 { return int64(s) },
		Criticality: func(s int) float64 {
			return crit[s]
		},
		Waiting: set,
	}
}

// newPolicy returns a fresh instance of the registered policy name.
func newPolicy(name string) Policy {
	f, _ := Lookup(name)
	return f()
}

func TestRegistry(t *testing.T) {
	names := Names()
	want := []string{"2lvl", "caws", "gcaws", "gto", "lrr"}
	if len(names) != len(want) {
		t.Fatalf("registered %v", names)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("registered %v, want %v", names, want)
		}
		f, ok := Lookup(n)
		if !ok || f() == nil {
			t.Fatalf("factory for %s broken", n)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("bogus lookup succeeded")
	}
}

func TestLRRRotation(t *testing.T) {
	p := NewLRR()
	ready := []int{1, 3, 5}
	var order []int
	for i := 0; i < 6; i++ {
		order = append(order, p.Select(mkCtx(ready, nil, nil)))
	}
	want := []int{1, 3, 5, 1, 3, 5}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("rotation %v, want %v", order, want)
		}
	}
	if p.Select(mkCtx(nil, nil, nil)) != -1 {
		t.Fatal("empty ready must select -1")
	}
}

func TestLRRSkipsNotReady(t *testing.T) {
	p := NewLRR()
	if got := p.Select(mkCtx([]int{2, 4}, nil, nil)); got != 2 {
		t.Fatalf("first pick %d", got)
	}
	// Slot 3 becomes ready; it is after 2, so it goes next.
	if got := p.Select(mkCtx([]int{3, 4}, nil, nil)); got != 3 {
		t.Fatalf("second pick %d", got)
	}
	// Wrap around.
	if got := p.Select(mkCtx([]int{0, 1}, nil, nil)); got != 0 {
		t.Fatalf("wrap pick %d", got)
	}
}

func TestGTOGreedyThenOldest(t *testing.T) {
	p := newPolicy("gto")
	// First pick: oldest ready = 2.
	if got := p.Select(mkCtx([]int{5, 2, 9}, nil, nil)); got != 2 {
		t.Fatalf("first pick %d", got)
	}
	// Greedy: 2 still ready, stick with it.
	if got := p.Select(mkCtx([]int{2, 5}, nil, nil)); got != 2 {
		t.Fatalf("greedy pick %d", got)
	}
	// 2 stalls: switch to oldest remaining (5), then stay greedy on 5.
	if got := p.Select(mkCtx([]int{9, 5}, nil, nil)); got != 5 {
		t.Fatalf("switch pick %d", got)
	}
	if got := p.Select(mkCtx([]int{5, 2}, nil, nil)); got != 5 {
		t.Fatalf("greedy-after-switch pick %d", got)
	}
	p.OnWarpFinished(5)
	if got := p.Select(mkCtx([]int{9, 2}, nil, nil)); got != 2 {
		t.Fatalf("post-finish pick %d", got)
	}
}

func TestTwoLevelActiveSetLimit(t *testing.T) {
	p := NewTwoLevel(2)
	for s := 0; s < 4; s++ {
		p.OnWarpArrived(s)
	}
	// Only the active set {0,1} may issue.
	picks := map[int]bool{}
	for i := 0; i < 4; i++ {
		picks[p.Select(mkCtx([]int{0, 1, 2, 3}, nil, nil))] = true
	}
	if picks[2] || picks[3] {
		t.Fatalf("pending warps issued: %v", picks)
	}
	// Demote 0 and 1 on memory wait: 2 and 3 get promoted.
	waiting := map[int]bool{0: true, 1: true}
	got := p.Select(mkCtx([]int{2, 3}, nil, waiting))
	if got != 2 && got != 3 {
		t.Fatalf("promoted pick %d", got)
	}
}

func TestTwoLevelFinishCleanup(t *testing.T) {
	p := NewTwoLevel(2)
	p.OnWarpArrived(0)
	p.OnWarpArrived(1)
	p.OnWarpArrived(2)
	p.OnWarpFinished(0)
	p.OnWarpFinished(1)
	// Slot 2 must be promotable even though actives finished.
	if got := p.Select(mkCtx([]int{2}, nil, nil)); got != 2 {
		t.Fatalf("pick after finishes %d", got)
	}
}

func TestGCAWSCriticalityFirst(t *testing.T) {
	p := newPolicy("gcaws")
	crit := map[int]float64{1: 5, 4: 50, 7: 20}
	if got := p.Select(mkCtx([]int{1, 4, 7}, crit, nil)); got != 4 {
		t.Fatalf("pick %d, want most critical 4", got)
	}
	// Greedy: stays on 4 while ready even if others become more critical.
	crit[7] = 100
	if got := p.Select(mkCtx([]int{1, 4, 7}, crit, nil)); got != 4 {
		t.Fatalf("greedy pick %d", got)
	}
	// 4 stalls: now the most critical ready is 7.
	if got := p.Select(mkCtx([]int{1, 7}, crit, nil)); got != 7 {
		t.Fatalf("switch pick %d", got)
	}
}

func TestGCAWSTieBreakOldest(t *testing.T) {
	p := newPolicy("gcaws")
	crit := map[int]float64{3: 10, 8: 10, 5: 10}
	if got := p.Select(mkCtx([]int{5, 3, 8}, crit, nil)); got != 3 {
		t.Fatalf("tie pick %d, want oldest 3", got)
	}
}

func TestCAWSReRanksEveryCycle(t *testing.T) {
	p := newPolicy("caws")
	crit := map[int]float64{1: 5, 2: 50}
	if got := p.Select(mkCtx([]int{1, 2}, crit, nil)); got != 2 {
		t.Fatalf("pick %d", got)
	}
	// Unlike gCAWS, CAWS re-ranks: when 1 becomes more critical it wins
	// immediately even though 2 is still ready.
	crit[1] = 99
	if got := p.Select(mkCtx([]int{1, 2}, crit, nil)); got != 1 {
		t.Fatalf("re-rank pick %d", got)
	}
}

// TestPoliciesAlwaysPickReady: for any ready set, every policy returns
// either -1 (only when empty for lrr/gto/gcaws/caws) or a member of the
// ready set.
func TestPoliciesAlwaysPickReady(t *testing.T) {
	f := func(readySeed []uint8, critSeed []uint8) bool {
		ready := make([]int, 0, len(readySeed))
		seen := map[int]bool{}
		for _, r := range readySeed {
			s := int(r % 48)
			if !seen[s] {
				seen[s] = true
				ready = append(ready, s)
			}
		}
		crit := map[int]float64{}
		for i, c := range critSeed {
			crit[i%48] = float64(c)
		}
		for _, name := range []string{"lrr", "gto", "gcaws", "caws"} {
			f, _ := Lookup(name)
			p := f()
			got := p.Select(mkCtx(ready, crit, nil))
			if len(ready) == 0 {
				if got != -1 {
					return false
				}
				continue
			}
			if !seen[got] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestTwoLevelPicksFromReadyOrIdles: 2lvl may idle (active set blocked)
// but must never pick an unready slot.
func TestTwoLevelPicksFromReadyOrIdles(t *testing.T) {
	f := func(arrivals [12]uint8, readySeed [8]uint8) bool {
		p := NewTwoLevel(4)
		seenArr := map[int]bool{}
		for _, a := range arrivals {
			s := int(a % 24)
			if !seenArr[s] {
				seenArr[s] = true
				p.OnWarpArrived(s)
			}
		}
		ready := make([]int, 0, len(readySeed))
		seen := map[int]bool{}
		for _, r := range readySeed {
			s := int(r % 24)
			if seenArr[s] && !seen[s] {
				seen[s] = true
				ready = append(ready, s)
			}
		}
		got := p.Select(mkCtx(ready, nil, nil))
		return got == -1 || seen[got]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Register("lrr", func() Policy { return NewLRR() })
}

// TestTwoLevelMembershipTracksActive drives the two-level policy through
// random arrivals, finishes and selects, with some warps waiting on
// memory: its membership bitset must name exactly the active list at
// every step, and a policy loaded from its Archive must agree too.
func TestTwoLevelMembershipTracksActive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := NewTwoLevel(4)
	waiting := map[int]bool{}
	resident := map[int]bool{}
	ctx := &Context{
		Age:         func(s int) int64 { return int64(s) },
		Criticality: func(int) float64 { return 0 },
		Waiting:     make([]uint64, 2),
	}
	check := func(q *TwoLevel, step int) {
		for s := 0; s < 80; s++ {
			if got, want := q.inActive(s), slices.Contains(q.active, s); got != want {
				t.Fatalf("step %d: slot %d member=%v, active %v", step, s, got, q.active)
			}
		}
	}
	for step := 0; step < 5000; step++ {
		s := rng.Intn(80)
		switch r := rng.Intn(4); {
		case r == 0 && !resident[s]:
			resident[s] = true
			p.OnWarpArrived(s)
		case r == 1 && resident[s]:
			delete(resident, s)
			p.OnWarpFinished(s)
		case r == 2:
			waiting[s] = !waiting[s]
			ctx.Waiting[s>>6] ^= 1 << (s & 63)
		default:
			ctx.Ready = ctx.Ready[:0]
			for i := 0; i < 80; i++ {
				if resident[i] && !waiting[i] {
					ctx.Ready = append(ctx.Ready, i)
				}
			}
			p.Select(ctx)
		}
		check(p, step)
		if step%500 == 0 {
			save := state.NewSaver(0)
			p.Archive(save)
			q := NewTwoLevel(4)
			q.OnWarpArrived(79) // stale membership the load must clear
			load := state.NewLoader(save.Bytes())
			if q.Archive(load); load.Err() != nil {
				t.Fatal(load.Err())
			}
			check(q, step)
		}
	}
}
