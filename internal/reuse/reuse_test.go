package reuse

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cawa/internal/cache"
)

// naiveDistance is an O(n) reference: distinct lines since the previous
// access of the same line.
type naiveDistance struct {
	stream []int64
}

func (n *naiveDistance) record(line int64) int64 {
	defer func() { n.stream = append(n.stream, line) }()
	last := -1
	for i := len(n.stream) - 1; i >= 0; i-- {
		if n.stream[i] == line {
			last = i
			break
		}
	}
	if last < 0 {
		return Cold
	}
	distinct := make(map[int64]bool)
	for _, l := range n.stream[last+1:] {
		distinct[l] = true
	}
	return int64(len(distinct))
}

func TestDistanceTrackerBasics(t *testing.T) {
	tr := NewDistanceTracker()
	if d := tr.Record(1); d != Cold {
		t.Fatalf("first access distance %d", d)
	}
	if d := tr.Record(1); d != 0 {
		t.Fatalf("immediate re-reference distance %d", d)
	}
	tr.Record(2)
	tr.Record(3)
	if d := tr.Record(1); d != 2 {
		t.Fatalf("distance after 2 distinct lines = %d", d)
	}
	if got := tr.UniqueLines(); got != 3 {
		t.Fatalf("unique lines %d", got)
	}
}

// TestDistanceTrackerMatchesNaive is the central property: the Fenwick
// implementation equals the brute-force definition on random streams.
func TestDistanceTrackerMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := NewDistanceTracker()
		ref := &naiveDistance{}
		for i := 0; i < 400; i++ {
			line := int64(rng.Intn(40))
			if tr.Record(line) != ref.record(line) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestDistanceTrackerGrowth exercises the capacity-compaction path.
func TestDistanceTrackerGrowth(t *testing.T) {
	tr := NewDistanceTracker()
	ref := &naiveDistance{}
	rng := rand.New(rand.NewSource(3))
	// More accesses than the initial 1024-capacity tree.
	for i := 0; i < 5000; i++ {
		line := int64(rng.Intn(64))
		got, want := tr.Record(line), ref.record(line)
		if got != want {
			t.Fatalf("access %d: got %d, want %d", i, got, want)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Add(Cold)
	h.Add(0)
	h.Add(1)
	h.Add(2)
	h.Add(3)
	h.Add(8)
	if h.Total != 6 || h.ColdN != 1 || h.Reuses() != 5 {
		t.Fatalf("histogram totals %+v", h)
	}
	if h.Buckets[0] != 1 { // distance 0
		t.Fatalf("bucket0 %d", h.Buckets[0])
	}
	if h.Buckets[1] != 1 { // distance 1
		t.Fatalf("bucket1 %d", h.Buckets[1])
	}
	if h.Buckets[2] != 2 { // distances 2,3
		t.Fatalf("bucket2 %d", h.Buckets[2])
	}
}

// TestHistogramMerge: merging two histograms counts what adding every
// distance to one would.
func TestHistogramMerge(t *testing.T) {
	var a, b, all Histogram
	for _, d := range []int64{Cold, 0, 5} {
		a.Add(d)
		all.Add(d)
	}
	for _, d := range []int64{Cold, 3, 1 << 40} {
		b.Add(d)
		all.Add(d)
	}
	a.Merge(&b)
	if a != all {
		t.Fatalf("merged %+v, want %+v", a, all)
	}
}

func TestFracBeyond(t *testing.T) {
	var h Histogram
	for i := 0; i < 10; i++ {
		h.Add(0) // fits any cache
	}
	for i := 0; i < 10; i++ {
		h.Add(64) // beyond a 4-line set
	}
	got := h.FracBeyond(4)
	if got < 0.45 || got > 0.55 {
		t.Fatalf("FracBeyond(4) = %v, want ~0.5", got)
	}
	if h.FracBeyond(1<<30) != 0 {
		t.Fatal("nothing should be beyond a huge cache")
	}
	var empty Histogram
	if empty.FracBeyond(4) != 0 {
		t.Fatal("empty histogram FracBeyond")
	}
}

// TestFracBeyondMonotone: larger caches never increase the beyond
// fraction.
func TestFracBeyondMonotone(t *testing.T) {
	f := func(ds []uint16) bool {
		var h Histogram
		for _, d := range ds {
			h.Add(int64(d % 512))
		}
		prev := 1.1
		for limit := int64(1); limit <= 1024; limit *= 2 {
			cur := h.FracBeyond(limit)
			if cur > prev+1e-9 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestProfilerPerWarpAndPerPC(t *testing.T) {
	p := NewProfiler(4, 128, 8, 64)
	// Warp 1 streams (no reuse); warp 2 re-references one line.
	for i := int64(0); i < 10; i++ {
		p.Record(cache.Request{Addr: i * 128, Warp: 1, PC: 10}, false)
	}
	const fresh = 4096 * 128 // line untouched by warp 1
	p.Record(cache.Request{Addr: fresh, Warp: 2, PC: 20, Critical: true}, true)
	p.Record(cache.Request{Addr: fresh, Warp: 2, PC: 20, Critical: true}, true)

	if h := p.ByWarp[1]; h == nil || h.Reuses() != 0 || h.ColdN != 10 {
		t.Fatalf("warp1 histogram %+v", h)
	}
	if h := p.ByWarp[2]; h == nil || h.Reuses() != 1 || h.ColdN != 1 {
		t.Fatalf("warp2 histogram %+v", h)
	}
	st := p.ByPC[20]
	if st == nil || st.Accesses != 2 || st.CriticalReuses != 1 {
		t.Fatalf("PC 20 stats %+v", st)
	}
	if st10 := p.ByPC[10]; st10.Cold != 10 {
		t.Fatalf("PC 10 cold %d", st10.Cold)
	}
	if got := p.WarpFracBeyond([]int{1, 2}, 4); got != 0 {
		t.Fatalf("pooled beyond = %v (the only reuse is at distance 0)", got)
	}
}

func TestProfilerPerSetDistances(t *testing.T) {
	p := NewProfiler(2, 128, 8, 64)
	// Lines 0 and 2 map to set 0; line 1 maps to set 1. Accessing
	// 0,1,0: the second access to 0 has per-set distance 1 (line 2
	// intervened in the same set) but would be 2 globally.
	p.Record(cache.Request{Addr: 0 * 128, Warp: 0}, false)
	p.Record(cache.Request{Addr: 2 * 128, Warp: 0}, false)
	p.Record(cache.Request{Addr: 1 * 128, Warp: 0}, false)
	p.Record(cache.Request{Addr: 0 * 128, Warp: 0}, false)
	h := p.ByWarp[0]
	if h.Reuses() != 1 {
		t.Fatalf("reuses %d", h.Reuses())
	}
	if h.Buckets[1] != 1 { // distance exactly 1
		t.Fatalf("expected per-set distance 1, histogram %+v", h)
	}
}
