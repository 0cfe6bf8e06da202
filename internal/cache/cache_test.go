package cache

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"cawa/internal/config"
	"cawa/internal/state"
)

func smallCfg() config.CacheConfig {
	return config.CacheConfig{Sets: 4, Ways: 2, LineBytes: 128, MSHRs: 4, MSHRTargets: 4}
}

func TestBlockAndSetIndex(t *testing.T) {
	c := New(smallCfg(), LRU{})
	if got := c.BlockAddr(0x1234); got != 0x1200 {
		t.Fatalf("BlockAddr = %#x", got)
	}
	if got := c.SetIndex(0x1234); got != (0x1234>>7)&3 {
		t.Fatalf("SetIndex = %d", got)
	}
	// Same line -> same set regardless of offset within line.
	if c.SetIndex(0x1200) != c.SetIndex(0x127F) {
		t.Fatal("offsets within a line map to different sets")
	}
}

func TestNonPowerOfTwoSets(t *testing.T) {
	cfg := config.CacheConfig{Sets: 6, Ways: 2, LineBytes: 128}
	c := New(cfg, LRU{})
	for addr := int64(0); addr < 1<<16; addr += 128 {
		s := c.SetIndex(addr)
		if s < 0 || s >= 6 {
			t.Fatalf("set %d out of range for addr %#x", s, addr)
		}
	}
	// All sets reachable.
	seen := make(map[int]bool)
	for addr := int64(0); addr < 128*64; addr += 128 {
		seen[c.SetIndex(addr)] = true
	}
	if len(seen) != 6 {
		t.Fatalf("only %d sets reachable", len(seen))
	}
}

func TestHitMissFill(t *testing.T) {
	c := New(smallCfg(), LRU{})
	req := Request{Addr: 0x1000}
	if c.Access(req) {
		t.Fatal("hit in empty cache")
	}
	c.Fill(req)
	if !c.Access(req) {
		t.Fatal("miss after fill")
	}
	if c.Accesses != 2 || c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("counters: %d/%d/%d", c.Accesses, c.Hits, c.Misses)
	}
	if got := c.HitRate(); got != 0.5 {
		t.Fatalf("hit rate %v", got)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(smallCfg(), LRU{}) // 2 ways per set
	// Three lines in the same set: A, B, then touch A, fill C -> B evicted.
	lineA := int64(0 * 4 * 128)
	lineB := int64(1 * 4 * 128)
	lineC := int64(2 * 4 * 128)
	c.Fill(Request{Addr: lineA})
	c.Fill(Request{Addr: lineB})
	c.Access(Request{Addr: lineA}) // A now MRU
	ev := c.Fill(Request{Addr: lineC})
	if !ev.Valid || ev.Addr != lineB {
		t.Fatalf("evicted %#x (valid=%v), want %#x", ev.Addr, ev.Valid, lineB)
	}
	if !c.Access(Request{Addr: lineA}) || !c.Access(Request{Addr: lineC}) {
		t.Fatal("survivors missing")
	}
}

func TestDirtyEvictionCarriesState(t *testing.T) {
	c := New(smallCfg(), LRU{})
	c.Fill(Request{Addr: 0, Write: true})
	c.Fill(Request{Addr: 4 * 128})
	ev := c.Fill(Request{Addr: 8 * 128})
	if !ev.Valid || !ev.Dirty || ev.Addr != 0 {
		t.Fatalf("dirty eviction: %+v", ev)
	}
}

func TestRefsAndFillMetadata(t *testing.T) {
	c := New(smallCfg(), LRU{})
	c.Fill(Request{Addr: 0x80, Warp: 9, Critical: true})
	c.Access(Request{Addr: 0x80})
	c.Access(Request{Addr: 0x80})
	set, way, hit := c.Probe(0x80)
	if !hit {
		t.Fatal("probe missed")
	}
	l := c.Line(set, way)
	if l.Refs != 2 || l.FillWarp != 9 || !l.FillCritical {
		t.Fatalf("line metadata: %+v", l)
	}
}

func TestEvictListener(t *testing.T) {
	c := New(smallCfg(), LRU{})
	var got []int64
	c.EvictListener = func(ev *Eviction) { got = append(got, ev.Addr) }
	c.Fill(Request{Addr: 0})
	c.Fill(Request{Addr: 4 * 128})
	c.Fill(Request{Addr: 8 * 128}) // evicts line 0
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("listener saw %v", got)
	}
}

func TestSRRIPInsertPromoteEvict(t *testing.T) {
	c := New(smallCfg(), SRRIP{})
	c.Fill(Request{Addr: 0})
	set, way, _ := c.Probe(0)
	if got := c.Line(set, way).RRPV; got != RRPVLong {
		t.Fatalf("insert RRPV = %d, want %d", got, RRPVLong)
	}
	c.Access(Request{Addr: 0})
	if got := c.Line(set, way).RRPV; got != RRPVNear {
		t.Fatalf("promoted RRPV = %d, want %d", got, RRPVNear)
	}
	// Fill a second line; evicting a third time must pick the non-promoted one.
	c.Fill(Request{Addr: 4 * 128})
	ev := c.Fill(Request{Addr: 8 * 128})
	if !ev.Valid || ev.Addr != 4*128 {
		t.Fatalf("SRRIP evicted %#x, want %#x", ev.Addr, int64(4*128))
	}
}

func TestSRRIPVictimAmongRestriction(t *testing.T) {
	cfg := config.CacheConfig{Sets: 1, Ways: 4, LineBytes: 128}
	c := New(cfg, SRRIP{})
	for i := int64(0); i < 4; i++ {
		c.Fill(Request{Addr: i * 128})
	}
	// Promote everything, then restrict victims to ways {2,3}.
	for i := int64(0); i < 4; i++ {
		c.Access(Request{Addr: i * 128})
	}
	v := SRRIPVictimAmong(c, 0, []int{2, 3})
	if v != 2 && v != 3 {
		t.Fatalf("victim %d outside restriction", v)
	}
	// Ways 0,1 must not have been aged past max by the scan.
	for w := 0; w < 2; w++ {
		if c.Line(0, w).RRPV > RRPVMax {
			t.Fatalf("way %d RRPV overflow", w)
		}
	}
}

// lruRef is a straightforward reference model of a set-associative LRU
// cache for property testing.
type lruRef struct {
	ways int
	sets map[int][]int64 // MRU-first line addresses
}

func (r *lruRef) access(set int, line int64) bool {
	s := r.sets[set]
	for i, l := range s {
		if l == line {
			r.sets[set] = append([]int64{line}, append(append([]int64{}, s[:i]...), s[i+1:]...)...)
			return true
		}
	}
	if len(s) >= r.ways {
		s = s[:r.ways-1]
	}
	r.sets[set] = append([]int64{line}, s...)
	return false
}

// TestLRUMatchesReference drives the cache and a reference LRU model
// with the same random access stream; hit/miss sequences must agree.
func TestLRUMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := smallCfg()
		c := New(cfg, LRU{})
		ref := &lruRef{ways: cfg.Ways, sets: make(map[int][]int64)}
		for i := 0; i < 500; i++ {
			addr := int64(rng.Intn(24)) * 128 // 24 lines over 4 sets
			req := Request{Addr: addr}
			got := c.Access(req)
			if !got {
				c.Fill(req)
			}
			want := ref.access(c.SetIndex(addr), c.BlockAddr(addr))
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestCacheInvariants: after any access stream, no duplicate tags
// within a set and all valid lines map to their set.
func TestCacheInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(smallCfg(), SRRIP{})
		for i := 0; i < 300; i++ {
			addr := int64(rng.Intn(64)) * 128
			req := Request{Addr: addr, Write: rng.Intn(4) == 0}
			if !c.Access(req) {
				c.Fill(req)
			}
		}
		for s := 0; s < c.Sets(); s++ {
			seen := make(map[int64]bool)
			for w := 0; w < c.Ways(); w++ {
				l := c.Line(s, w)
				if !l.Valid {
					continue
				}
				if seen[l.Tag] {
					return false // duplicate line in set
				}
				seen[l.Tag] = true
				if c.SetIndex(l.Tag) != s {
					return false // line in wrong set
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBadPolicyVictimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c := New(smallCfg(), badPolicy{})
	c.Fill(Request{Addr: 0})
	c.Fill(Request{Addr: 4 * 128})
	c.Fill(Request{Addr: 8 * 128}) // needs a victim; policy returns -7
}

type badPolicy struct{}

func (badPolicy) Name() string                        { return "bad" }
func (badPolicy) OnFill(*Cache, int, int, Request)    {}
func (badPolicy) OnHit(*Cache, int, int, Request)     {}
func (badPolicy) Victim(*Cache, int, Request) int     { return -7 }
func (badPolicy) OnEvict(*Cache, int, int, *Eviction) {}

// TestTouchLRUMatchesTouch replays one random read stream on two LRU
// caches, hits through Touch on one and TouchLRU on the other: the tag
// arrays, counters and clocks must stay byte-identical.
func TestTouchLRUMatchesTouch(t *testing.T) {
	a, b := New(smallCfg(), LRU{}), New(smallCfg(), LRU{})
	rng := rand.New(rand.NewSource(3))
	hits := 0
	for i := 0; i < 5000; i++ {
		req := Request{Addr: int64(rng.Intn(24)) * 128}
		set, way, hit := a.Probe(req.Addr)
		if hit {
			hits++
			a.Touch(set, way, req)
			b.TouchLRU(set, way)
			continue
		}
		for _, c := range []*Cache{a, b} {
			c.Access(req)
			c.Fill(req)
		}
	}
	sa, sb := state.NewSaver(0), state.NewSaver(0)
	a.Archive(sa)
	b.Archive(sb)
	if !bytes.Equal(sa.Bytes(), sb.Bytes()) {
		t.Fatal("TouchLRU diverged from Touch under LRU")
	}
	if hits == 0 || a.Hits != b.Hits || a.Accesses != b.Accesses {
		t.Fatalf("%d hits; counters %d/%d vs %d/%d", hits, a.Hits, a.Accesses, b.Hits, b.Accesses)
	}
}
