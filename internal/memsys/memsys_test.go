package memsys

import (
	"testing"

	"cawa/internal/cache"
	"cawa/internal/config"
)

func testCfg() config.Config {
	c := config.Small()
	return c
}

type fillRecord struct {
	addr   int64
	tokens []int64
	at     int64
}

type collector struct {
	now   int64
	fills []fillRecord
}

func (c *collector) handler(addr int64, tokens []int64) {
	c.fills = append(c.fills, fillRecord{addr, append([]int64(nil), tokens...), c.now})
}

// drive advances the system until the L1 has no outstanding misses.
func drive(s *System, col *collector, from int64, max int64) int64 {
	now := from
	for ; now < from+max; now++ {
		col.now = now
		s.Cycle(now)
		if s.Drained() {
			break
		}
	}
	return now
}

func TestL1HitNoTraffic(t *testing.T) {
	cfg := testCfg()
	s := New(cfg)
	col := &collector{}
	l1 := s.NewL1D(cache.LRU{}, col.handler)
	// Preload the line.
	l1.Cache().Fill(cache.Request{Addr: 0x1000})
	if got := l1.AccessLoad(cache.Request{Addr: 0x1000}, 1, 10); got != Hit {
		t.Fatalf("outcome %v, want hit", got)
	}
	if !s.Drained() {
		t.Fatal("hit generated memory traffic")
	}
	if l1.LoadMisses != 0 || l1.LoadAccesses != 1 {
		t.Fatalf("counters: misses=%d accesses=%d", l1.LoadMisses, l1.LoadAccesses)
	}
}

func TestMissLatencyL2Hit(t *testing.T) {
	cfg := testCfg()
	s := New(cfg)
	col := &collector{}
	l1 := s.NewL1D(cache.LRU{}, col.handler)
	// Warm the L2 with the line so the miss is an L2 hit.
	s.L2().Fill(cache.Request{Addr: 0x2000})

	if got := l1.AccessLoad(cache.Request{Addr: 0x2000}, 7, 100); got != Miss {
		t.Fatalf("outcome %v, want miss", got)
	}
	drive(s, col, 101, 10_000)
	if len(col.fills) != 1 {
		t.Fatalf("fills = %d", len(col.fills))
	}
	f := col.fills[0]
	if f.tokens[0] != 7 {
		t.Fatalf("token %d", f.tokens[0])
	}
	lat := f.at - 100
	if lat < int64(cfg.L2Latency) || lat > int64(cfg.L2Latency)+10 {
		t.Fatalf("L2-hit latency %d, want about %d", lat, cfg.L2Latency)
	}
	// The line must now be resident in L1.
	if _, _, hit := l1.Cache().Probe(0x2000); !hit {
		t.Fatal("line not filled into L1")
	}
}

func TestMissLatencyDRAM(t *testing.T) {
	cfg := testCfg()
	s := New(cfg)
	col := &collector{}
	l1 := s.NewL1D(cache.LRU{}, col.handler)
	l1.AccessLoad(cache.Request{Addr: 0x4000}, 1, 50)
	drive(s, col, 51, 10_000)
	if len(col.fills) != 1 {
		t.Fatalf("fills = %d", len(col.fills))
	}
	lat := col.fills[0].at - 50
	if lat < int64(cfg.DRAMLatency) || lat > int64(cfg.DRAMLatency)+20 {
		t.Fatalf("DRAM latency %d, want about %d", lat, cfg.DRAMLatency)
	}
	if s.DRAMReads != 1 {
		t.Fatalf("DRAM reads %d", s.DRAMReads)
	}
	// Second access to the same line is now an L2 hit and faster.
	s2 := New(cfg)
	_ = s2
	if _, _, hit := s.L2().Probe(0x4000); !hit {
		t.Fatal("DRAM fill did not populate L2")
	}
}

func TestMSHRMerging(t *testing.T) {
	cfg := testCfg()
	s := New(cfg)
	col := &collector{}
	l1 := s.NewL1D(cache.LRU{}, col.handler)
	// Three loads to the same line before the fill returns: one memory
	// request, three tokens delivered together.
	l1.AccessLoad(cache.Request{Addr: 0x8000}, 1, 10)
	l1.AccessLoad(cache.Request{Addr: 0x8008}, 2, 11)
	l1.AccessLoad(cache.Request{Addr: 0x8040}, 3, 12)
	if l1.MSHROccupancy() != 1 {
		t.Fatalf("MSHR occupancy %d, want 1 (merged)", l1.MSHROccupancy())
	}
	drive(s, col, 13, 10_000)
	if len(col.fills) != 1 || len(col.fills[0].tokens) != 3 {
		t.Fatalf("fills %+v", col.fills)
	}
	if s.DRAMReads != 1 {
		t.Fatalf("DRAM reads %d, want 1", s.DRAMReads)
	}
}

func TestMSHRCapacityReject(t *testing.T) {
	cfg := testCfg()
	cfg.L1D.MSHRs = 2
	cfg.L1D.MSHRTargets = 2
	s := New(cfg)
	l1 := s.NewL1D(cache.LRU{}, nil)
	if l1.AccessLoad(cache.Request{Addr: 0 * 128}, 1, 1) != Miss {
		t.Fatal("first miss rejected")
	}
	if l1.AccessLoad(cache.Request{Addr: 1 * 128}, 2, 1) != Miss {
		t.Fatal("second miss rejected")
	}
	if got := l1.AccessLoad(cache.Request{Addr: 2 * 128}, 3, 1); got != Reject {
		t.Fatalf("third distinct miss outcome %v, want reject", got)
	}
	// Merging is still possible up to the target cap.
	if l1.AccessLoad(cache.Request{Addr: 0*128 + 8}, 4, 1) != Miss {
		t.Fatal("merge rejected")
	}
	if got := l1.AccessLoad(cache.Request{Addr: 0*128 + 16}, 5, 1); got != Reject {
		t.Fatalf("over-cap merge outcome %v, want reject", got)
	}
	if l1.Rejects != 2 {
		t.Fatalf("rejects %d", l1.Rejects)
	}
}

func TestCanAcceptAgreesWithAccess(t *testing.T) {
	cfg := testCfg()
	cfg.L1D.MSHRs = 2
	cfg.L1D.MSHRTargets = 2
	s := New(cfg)
	l1 := s.NewL1D(cache.LRU{}, nil)
	if !l1.CanAccept([]int64{0, 128}) {
		t.Fatal("CanAccept refused two lines with two MSHRs")
	}
	if l1.CanAccept([]int64{0, 128, 256}) {
		t.Fatal("CanAccept allowed three lines with two MSHRs")
	}
	l1.AccessLoad(cache.Request{Addr: 0}, 1, 1)
	l1.AccessLoad(cache.Request{Addr: 128}, 2, 1)
	if !l1.CanAccept([]int64{0}) {
		t.Fatal("CanAccept refused a merge")
	}
	if l1.CanAccept([]int64{256}) {
		t.Fatal("CanAccept allowed a third distinct line")
	}
}

func TestStoreWriteNoAllocate(t *testing.T) {
	cfg := testCfg()
	s := New(cfg)
	l1 := s.NewL1D(cache.LRU{}, nil)
	if got := l1.AccessStore(cache.Request{Addr: 0x3000}, 5); got != Miss {
		t.Fatalf("store miss outcome %v", got)
	}
	if _, _, hit := l1.Cache().Probe(0x3000); hit {
		t.Fatal("store miss allocated a line")
	}
	// Drain: the store becomes an L2 write / DRAM write.
	for now := int64(6); !s.Drained(); now++ {
		s.Cycle(now)
	}
	if s.L2Writes != 1 {
		t.Fatalf("L2 writes %d", s.L2Writes)
	}
	// Store hit dirties the line.
	l1.Cache().Fill(cache.Request{Addr: 0x5000})
	if got := l1.AccessStore(cache.Request{Addr: 0x5000}, 20); got != Hit {
		t.Fatalf("store hit outcome %v", got)
	}
	set, way, _ := l1.Cache().Probe(0x5000)
	if !l1.Cache().Line(set, way).Dirty {
		t.Fatal("store hit did not dirty the line")
	}
}

func TestBandwidthSerialization(t *testing.T) {
	cfg := testCfg()
	s := New(cfg)
	col := &collector{}
	l1 := s.NewL1D(cache.LRU{}, col.handler)
	// Many distinct lines mapping to the same DRAM channel: completions
	// must be spaced by at least the channel occupancy.
	lineBytes := int64(cfg.L2.LineBytes)
	stride := lineBytes * int64(cfg.DRAMChannels) * int64(cfg.L2Banks)
	const n = 8
	for i := int64(0); i < n; i++ {
		l1.AccessLoad(cache.Request{Addr: i * stride}, i, 0)
	}
	drive(s, col, 1, 100_000)
	if len(col.fills) != n {
		t.Fatalf("fills %d", len(col.fills))
	}
	first, last := col.fills[0].at, col.fills[len(col.fills)-1].at
	if span := last - first; span < int64(cfg.DRAMBandwidth)*(n-1) {
		t.Fatalf("completions span %d cycles; bandwidth not modeled", span)
	}
}

func TestPerWarpCounters(t *testing.T) {
	cfg := testCfg()
	s := New(cfg)
	l1 := s.NewL1D(cache.LRU{}, nil)
	l1.Cache().Fill(cache.Request{Addr: 0})
	l1.AccessLoad(cache.Request{Addr: 0, Warp: 3}, 1, 1)    // hit
	l1.AccessLoad(cache.Request{Addr: 4096, Warp: 3}, 2, 1) // miss
	if w := l1.Warps(); len(w) != 1 || w[0] != (WarpL1{GID: 3, Accesses: 2, Hits: 1}) {
		t.Fatalf("warp counters: %+v, want warp 3 with 2 accesses and 1 hit", w)
	}
	if got := l1.MPKI(1000); got != 1 {
		t.Fatalf("MPKI = %v", got)
	}
}

func TestAccessListenerSeesAllAccepted(t *testing.T) {
	cfg := testCfg()
	s := New(cfg)
	l1 := s.NewL1D(cache.LRU{}, nil)
	var events int
	l1.AccessListener = func(cache.Request, bool) { events++ }
	l1.Cache().Fill(cache.Request{Addr: 0})
	l1.AccessLoad(cache.Request{Addr: 0}, 1, 1)    // hit
	l1.AccessLoad(cache.Request{Addr: 4096}, 2, 1) // miss (new)
	l1.AccessLoad(cache.Request{Addr: 4096}, 3, 1) // miss (merge)
	l1.AccessStore(cache.Request{Addr: 8192}, 1)   // store miss
	if events != 4 {
		t.Fatalf("listener events %d, want 4", events)
	}
}
