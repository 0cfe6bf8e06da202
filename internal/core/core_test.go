package core

import (
	"testing"
	"testing/quick"

	"cawa/internal/cache"
	"cawa/internal/config"
	"cawa/internal/isa"
	"cawa/internal/memory"
	"cawa/internal/simt"
)

func mkWarp(gid, block, idx int) *simt.Warp {
	return simt.NewWarp(gid, block, idx, 32, 32, 100)
}

func computeStep(pc int32) *simt.Step {
	return &simt.Step{PC: pc, Instr: isa.Instr{Op: isa.OpAdd}, Lanes: 32}
}

func branchStep(pc, target, rpc int32, taken uint64, divergent bool) *simt.Step {
	return &simt.Step{
		PC:         pc,
		Instr:      isa.Instr{Op: isa.OpCBra, Imm: int64(target), Rpc: rpc},
		Lanes:      32,
		CondBranch: true,
		Divergent:  divergent,
		TakenMask:  taken,
	}
}

func TestCPLStallAccumulation(t *testing.T) {
	c := NewCPL()
	c.OnWarpArrived(0, mkWarp(100, 0, 0))
	c.OnWarpArrived(1, mkWarp(101, 0, 1))
	// Both warps last issue at cycle 61, but warp 1 accumulated 50
	// stall cycles along the way.
	c.OnIssue(0, computeStep(0), 0, 10)
	c.OnIssue(0, computeStep(1), 0, 61)
	c.OnIssue(1, computeStep(0), 0, 10)
	c.OnIssue(1, computeStep(1), 50, 61)
	if c.Criticality(1) <= c.Criticality(0) {
		t.Fatalf("stalled warp criticality %v <= %v", c.Criticality(1), c.Criticality(0))
	}
	if !c.IsCritical(1) {
		t.Fatal("stalled warp not flagged critical")
	}
	if c.IsCritical(0) {
		t.Fatal("fast warp flagged critical")
	}
}

func TestCPLBranchPathDisparity(t *testing.T) {
	c := NewCPL()
	c.OnWarpArrived(0, mkWarp(0, 0, 0))
	c.OnWarpArrived(1, mkWarp(1, 0, 1))
	// Warp 0 diverges: pays for both paths (rpc=20, target=10, fall=6).
	c.OnIssue(0, branchStep(5, 10, 20, 0xF, true), 0, 1)
	// Warp 1 takes the short path (from 10 to 20 -> 10 instructions).
	c.OnIssue(1, branchStep(5, 10, 20, ^uint64(0), false), 0, 1)
	if c.Criticality(0) <= c.Criticality(1) {
		t.Fatalf("divergent warp criticality %v <= uniform %v",
			c.Criticality(0), c.Criticality(1))
	}
}

func TestCPLCommitBalancing(t *testing.T) {
	c := NewCPL()
	c.OnWarpArrived(0, mkWarp(0, 0, 0))
	c.OnIssue(0, branchStep(0, 2, 10, ^uint64(0), false), 0, 1)
	after := c.Criticality(0)
	// Committing instructions should reduce predicted remaining work.
	for i := 0; i < 8; i++ {
		c.OnIssue(0, computeStep(int32(2+i)), 0, int64(2+i))
	}
	if got := c.Criticality(0); got >= after {
		t.Fatalf("criticality %v did not decrease from %v after commits", got, after)
	}
}

func TestCPLLifecycle(t *testing.T) {
	c := NewCPL()
	c.OnWarpArrived(3, mkWarp(7, 2, 0))
	if c.GID(3) != 7 {
		t.Fatalf("gid = %d", c.GID(3))
	}
	if !c.IsCritical(3) {
		t.Fatal("lone warp must be critical")
	}
	c.OnWarpFinished(3)
	if c.GID(3) != -1 || c.Criticality(3) != 0 || c.IsCritical(3) {
		t.Fatal("finished slot still live")
	}
	// Finishing twice or querying unknown slots is harmless.
	c.OnWarpFinished(3)
	c.OnWarpFinished(99)
	_ = c.Criticality(99)
}

func TestCPLRank(t *testing.T) {
	c := NewCPL()
	for i := 0; i < 4; i++ {
		c.OnWarpArrived(i, mkWarp(i, 0, i))
	}
	// Give slot 2 the highest stall, slot 0 none; align the final issue
	// cycle so the pending-stall term is equal for every warp.
	c.OnIssue(0, computeStep(0), 0, 200)
	c.OnIssue(1, computeStep(0), 10, 200)
	c.OnIssue(2, computeStep(0), 99, 200)
	c.OnIssue(3, computeStep(0), 5, 200)
	rank, peers := c.Rank(2)
	if peers != 4 || rank != 3 {
		t.Fatalf("rank=%d peers=%d, want 3/4", rank, peers)
	}
	rank, _ = c.Rank(0)
	if rank != 0 {
		t.Fatalf("fast warp rank=%d, want 0", rank)
	}
}

func TestCPLAblationSwitches(t *testing.T) {
	c := NewCPL()
	c.DisableStallTerm = true
	c.OnWarpArrived(0, mkWarp(0, 0, 0))
	c.OnIssue(0, computeStep(0), 1000, 1001)
	if got := c.Criticality(0); got != 0 {
		t.Fatalf("stall term disabled but criticality %v", got)
	}
	c2 := NewCPL()
	c2.DisableInstTerm = true
	c2.OnWarpArrived(0, mkWarp(0, 0, 0))
	c2.OnIssue(0, branchStep(0, 2, 50, ^uint64(0), false), 0, 1)
	if got := c2.Criticality(0); got != 0 {
		t.Fatalf("inst term disabled but criticality %v", got)
	}
}

func TestOracleProvider(t *testing.T) {
	o := NewOracle(map[int]float64{10: 100, 11: 900, 12: 500})
	o.OnWarpArrived(0, mkWarp(10, 0, 0))
	o.OnWarpArrived(1, mkWarp(11, 0, 1))
	o.OnWarpArrived(2, mkWarp(12, 0, 2))
	if o.Criticality(1) != 900 {
		t.Fatalf("oracle criticality %v", o.Criticality(1))
	}
	if !o.IsCritical(1) || o.IsCritical(0) {
		t.Fatal("oracle IsCritical wrong")
	}
	o.OnWarpFinished(1)
	if o.IsCritical(1) {
		t.Fatal("finished oracle warp still critical")
	}
	// With 10 and 12 left, 12 is above the median.
	if !o.IsCritical(2) {
		t.Fatal("12 should be critical among {10,12}")
	}
}

// cacpCache builds a 1-set cache governed by CACP for focused tests.
func cacpCache(ways, criticalWays int) (*cache.Cache, *CACP) {
	cfg := config.CacheConfig{Sets: 1, Ways: ways, LineBytes: 128}
	p := NewCACP(CACPConfig{CriticalWays: criticalWays, Signature: SigPCXorAddr, LineBytes: 128})
	return cache.New(cfg, p), p
}

func TestCACPSignature(t *testing.T) {
	p := NewCACP(DefaultCACPConfig())
	// Same PC and line -> same signature; different line -> usually different.
	if p.Signature(0x12, 0x80) != p.Signature(0x12, 0x80+64) {
		t.Fatal("signature must ignore offsets within a line")
	}
	pcOnly := NewCACP(CACPConfig{CriticalWays: 8, Signature: SigPCOnly, LineBytes: 128})
	if pcOnly.Signature(0x12, 0) != pcOnly.Signature(0x12, 1<<20) {
		t.Fatal("pc-only signature must ignore the address")
	}
	addrOnly := NewCACP(CACPConfig{CriticalWays: 8, Signature: SigAddrOnly, LineBytes: 128})
	if addrOnly.Signature(1, 0x1000) != addrOnly.Signature(2, 0x1000) {
		t.Fatal("addr-only signature must ignore the PC")
	}
}

func TestCACPPartitionedFill(t *testing.T) {
	c, p := cacpCache(16, 8)
	// Cold CCBP: everything predicted non-critical -> ways 8..15.
	for i := int64(0); i < 8; i++ {
		c.Fill(cache.Request{Addr: i * 128, PC: 1})
	}
	for w := 0; w < 8; w++ {
		if c.Line(0, w).Valid {
			t.Fatalf("critical way %d filled by non-critical prediction", w)
		}
	}
	for w := 8; w < 16; w++ {
		if !c.Line(0, w).Valid || c.Line(0, w).InCritical {
			t.Fatalf("non-critical way %d state wrong", w)
		}
	}
	if p.PredNonCritical != 8 || p.PredCritical != 0 {
		t.Fatalf("prediction counters %d/%d", p.PredCritical, p.PredNonCritical)
	}
}

func TestCACPTrainingPromotesToCritical(t *testing.T) {
	c, p := cacpCache(16, 8)
	req := cache.Request{Addr: 0x1000, PC: 42}
	sig := p.Signature(req.PC, req.Addr)
	c.Fill(req)
	// Two hits from a critical warp saturate the CCBP past threshold.
	critReq := req
	critReq.Critical = true
	c.Access(critReq)
	c.Access(critReq)
	if got := p.CCBPCounter(sig); got < 2 {
		t.Fatalf("CCBP counter %d after critical reuse", got)
	}
	// A new line with the same signature now lands in the critical
	// partition.
	req2 := cache.Request{Addr: 0x1000 + 256*128, PC: 42}
	if p.Signature(req2.PC, req2.Addr) != sig {
		t.Fatal("test setup: signatures differ")
	}
	c.Fill(req2)
	_, way, hit := c.Probe(req2.Addr)
	if !hit || way >= 8 {
		t.Fatalf("trained fill landed in way %d (hit=%v), want critical partition", way, hit)
	}
}

func TestCACPEvictionTraining(t *testing.T) {
	c, p := cacpCache(16, 8)
	req := cache.Request{Addr: 0x2000, PC: 7}
	sig := p.Signature(req.PC, req.Addr)
	shipBefore := p.SHiPCounter(sig)
	c.Fill(req)
	set, way, _ := c.Probe(req.Addr)
	// Simulate an eviction of the untouched line: zero reuse decrements SHiP.
	ev := cache.Eviction{Valid: true, Addr: req.Addr, Line: *c.Line(set, way)}
	p.OnEvict(c, set, way, &ev)
	if got := p.SHiPCounter(sig); got != shipBefore-1 {
		t.Fatalf("SHiP %d after zero-reuse eviction, want %d", got, shipBefore-1)
	}
	if p.SHiPDemotions != 1 {
		t.Fatalf("SHiPDemotions %d", p.SHiPDemotions)
	}

	// Mispredicted-critical: critical-partition line reused only by
	// non-critical warps decrements CCBP (Algorithm 4, EvictLine).
	p.ccbp[sig] = 3
	line := cache.Line{Sig: sig, InCritical: true, NCReuse: true}
	ev2 := cache.Eviction{Valid: true, Line: line}
	p.OnEvict(c, 0, 0, &ev2)
	if got := p.CCBPCounter(sig); got != 2 {
		t.Fatalf("CCBP %d after demotion, want 2", got)
	}
}

func TestCACPSHiPInsertionAge(t *testing.T) {
	c, p := cacpCache(16, 8)
	req := cache.Request{Addr: 0x3000, PC: 9}
	sig := p.Signature(req.PC, req.Addr)
	// Default SHiP counter (1) inserts at "long".
	c.Fill(req)
	set, way, _ := c.Probe(req.Addr)
	if got := c.Line(set, way).RRPV; got != rrpvLong {
		t.Fatalf("warm-signature insertion RRPV %d, want %d", got, rrpvLong)
	}
	// Drive the signature to zero: insert at distant.
	p.ship[sig] = 0
	req2 := cache.Request{Addr: 0x3000 + 256*128, PC: 9}
	c.Fill(req2)
	set2, way2, _ := c.Probe(req2.Addr)
	if got := c.Line(set2, way2).RRPV; got != rrpvDistant {
		t.Fatalf("dead-signature insertion RRPV %d, want %d", got, rrpvDistant)
	}
	// A hit promotes to near and records reuse class.
	c.Access(cache.Request{Addr: req2.Addr, PC: 9})
	if got := c.Line(set2, way2).RRPV; got != rrpvNear {
		t.Fatalf("post-hit RRPV %d", got)
	}
	if !c.Line(set2, way2).NCReuse || c.Line(set2, way2).CReuse {
		t.Fatal("reuse class flags wrong")
	}
}

// TestCACPPartitionInvariant: regardless of the access stream, every
// valid line lies in the partition recorded by its InCritical flag.
func TestCACPPartitionInvariant(t *testing.T) {
	f := func(ops [64]uint16) bool {
		c, _ := cacpCache(16, 8)
		for _, op := range ops {
			addr := int64(op%32) * 128
			pc := int32(op >> 8)
			critical := op&0x40 != 0
			req := cache.Request{Addr: addr, PC: pc, Critical: critical}
			if !c.Access(req) {
				c.Fill(req)
			}
		}
		for w := 0; w < 16; w++ {
			l := c.Line(0, w)
			if l.Valid && l.InCritical != (w < 8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCACPDegenerateWays(t *testing.T) {
	// All ways critical: non-critical fills fall back gracefully.
	c, _ := cacpCache(4, 4)
	for i := int64(0); i < 6; i++ {
		req := cache.Request{Addr: i * 128, PC: 3}
		if !c.Access(req) {
			c.Fill(req)
		}
	}
	// Zero critical ways: critical fills fall back too.
	c2, p2 := cacpCache(4, 0)
	p2.ccbp[p2.Signature(3, 0)] = 3
	c2.Fill(cache.Request{Addr: 0, PC: 3})
	if _, _, hit := c2.Probe(0); !hit {
		t.Fatal("fill lost with zero critical ways")
	}
}

func TestSystemConfigBuild(t *testing.T) {
	mem := memory.New(1 << 12)
	cfg := config.Small()
	for _, sc := range []SystemConfig{
		Baseline(),
		CAWA(),
		{Scheduler: "gto"},
		{Scheduler: "2lvl"},
		{Scheduler: "caws", Oracle: map[int]float64{0: 1}},
		{Scheduler: "gcaws", CPL: true},
		{Scheduler: "gto", CPL: true, CACP: true},
	} {
		if _, err := sc.NewGPU(cfg, mem); err != nil {
			t.Errorf("%s: %v", sc.Label(), err)
		}
	}
	if _, err := (SystemConfig{Scheduler: "bogus"}).NewGPU(cfg, mem); err == nil {
		t.Error("bogus scheduler accepted")
	}
	bad := DefaultCACPConfig()
	bad.CriticalWays = 99
	if _, err := (SystemConfig{Scheduler: "lrr", CACP: true, CACPConfig: &bad}).NewGPU(cfg, mem); err == nil {
		t.Error("oversized partition accepted")
	}
}

func TestSystemConfigLabels(t *testing.T) {
	cases := map[string]SystemConfig{
		"lrr":      Baseline(),
		"cawa":     CAWA(),
		"gto":      {Scheduler: "gto"},
		"gto+cacp": {Scheduler: "gto", CACP: true},
	}
	for want, sc := range cases {
		if got := sc.Label(); got != want {
			t.Errorf("label %q, want %q", got, want)
		}
	}
}
