package core

import (
	"fmt"

	"cawa/internal/cache"
)

// SignatureKind selects how CACP forms predictor signatures
// (ablation: DESIGN.md decision 4). The paper xors the lower 8 bits of
// the instruction PC with the lower 8 bits of the memory (block)
// address.
type SignatureKind int

// Signature kinds.
const (
	SigPCXorAddr SignatureKind = iota // paper default
	SigPCOnly
	SigAddrOnly
)

// Predictor table geometry: 8-bit signatures index 256 entries.
const (
	sigBits    = 8
	sigEntries = 1 << sigBits
	sigMask    = sigEntries - 1

	ccbpMax       = 3 // 2-bit saturating counters
	ccbpThreshold = 2 // >= threshold predicts a critical line
	shipMax       = 7 // 3-bit SHCT counters, per the SHiP paper
)

// CACPConfig parameterizes the cache prioritization scheme.
type CACPConfig struct {
	// CriticalWays is the number of L1D ways reserved for
	// predicted-critical lines. The paper's sensitivity analysis picks
	// 8 of 16.
	CriticalWays int
	// Signature selects the predictor index composition.
	Signature SignatureKind
	// LineBytes must match the L1D line size (for the address region
	// bits of the signature).
	LineBytes int
}

// DefaultCACPConfig returns the paper's configuration for a 16-way L1D
// with 128-byte lines.
func DefaultCACPConfig() CACPConfig {
	return CACPConfig{CriticalWays: 8, Signature: SigPCXorAddr, LineBytes: 128}
}

// CACP is the criticality-aware cache prioritization policy
// (Section 3.3, Algorithm 4). It partitions the L1D into critical and
// non-critical ways, steers fills with the critical cache block
// predictor (CCBP), and picks insertion ages with a signature-based hit
// predictor (SHiP) on top of LRU replacement within each partition: a
// predicted-dead fill is inserted as the partition's next victim.
//
// CACP implements cache.Policy and cache.WayChooser; one instance
// serves one SM's L1D.
type CACP struct {
	cfg    CACPConfig
	ccbp   [sigEntries]uint8
	ship   [sigEntries]uint8
	fills  uint64 // bimodal-insertion counter
	wayBuf []int  // scratch for waysOf (valid until the next call)

	// Stats.
	PredCritical    uint64 // fills steered to the critical partition
	PredNonCritical uint64
	CCBPDemotions   uint64 // mispredicted-critical lines (Algorithm 4)
	SHiPDemotions   uint64 // zero-reuse signature decrements
}

// NewCACP builds the policy. Invalid configurations panic at
// construction (they are programmer errors, not runtime conditions).
func NewCACP(cfg CACPConfig) *CACP {
	if cfg.CriticalWays < 0 {
		panic(fmt.Sprintf("core: negative critical ways %d", cfg.CriticalWays))
	}
	if cfg.LineBytes <= 0 {
		cfg.LineBytes = 128
	}
	c := &CACP{cfg: cfg}
	// SHiP counters start weakly reusing so cold signatures insert at
	// "long" rather than "distant", as in the SHiP paper.
	for i := range c.ship {
		c.ship[i] = 1
	}
	return c
}

// Name implements cache.Policy.
func (c *CACP) Name() string { return "CACP" }

// signature forms the predictor index from the request (Section 3.3:
// lower 8 bits of the PC xor-ed with the address region bits).
func (c *CACP) signature(pc int32, addr int64) uint16 {
	pcBits := uint16(pc) & sigMask
	addrBits := uint16(addr/int64(c.cfg.LineBytes)) & sigMask
	switch c.cfg.Signature {
	case SigPCOnly:
		return pcBits
	case SigAddrOnly:
		return addrBits
	default:
		return pcBits ^ addrBits
	}
}

// partitions returns the way index ranges [0,k) and [k,W) for the
// critical and non-critical partitions of a W-way cache.
func (c *CACP) partitions(ways int) (critEnd int) {
	k := c.cfg.CriticalWays
	if k > ways {
		k = ways
	}
	return k
}

// waysOf enumerates the partition's way indices.
func (c *CACP) waysOf(cacheWays int, critical bool) []int {
	k := c.partitions(cacheWays)
	var lo, hi int
	if critical {
		lo, hi = 0, k
	} else {
		lo, hi = k, cacheWays
	}
	out := c.wayBuf[:0]
	for w := lo; w < hi; w++ {
		out = append(out, w)
	}
	c.wayBuf = out
	return out
}

// FillWay implements cache.WayChooser: CacheFill of Algorithm 4. The
// CCBP predicts whether the incoming line is critical. Non-critical
// fills are confined to the non-critical partition so they can never
// displace critical data; critical fills prefer the reserved critical
// ways but may spill into the whole set, because the reservation's
// purpose is protecting critical lines, not starving them when the
// critical working set exceeds its partition.
func (c *CACP) FillWay(ca *cache.Cache, set int, req cache.Request) int {
	sig := c.signature(req.PC, req.Addr)
	critical := c.ccbp[sig] >= ccbpThreshold
	if critical {
		c.PredCritical++
	} else {
		c.PredNonCritical++
	}
	ways := c.waysOf(ca.Ways(), critical)
	if len(ways) == 0 {
		// Degenerate partition size (0 or all ways critical): fall back
		// to the other partition.
		ways = c.waysOf(ca.Ways(), !critical)
	}
	lines := ca.Set(set)
	for _, w := range ways {
		if !lines[w].Valid {
			return w
		}
	}
	if critical {
		// Spill: any invalid way, else replace over the whole set.
		for w := range lines {
			if !lines[w].Valid {
				return w
			}
		}
		return cache.LRUVictimAmong(ca, set, nil)
	}
	return cache.LRUVictimAmong(ca, set, ways)
}

// OnFill implements cache.Policy: record the signature, the partition,
// and the SHiP-guided insertion age (re-reference interval "long" when
// the signature has shown reuse, "distant" otherwise).
func (c *CACP) OnFill(ca *cache.Cache, set, way int, req cache.Request) {
	l := ca.Line(set, way)
	sig := c.signature(req.PC, req.Addr)
	l.Sig = sig
	l.FillPC = req.PC
	l.InCritical = way < c.partitions(ca.Ways())
	c.fills++
	predictedDead := c.ship[sig] == 0
	// Bimodal escape (as in BIP/BRRIP): every 8th predicted-dead fill
	// inserts normally so a mistrained signature can demonstrate reuse
	// and recover — dead-inserted lines are evicted too fast to ever
	// retrain the predictor on their own.
	if predictedDead && c.fills%8 != 0 {
		l.RRPV = cache.RRPVMax
		l.LRU = 0
	} else {
		l.RRPV = cache.RRPVLong
		l.LRU = ca.NextTick()
	}
}

// OnHit implements cache.Policy: CacheHit of Algorithm 4. Promotion to
// near re-reference, plus CCBP/SHiP training keyed on whether the
// hitting warp is predicted critical.
func (c *CACP) OnHit(ca *cache.Cache, set, way int, req cache.Request) {
	l := ca.Line(set, way)
	l.RRPV = cache.RRPVNear
	l.LRU = ca.NextTick()
	if req.Critical {
		l.CReuse = true
		if c.ccbp[l.Sig] < ccbpMax {
			c.ccbp[l.Sig]++
		}
		if c.ship[l.Sig] < shipMax {
			c.ship[l.Sig]++
		}
		return
	}
	l.NCReuse = true
	if c.ship[l.Sig] < shipMax {
		c.ship[l.Sig]++
	}
}

// Victim implements cache.Policy; FillWay normally supersedes it, so it
// only serves as a safety net.
func (c *CACP) Victim(ca *cache.Cache, set int, _ cache.Request) int {
	return cache.SRRIPVictimAmong(ca, set, nil)
}

// OnEvict implements cache.Policy: EvictLine of Algorithm 4. Lines that
// landed in the critical partition but were only reused by non-critical
// warps demote their CCBP entry; lines with no reuse at all demote
// their SHiP entry.
func (c *CACP) OnEvict(_ *cache.Cache, _, _ int, ev *cache.Eviction) {
	l := &ev.Line
	switch {
	case !l.CReuse && l.NCReuse && l.InCritical:
		if c.ccbp[l.Sig] > 0 {
			c.ccbp[l.Sig]--
		}
		c.CCBPDemotions++
	case !l.CReuse && !l.NCReuse:
		if c.ship[l.Sig] > 0 {
			c.ship[l.Sig]--
		}
		c.SHiPDemotions++
	}
}

// CCBPCounter exposes a predictor entry (tests).
func (c *CACP) CCBPCounter(sig uint16) uint8 { return c.ccbp[sig&sigMask] }

// SHiPCounter exposes a predictor entry (tests).
func (c *CACP) SHiPCounter(sig uint16) uint8 { return c.ship[sig&sigMask] }

// Signature exposes signature formation (tests).
func (c *CACP) Signature(pc int32, addr int64) uint16 { return c.signature(pc, addr) }
