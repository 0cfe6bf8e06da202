// Package cache models set-associative caches with pluggable replacement
// policies. It provides the tag/state arrays and the LRU policy used by
// the baseline L1/L2 caches; the paper's
// criticality-aware prioritization (CACP) is a policy implemented in
// internal/core on top of the hooks exposed here (per-line user state,
// policy-chosen victims, eviction callbacks).
package cache

import (
	"fmt"
	"math/bits"

	"cawa/internal/config"
	"cawa/internal/state"
)

// Request carries the information replacement policies may condition on.
type Request struct {
	// Addr is the byte address of the access (any byte within the line).
	Addr int64
	// PC is the instruction address that issued the access.
	PC int32
	// Warp is a global warp identifier, for per-warp statistics.
	Warp int
	// Critical marks requests issued by a predicted-critical warp.
	Critical bool
	// Write marks stores.
	Write bool
}

// Line is one cache line's state. Policies may read and write the
// replacement fields (RRPV, LRU) and the CACP training fields
// (Sig, CReuse, NCReuse, InCritical).
type Line struct {
	Valid bool
	Dirty bool
	Tag   int64

	// Replacement state.
	RRPV uint8  // CACP's SHiP insertion age (written, never read: checkpoints carry it)
	LRU  uint64 // global timestamp of last touch (LRU family)

	// CACP training state (Algorithm 4 of the paper).
	Sig        uint16 // fill signature: PC xor address region
	CReuse     bool   // line was reused by a critical warp
	NCReuse    bool   // line was reused by a non-critical warp
	InCritical bool   // line resides in the critical partition
	FillPC     int32  // PC of the instruction that filled the line

	// Statistics.
	Refs         uint32 // hits received since fill
	FillWarp     int32  // global warp id that filled the line
	FillCritical bool   // filling warp was predicted critical
}

// Eviction describes a line displaced by a fill.
type Eviction struct {
	// Valid is false when the fill used an invalid (empty) way.
	Valid bool
	// Addr is the base address of the evicted line.
	Addr int64
	// Dirty reports whether the evicted line held unwritten-back data.
	Dirty bool
	// Line is a copy of the evicted line's state, for policy training.
	Line Line
}

// Policy decides victim selection and maintains per-line replacement
// state. Implementations receive the owning cache so they can inspect
// whole sets; Archive walks whatever state they keep outside the lines.
type Policy interface {
	state.Archiver
	// Name identifies the policy in reports.
	Name() string
	// OnFill initializes replacement state of a just-filled line.
	OnFill(c *Cache, set, way int, req Request)
	// OnHit updates replacement state when a line is re-referenced.
	OnHit(c *Cache, set, way int, req Request)
	// Victim selects the way to replace in the set for req. Invalid ways
	// are handled by the cache before Victim is consulted.
	Victim(c *Cache, set int, req Request) int
	// OnEvict observes a line leaving the cache, for predictor training.
	OnEvict(c *Cache, set, way int, ev *Eviction)
}

// WayChooser is an optional Policy extension that takes over the whole
// fill-way decision, including the use of invalid ways. Partitioned
// policies (CACP) implement it so that fills stay inside the partition
// the request was predicted into.
type WayChooser interface {
	// FillWay returns the way the line for req must be installed in.
	// If that way currently holds a valid line, the cache evicts it.
	FillWay(c *Cache, set int, req Request) int
}

// Cache is a set-associative tag/state array. It has no notion of
// latency or miss handling; internal/memsys drives it.
type Cache struct {
	cfg    config.CacheConfig
	policy Policy
	// chooser is policy as a WayChooser, nil if it is not one. It is
	// resolved once: a type assertion per Fill can allocate, because the
	// runtime grows its per-site assertion cache at random moments.
	chooser  WayChooser
	sets     [][]Line
	setShift uint
	setMask  int64 // power-of-two fast path; -1 when sets is not 2^k
	nSets    int64
	tick     uint64 // logical time for LRU stamps
	// evict is the eviction the policy and the listener are shown by
	// pointer; a local would escape to the heap on every evicting Fill.
	evict Eviction

	// EvictListener, when non-nil, observes every eviction after the
	// policy's OnEvict hook. Used for reuse statistics (Figures 3, 15).
	EvictListener func(*Eviction)

	// Statistics.
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// New builds a cache with the given geometry and replacement policy.
func New(cfg config.CacheConfig, policy Policy) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("cache: %v", err))
	}
	sets := make([][]Line, cfg.Sets)
	lines := make([]Line, cfg.Sets*cfg.Ways)
	for i := range sets {
		sets[i], lines = lines[:cfg.Ways:cfg.Ways], lines[cfg.Ways:]
	}
	mask := int64(-1)
	if cfg.Sets&(cfg.Sets-1) == 0 {
		mask = int64(cfg.Sets - 1)
	}
	chooser, _ := policy.(WayChooser)
	return &Cache{
		cfg:      cfg,
		policy:   policy,
		chooser:  chooser,
		sets:     sets,
		setShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setMask:  mask,
		nSets:    int64(cfg.Sets),
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() config.CacheConfig { return c.cfg }

// Policy returns the replacement policy.
func (c *Cache) Policy() Policy { return c.policy }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.cfg.Ways }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.cfg.Sets }

// BlockAddr returns the line base address containing addr.
func (c *Cache) BlockAddr(addr int64) int64 {
	return addr &^ (int64(c.cfg.LineBytes) - 1)
}

// SetIndex returns the set addr maps to.
func (c *Cache) SetIndex(addr int64) int {
	if c.setMask >= 0 {
		return int((addr >> c.setShift) & c.setMask)
	}
	return int((addr >> c.setShift) % c.nSets)
}

// Set exposes a set's lines to policies.
func (c *Cache) Set(set int) []Line { return c.sets[set] }

// Line returns a pointer to the line at (set, way) for policy updates.
func (c *Cache) Line(set, way int) *Line { return &c.sets[set][way] }

// NextTick advances and returns the logical LRU clock.
func (c *Cache) NextTick() uint64 {
	c.tick++
	return c.tick
}

// Probe looks the address up without updating any state.
func (c *Cache) Probe(addr int64) (set, way int, hit bool) {
	tag := c.BlockAddr(addr)
	set = c.SetIndex(addr)
	for w := range c.sets[set] {
		if l := &c.sets[set][w]; l.Valid && l.Tag == tag {
			return set, w, true
		}
	}
	return set, -1, false
}

// Access performs a full lookup: on hit it applies policy hit-updates and
// returns hit=true; on miss it only counts the miss (the caller is
// responsible for fetching the line and calling Fill).
func (c *Cache) Access(req Request) (hit bool) {
	set, way, ok := c.Probe(req.Addr)
	if !ok {
		c.Accesses++
		c.Misses++
		return false
	}
	c.Touch(set, way, req)
	return true
}

// Touch is the hit half of Access for a line Probe already found at
// (set, way): it counts the hit and applies the policy's hit update.
func (c *Cache) Touch(set, way int, req Request) {
	c.Accesses++
	c.Hits++
	l := &c.sets[set][way]
	l.Refs++
	if req.Write {
		l.Dirty = true
	}
	c.policy.OnHit(c, set, way, req)
}

// TouchLRU is Touch for a read hit under the LRU policy, without the
// policy interface: the same counters, Refs and clock tick. The caller
// must know the cache is LRU, as TouchRepeat does (an SM's L1I always
// is).
func (c *Cache) TouchLRU(set, way int) {
	c.Accesses++
	c.Hits++
	l := &c.sets[set][way]
	l.Refs++
	c.tick++
	l.LRU = c.tick
}

// Ref names a resident line by its position in the tag array.
type Ref struct{ Set, Way int32 }

// TouchRepeat has the effect of n passes of Touch over seq, in order,
// each a read hit, at the cost of one: the counters grow by n·len(seq),
// each line's Refs by n per appearance, and the LRU clock by
// n·len(seq), with each line stamped as its last touch in the last
// pass. LRU only: another policy's hit update is not a stamp.
func (c *Cache) TouchRepeat(seq []Ref, n uint64) {
	if _, ok := c.policy.(LRU); !ok {
		panic(fmt.Sprintf("cache: TouchRepeat under policy %s", c.policy.Name()))
	}
	if n == 0 {
		return
	}
	k := uint64(len(seq))
	last := c.tick + (n-1)*k // the clock before the last pass
	for j, r := range seq {
		l := &c.sets[r.Set][r.Way]
		l.Refs += uint32(n)
		l.LRU = last + uint64(j) + 1
	}
	c.tick += n * k
	c.Accesses += n * k
	c.Hits += n * k
}

// Fill installs the line for req, evicting if needed, and returns the
// eviction record (Valid=false if an empty way was used). Fill must only
// be called when the line is absent.
func (c *Cache) Fill(req Request) Eviction {
	tag := c.BlockAddr(req.Addr)
	set := c.SetIndex(req.Addr)
	way := -1
	if c.chooser != nil {
		way = c.chooser.FillWay(c, set, req)
	} else {
		for w := range c.sets[set] {
			if !c.sets[set][w].Valid {
				way = w
				break
			}
		}
	}
	var ev Eviction
	if way < 0 {
		way = c.policy.Victim(c, set, req)
	}
	if way < 0 || way >= c.cfg.Ways {
		panic(fmt.Sprintf("cache: policy %s returned invalid victim way %d", c.policy.Name(), way))
	}
	if old := c.sets[set][way]; old.Valid {
		c.evict = Eviction{Valid: true, Addr: old.Tag, Dirty: old.Dirty, Line: old}
		c.Evictions++
		c.policy.OnEvict(c, set, way, &c.evict)
		if c.EvictListener != nil {
			c.EvictListener(&c.evict)
		}
		ev = c.evict
	}
	c.sets[set][way] = Line{
		Valid:        true,
		Tag:          tag,
		Dirty:        req.Write,
		FillWarp:     int32(req.Warp),
		FillCritical: req.Critical,
	}
	c.policy.OnFill(c, set, way, req)
	return ev
}

// HitRate returns hits/accesses (0 for an untouched cache).
func (c *Cache) HitRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Accesses)
}
