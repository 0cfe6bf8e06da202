package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"cawa/internal/cache"
	"cawa/internal/config"
	"cawa/internal/gpu"
	"cawa/internal/memory"
	"cawa/internal/sched"
	"cawa/internal/sm"
)

// SystemConfig names one evaluated design point: a warp scheduler, an
// optional criticality provider, and an optional CACP L1D policy. The
// figures of Section 5 compare these combinations:
//
//	{Scheduler: "lrr"}                         — baseline RR
//	{Scheduler: "gto"}                         — GTO
//	{Scheduler: "2lvl"}                        — two-level
//	{Scheduler: "caws", Oracle: profiled}      — oracle CAWS (PACT'14)
//	{Scheduler: "gcaws", CPL: true}            — CAWA_gCAWS
//	{Scheduler: "gcaws", CPL: true, CACP: true} — full CAWA
//	{Scheduler: "gto", CPL: true, CACP: true}  — CACP on GTO (Figs 16-17)
type SystemConfig struct {
	// Scheduler is a registered sched policy name.
	Scheduler string
	// CPL attaches the criticality prediction logic. Required by the
	// gcaws scheduler and by CACP (which consumes IsCritical).
	CPL bool
	// CACP replaces the L1D's LRU policy with criticality-aware cache
	// prioritization.
	CACP bool
	// CACPConfig overrides the default CACP parameters when CACP is
	// set; zero value means DefaultCACPConfig.
	CACPConfig *CACPConfig
	// Oracle supplies profiled per-warp criticality (global warp id ->
	// execution time); it takes precedence over CPL as the provider and
	// is what the caws scheduler expects.
	Oracle map[int]float64
	// CPLTweak, when non-nil, adjusts each CPL instance after creation
	// (ablation switches).
	CPLTweak func(*CPL)
	// ProviderOverride, when non-nil, replaces the criticality provider
	// factory entirely — used to decorate providers with trace
	// recorders or custom instrumentation.
	ProviderOverride func() sm.CriticalityProvider
	// Variant is a stable identity label distinguishing design points
	// whose behaviour lives in the non-comparable fields above
	// (CPLTweak, ProviderOverride). Key requires it whenever either is
	// set, so caches never collapse distinct variants or key off
	// process-specific pointer values.
	Variant string
}

// CAWA returns the full coordinated design of the paper:
// gCAWS + CPL + CACP.
func CAWA() SystemConfig {
	return SystemConfig{Scheduler: "gcaws", CPL: true, CACP: true}
}

// Baseline returns the round-robin baseline configuration.
func Baseline() SystemConfig { return SystemConfig{Scheduler: "lrr"} }

// Label renders a short name for tables.
func (sc SystemConfig) Label() string {
	label := sc.Scheduler
	if sc.Scheduler == "gcaws" && sc.CACP {
		label = "cawa"
	}
	if sc.CACP && sc.Scheduler != "gcaws" {
		label += "+cacp"
	}
	return label
}

// Key returns a stable identity for the design point, usable as a
// cache key across processes: it is built only from value state (never
// pointer formatting). Design points carrying behaviour in function
// fields (CPLTweak, ProviderOverride) must also set Variant; Key
// returns an error otherwise rather than silently colliding.
func (sc SystemConfig) Key() (string, error) {
	if (sc.CPLTweak != nil || sc.ProviderOverride != nil) && sc.Variant == "" {
		return "", fmt.Errorf("core: SystemConfig with CPLTweak/ProviderOverride requires a Variant label for a stable identity")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s|cpl=%v|cacp=%v", sc.Scheduler, sc.CPL, sc.CACP)
	if sc.CACPConfig != nil {
		c := sc.CACPConfig
		// "noship", "nopart", "dyn" and "srrip" name options that no
		// longer exist; they stay so that no disk-cache key moves.
		fmt.Fprintf(&b, "|ways=%d|sig=%d|line=%d|noship=false|nopart=false|dyn=false|srrip=false",
			c.CriticalWays, c.Signature, c.LineBytes)
	}
	if sc.Oracle != nil {
		fmt.Fprintf(&b, "|oracle=%016x", oracleFingerprint(sc.Oracle))
	}
	if sc.Variant != "" {
		fmt.Fprintf(&b, "|variant=%s", sc.Variant)
	}
	return b.String(), nil
}

// oracleFingerprint hashes the oracle table (FNV-1a over sorted
// entries) so distinct profiles key distinctly and identical profiles
// key identically, independent of map iteration order.
func oracleFingerprint(oracle map[int]float64) uint64 {
	gids := make([]int, 0, len(oracle))
	for gid := range oracle {
		gids = append(gids, gid)
	}
	sort.Ints(gids)
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	for _, gid := range gids {
		mix(uint64(gid))
		mix(math.Float64bits(oracle[gid]))
	}
	return h
}

// Providers returns the design point's per-SM criticality provider
// factory, nil for a criticality-oblivious point. It is the one place a
// provider is chosen: NewGPU installs it unless ProviderOverride
// replaces it, and a tracer decorates it.
func (sc SystemConfig) Providers() func() sm.CriticalityProvider {
	switch {
	case sc.Oracle != nil:
		oracle := sc.Oracle
		return func() sm.CriticalityProvider { return NewOracle(oracle) }
	case sc.CPL || sc.CACP || sc.Scheduler == "gcaws" || sc.Scheduler == "caws":
		tweak := sc.CPLTweak
		return func() sm.CriticalityProvider {
			c := NewCPL()
			if tweak != nil {
				tweak(c)
			}
			return c
		}
	}
	return nil
}

// NewGPU builds a ready-to-launch GPU for the design point. Its
// criticality providers are ProviderOverride when set, Providers'
// otherwise.
func (sc SystemConfig) NewGPU(cfg config.Config, mem *memory.Memory) (*gpu.GPU, error) {
	factory, ok := sched.Lookup(sc.Scheduler)
	if !ok {
		return nil, fmt.Errorf("core: unknown scheduler %q (have %v)", sc.Scheduler, sched.Names())
	}
	opt := gpu.Options{Config: cfg, Memory: mem, Policy: factory, Criticality: sc.ProviderOverride}
	if opt.Criticality == nil {
		opt.Criticality = sc.Providers()
	}
	if sc.CACP {
		ccfg := DefaultCACPConfig()
		if sc.CACPConfig != nil {
			ccfg = *sc.CACPConfig
		}
		if ccfg.LineBytes == 0 {
			ccfg.LineBytes = cfg.L1D.LineBytes
		}
		if ccfg.CriticalWays > cfg.L1D.Ways {
			return nil, fmt.Errorf("core: %d critical ways exceed %d-way L1D",
				ccfg.CriticalWays, cfg.L1D.Ways)
		}
		opt.L1Policy = func() cache.Policy { return NewCACP(ccfg) }
	}
	return gpu.New(opt)
}
