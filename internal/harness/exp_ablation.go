package harness

import (
	"fmt"

	"cawa/internal/core"
)

// The ablations are transposed grids: one row per design point, holding
// the geometric-mean IPC speedup over the RR baseline across the Sens
// applications.

func init() {
	registerGrid(ablation("abl-cpl", "Ablation: CPL counter terms (Equation 1)",
		"CPL term ablation (gCAWS, GMEAN speedup over RR, Sens apps)", "variant", ablCPLCols))
	registerGrid(ablation("abl-greedy", "Ablation: greedy vs re-ranking criticality scheduling",
		"Greedy hold vs per-cycle re-ranking (GMEAN speedup over RR, Sens apps)", "variant", ablGreedyCols))
	registerGrid(ablation("abl-partition", "Ablation: CACP critical-partition size sweep",
		"CACP critical ways sweep (GMEAN speedup over RR, Sens apps)", "critical_ways", ablPartitionCols()))
	registerGrid(ablation("abl-signature", "Ablation: CACP signature composition",
		"CACP signature composition (GMEAN speedup over RR, Sens apps)", "signature", ablSignatureCols()))
}

func ablation(id, title, caption, labelColumn string, cols []gridCol) *grid {
	return &grid{
		id: id, title: title, caption: caption,
		sens: true, cols: cols, metric: ipc, norm: &rrSystem, transposed: labelColumn,
	}
}

// cacpWith is the full CAWA design point with a tweaked CACP
// configuration.
func cacpWith(tweak func(cfg *core.CACPConfig)) core.SystemConfig {
	cfg := core.DefaultCACPConfig()
	tweak(&cfg)
	return core.SystemConfig{Scheduler: "gcaws", CPL: true, CACP: true, CACPConfig: &cfg}
}

// Stable tweak funcs; the Variant labels give the design points a
// stable cache identity (pointer-keyed closures are not cacheable).
var (
	tweakInstOnly  = func(c *core.CPL) { c.DisableStallTerm = true }
	tweakStallOnly = func(c *core.CPL) { c.DisableInstTerm = true }
)

// ablCPLCols compares the full Equation-1 criticality counter against
// instruction-disparity-only and stall-only predictors, under gCAWS.
var ablCPLCols = []gridCol{
	{label: "inst+stall (paper)", sc: core.SystemConfig{Scheduler: "gcaws", CPL: true}},
	{label: "inst-only", sc: core.SystemConfig{Scheduler: "gcaws", CPL: true, CPLTweak: tweakInstOnly, Variant: "cpl-inst-only"}},
	{label: "stall-only", sc: core.SystemConfig{Scheduler: "gcaws", CPL: true, CPLTweak: tweakStallOnly, Variant: "cpl-stall-only"}},
}

// ablGreedyCols compares gCAWS's greedy hold of the selected critical
// warp against re-ranking by criticality every cycle (the caws policy
// driven by CPL instead of an oracle).
var ablGreedyCols = []gridCol{
	{label: "greedy (gCAWS)", sc: core.SystemConfig{Scheduler: "gcaws", CPL: true}},
	{label: "re-rank each cycle", sc: core.SystemConfig{Scheduler: "caws", CPL: true}},
}

// ablPartitionCols sweeps the number of L1D ways reserved for critical
// lines (paper: 8 of 16 is best).
func ablPartitionCols() []gridCol {
	var cols []gridCol
	for _, ways := range []int{2, 4, 8, 12, 14} {
		cols = append(cols, gridCol{
			label: fmt.Sprintf("%d/16", ways),
			sc:    cacpWith(func(cfg *core.CACPConfig) { cfg.CriticalWays = ways }),
		})
	}
	return cols
}

// ablSignatureCols compares the paper's PC-xor-address signature with
// PC-only and address-only predictor indexing.
func ablSignatureCols() []gridCol {
	kinds := []struct {
		name string
		kind core.SignatureKind
	}{
		{"pc^addr (paper)", core.SigPCXorAddr},
		{"pc-only", core.SigPCOnly},
		{"addr-only", core.SigAddrOnly},
	}
	var cols []gridCol
	for _, k := range kinds {
		cols = append(cols, gridCol{label: k.name, sc: cacpWith(func(cfg *core.CACPConfig) { cfg.Signature = k.kind })})
	}
	return cols
}
