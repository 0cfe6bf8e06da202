package harness

import "cawa/internal/core"

func init() { registerGrid(&extCCWS) }

// extCCWS compares the CCWS-style baseline (reference [34] of the
// paper) against GTO and the full CAWA design on the Sens applications.
// CCWS needs per-SM providers attached to the L1Ds; setupRun wires them
// for any design point whose scheduler is "ccws"
// (TestCCWSAutoWiringPrecedence), so the column is an ordinary cacheable
// cell.
var extCCWS = grid{
	id:      "ext-ccws",
	title:   "Extension: CCWS locality-aware throttling vs GTO and CAWA",
	caption: "Speedup over RR: CCWS, GTO, CAWA (Sens apps)",
	sens:    true,
	cols: []gridCol{
		{label: "ccws", sc: core.SystemConfig{Scheduler: "ccws"}},
		{label: "gto", sc: gtoSystem},
		{label: "cawa", sc: core.CAWA()},
	},
	metric:    ipc,
	norm:      &rrSystem,
	summaries: gmeanRow,
}
