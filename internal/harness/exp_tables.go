package harness

import (
	"strings"

	"cawa/internal/core"
	"cawa/internal/workloads"
)

func init() {
	registerExp("tab1", "GPGPU-sim configuration (Table 1)", tab1)
	registerExp("tab2", "Benchmarks and data-set classification (Table 2)", tab2)
	registerGrid(&sec552)
}

// tab1 renders the architectural configuration in the paper's format.
func tab1(s *Session) (*Table, error) {
	t := NewTable("tab1", "Simulated configuration", "parameter", "value")
	for _, line := range strings.Split(s.Config.String(), "\n") {
		parts := strings.SplitN(line, "  ", 2)
		key := parts[0]
		val := ""
		if len(parts) > 1 {
			val = strings.TrimSpace(parts[1])
		}
		t.AddTextRow(key, val)
	}
	return t, nil
}

// tab2 lists the benchmark inventory with the Sens/Non-sens
// classification and the scaled default input sizes.
func tab2(s *Session) (*Table, error) {
	t := NewTable("tab2", "GPGPU benchmarks", "benchmark", "category", "registered")
	for _, app := range PaperApps {
		cat := "Non-sens"
		if isSens(app) {
			cat = "Sens"
		}
		found := "no"
		for _, n := range workloads.Names() {
			if n == app {
				found = "yes"
				break
			}
		}
		t.AddTextRow(app, cat, found)
	}
	return t, nil
}

// sec552: the paper notes that applying CPL-guided criticality
// scheduling on top of GTO improves the Sens applications by ~7%; in
// this design space that is gCAWS (criticality-first, GTO tie-break,
// greedy) versus plain GTO.
var sec552 = grid{
	id:        "sec552",
	title:     "CPL-guided scheduling on top of GTO (Section 5.5.2)",
	caption:   "gCAWS (CPL on GTO) vs plain GTO",
	sens:      true,
	cols:      []gridCol{{label: "speedup_vs_gto", sc: core.SystemConfig{Scheduler: "gcaws", CPL: true}}},
	metric:    ipc,
	norm:      &gtoSystem,
	summaries: gmeanRow,
}
