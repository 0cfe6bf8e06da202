package main

import (
	"encoding/json"
	"io"
)

// metricSpec declares one metric: its name, unit and direction, and —
// for end-to-end metrics only — the share of the parent's median by
// which it may worsen before a change counts as a regression.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them; a pass is the workload's whole job list once (see
// README.md). setup_s and wall_s are HOST time; sim_kcycles_per_s
// divides SIMULATED cycles by host seconds. The bounds are as wide as
// the contract allows because the reference box's run-to-run spread
// (interquartile, ten seeds) reaches 24 % on the two-worker workloads.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"sim_kcycles_per_s", "kcycles/s", "higher", 0.25},
}

// enginePhases are the perf.Report phase names read by string through
// Report.PhaseTotalNS, so the driver compiles whichever phases a later
// engine keeps (a vanished phase reads 0).
var enginePhases = []string{
	"domain_compute", "memsys_drain", "fast_forward", "dispatch",
	"staged_commit", "barrier_wait", "lookahead",
}

var schedProbes = []string{"lrr", "gto", "2lvl", "gcaws"}

// perLayer is reported by the -trace run. A metric the workload's
// traced pass cannot observe (engine phases on a cache-hit workload,
// serve timings on an engine workload) reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	m := []metricSpec{
		{"gpu.ns_per_sim_cycle", "ns", "lower", 0},
		{"gpu.ns_per_sm_cycle", "ns", "lower", 0},
	}
	for _, ph := range enginePhases {
		m = append(m, metricSpec{"gpu.phase_frac." + ph, "frac", "lower", 0})
	}
	m = append(m,
		metricSpec{"gpu.barriers_per_kcycle", "1/kcycle", "lower", 0},
		metricSpec{"gpu.us_per_launch", "us", "lower", 0},
		metricSpec{"gpu.trace_overhead_frac", "frac", "lower", 0},
		metricSpec{"sm.cycle_ns", "ns", "lower", 0},
		metricSpec{"sm.cycle_ns_stalled", "ns", "lower", 0},
		metricSpec{"sm.stall_frac.mem", "frac", "lower", 0},
		metricSpec{"sm.stall_frac.sched", "frac", "lower", 0},
		metricSpec{"sm.stall_frac.alu", "frac", "lower", 0},
		metricSpec{"sm.stall_frac.barrier", "frac", "lower", 0},
		metricSpec{"sm.ipc", "instr/cycle", "higher", 0},
		metricSpec{"simt.funcsim_ns_per_warp_instr", "ns", "lower", 0},
		metricSpec{"isa.validate_us", "us", "lower", 0},
	)
	for _, s := range schedProbes {
		m = append(m, metricSpec{"sched.select_ns." + s, "ns", "lower", 0})
	}
	m = append(m,
		metricSpec{"core.cpl_onissue_ns", "ns", "lower", 0},
		metricSpec{"core.cpl_criticality_ns", "ns", "lower", 0},
		metricSpec{"core.cacp_access_fill_ns", "ns", "lower", 0},
		metricSpec{"cache.probe_ns", "ns", "lower", 0},
		metricSpec{"cache.access_fill_ns", "ns", "lower", 0},
		metricSpec{"cache.replay_hit_rate", "frac", "higher", 0},
		metricSpec{"memsys.canaccept_ns", "ns", "lower", 0},
		metricSpec{"memsys.accessload_ns", "ns", "lower", 0},
		metricSpec{"memsys.drain_ns_per_event", "ns", "lower", 0},
		metricSpec{"memsys.l1d_rejects", "count", "lower", 0},
		metricSpec{"checkpoint.capture_ms", "ms", "lower", 0},
		metricSpec{"checkpoint.encode_ms", "ms", "lower", 0},
		metricSpec{"checkpoint.decode_ms", "ms", "lower", 0},
		metricSpec{"checkpoint.bytes", "bytes", "lower", 0},
		metricSpec{"checkpoint.resume_ms", "ms", "lower", 0},
		metricSpec{"harness.disk_store_ms", "ms", "lower", 0},
		metricSpec{"harness.disk_load_ms", "ms", "lower", 0},
		metricSpec{"harness.disk_entry_kb", "kB", "lower", 0},
		metricSpec{"harness.memwarm_us", "us", "lower", 0},
		metricSpec{"harness.sims", "count", "lower", 0},
		metricSpec{"harness.disk_hits", "count", "higher", 0},
		metricSpec{"harness.pool_efficiency", "frac", "higher", 0},
		metricSpec{"harness.fig9_paper_gap_pt", "pt", "lower", 0},
		metricSpec{"harness.fig9_gto_gap_pt", "pt", "lower", 0},
		metricSpec{"serve.queue_ms_p50", "ms", "lower", 0},
		metricSpec{"serve.run_ms_p50", "ms", "lower", 0},
		metricSpec{"serve.resp_kb", "kB", "lower", 0},
		metricSpec{"serve.alloc_kb_per_req", "kB", "lower", 0},
		metricSpec{"host.job_p50_ms", "ms", "lower", 0},
		metricSpec{"host.job_p99_ms", "ms", "lower", 0},
		metricSpec{"host.peak_rss_mb", "MB", "lower", 0},
		metricSpec{"host.alloc_mb_per_pass", "MB", "lower", 0},
		metricSpec{"host.gc_cpu_frac", "frac", "lower", 0},
		metricSpec{"digest_mismatch", "count", "lower", 0},
	)
	return m
}

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 10

// writeBenchmarkJSON renders the root BENCHMARK.json from the specs
// above, so the registered names cannot drift from the reported ones.
func writeBenchmarkJSON(w io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "cmd/cawaperf/run.sh"},
		Paths:      []string{"cmd/cawaperf"},
		RunSeconds: runSeconds,
	}
	for _, w := range catalog {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
