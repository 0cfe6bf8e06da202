// Package cawa is a cycle-level GPU simulator and a reproduction of
// "CAWA: Coordinated Warp Scheduling and Cache Prioritization for
// Critical Warp Acceleration of GPGPU Workloads" (Lee, Arunkumar, Wu;
// ISCA 2015).
//
// The package re-exports the library's stable surface:
//
//   - Config / GTX480: the simulated architecture (the paper's Table 1).
//   - SystemConfig / CAWA / Baseline: a design point — warp scheduler,
//     criticality prediction (CPL) and cache prioritization (CACP).
//   - Params / Run: execute one of the twelve ported GPGPU workloads on
//     a design point and collect statistics.
//   - RunExperiment / ExperimentIDs: regenerate the paper's tables and
//     figures (see DESIGN.md for the experiment index).
//
// Lower-level building blocks (the mini ISA, the SIMT core, caches,
// schedulers) live in internal/ packages; examples/ shows how they
// compose.
package cawa

import (
	"cawa/internal/config"
	"cawa/internal/core"
	"cawa/internal/harness"
	"cawa/internal/stats"
	"cawa/internal/workloads"
)

// Config describes the simulated GPU (Table 1 of the paper).
type Config = config.Config

// GTX480 returns the paper's evaluation configuration.
func GTX480() Config { return config.GTX480() }

// SmallConfig returns a 2-SM variant for quick experimentation.
func SmallConfig() Config { return config.Small() }

// SystemConfig selects a design point: warp scheduler ("lrr", "gto",
// "2lvl", "caws", "gcaws"), CPL criticality prediction and CACP cache
// prioritization.
type SystemConfig = core.SystemConfig

// CAWA returns the paper's full coordinated design: gCAWS + CPL + CACP.
func CAWA() SystemConfig { return core.CAWA() }

// Baseline returns the round-robin baseline.
func Baseline() SystemConfig { return core.Baseline() }

// Params scales workload inputs (Scale 1 = repository defaults;
// the paper's inputs are roughly 16-64x larger).
type Params = workloads.Params

// Launch aggregates the statistics of a run: cycles, IPC, L1D MPKI,
// per-warp records and execution-time disparity.
type Launch = stats.Launch

// Result is the outcome of one workload run.
type Result = harness.Result

// Workloads lists the registered benchmark names.
func Workloads() []string { return workloads.Names() }

// Run executes a workload on a design point using the given
// architecture, and verifies the results against the workload's Go
// reference implementation.
func Run(workload string, p Params, sc SystemConfig, cfg Config) (*Result, error) {
	return harness.Run(harness.RunOptions{
		Workload: workload,
		Params:   p,
		System:   sc,
		Config:   cfg,
	})
}

// RunOptions describes one run in full detail: the workload and design
// point plus the engine's domain count (SMWorkers) and instrumentation
// hooks.
type RunOptions = harness.RunOptions

// RunWith executes one run described by opt. Statistics are
// byte-identical at any domain count.
func RunWith(opt RunOptions) (*Result, error) { return harness.Run(opt) }

// Table is a printable experiment result.
type Table = harness.Table

// Session schedules runs shared between experiments over a bounded
// worker pool, deduplicating concurrent requests for the same design
// point (see Session.SetWorkers and Session.Prewarm).
type Session = harness.Session

// RunKey names one (application, design point) cell of a session's run
// matrix.
type RunKey = harness.RunKey

// NewSession builds an experiment session sized to runtime.NumCPU
// workers.
func NewSession(cfg Config, p Params) *Session { return harness.NewSession(cfg, p) }

// PrewarmExperiments simulates the pooled run matrices of the named
// experiments across the session's worker pool.
func PrewarmExperiments(s *Session, ids []string) error {
	return harness.PrewarmExperiments(s, ids)
}

// ExperimentIDs lists the reproducible tables and figures.
func ExperimentIDs() []string { return harness.ExperimentIDs() }

// RunExperiment regenerates one of the paper's tables or figures.
func RunExperiment(id string, s *Session) (*Table, error) {
	return harness.RunExperiment(id, s)
}
