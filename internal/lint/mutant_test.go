package lint

// Seeded-mutant suite: each test writes a small module shaped like the
// real engine (module cawa, the default root set resolvable), injects
// one deliberate violation, and asserts the interprocedural analyzer
// reports it under its expected stable ID. These are the proofs that
// the gate actually fires — a refactor that silently disconnects a
// rule from the call graph fails here, not in production.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// mutantBase is the clean fixture module. Every mutant overrides one
// or two of these files.
var mutantBase = map[string]string{
	"go.mod": "module cawa\n\ngo 1.22\n",
	"internal/memsys/memsys.go": `// Package memsys is the staged-memory stub for the mutant suite.
package memsys

// System is the protected shared memory system.
type System struct {
	n int
}

// Cycle processes due events.
func (s *System) Cycle() {}

// Schedule enqueues an event; staged SM-domain code must not reach it.
func (s *System) Schedule(t int64) { s.n++ }

// SafeHorizon is the read-only horizon query the span planner is
// allowed to call (allowedSystemMethods).
func (s *System) SafeHorizon(now int64) int64 { return now + 1 }

// PlanSpanFills hands the pending in-span fills to their L1s.
func (s *System) PlanSpanFills(horizon int64) {}

// New builds the shared system (construction time, off every root).
func New() *System { return &System{} }

// L1D is the per-SM front end SM code is meant to go through.
type L1D struct{ sys *System }

// NewL1D is the sanctioned construction-time wiring.
func (s *System) NewL1D() *L1D { return &L1D{sys: s} }

// AccessLoad is the staged route to the System.
func (l *L1D) AccessLoad(now int64) {}
`,
	"internal/sm/sm.go": `// Package sm is the SM stub for the mutant suite.
package sm

import (
	"cawa/internal/core"
	"cawa/internal/memsys"
	"cawa/internal/util"
)

// SM is the stub streaming multiprocessor.
type SM struct {
	n   int
	sys *memsys.System
	ch  chan int
}

// Cycle runs one cycle through the helper packages.
func (s *SM) Cycle() {
	s.n = util.Bump(s.n)
	core.Note()
}
`,
	"internal/sm/fill.go": `package sm

// handleFill receives completed miss lines and wakes the warps parked
// on them. Fills arrive through a callback value, so it is a root of
// its own.
func (s *SM) handleFill(now int64, tokens []int64) {
	for range tokens {
		s.wake()
	}
}

// wake returns a parked warp to the candidate set.
func (s *SM) wake() { s.n++ }
`,
	"internal/util/util.go": `// Package util holds helpers outside the sim-path scope.
package util

// Bump is the clean helper the mutants replace.
func Bump(n int) int { return n + 1 }

// Pack is the clean serialization helper the mutants replace.
func Pack(b []byte) []byte { return b }
`,
	"internal/core/core.go": `// Package core is a sim-path package for the global-write mutant.
package core

// Note records issue activity.
func Note() {}
`,
	"internal/gpu/gpu.go": `// Package gpu is a stub so the engine-loop roots resolve.
package gpu

import (
	"cawa/internal/memsys"
	"cawa/internal/sm"
)

// GPU is the stub engine.
type GPU struct {
	sms []*sm.SM
	sys *memsys.System
}

// replay mirrors the real span replay: the System drained cycle by
// cycle on the engine's goroutine.
func (g *GPU) replay() { g.sys.Cycle() }

// planHorizon mirrors the real span planner: read-only against the
// System through the sanctioned SafeHorizon query.
func (g *GPU) planHorizon(now int64) int64 { return g.sys.SafeHorizon(now) }

// runSpan mirrors the real span path: plan, one span stepped on the
// domain, then the replay.
func (g *GPU) runSpan(w *domainWorker, now int64) {
	f := g.planHorizon(now)
	g.sys.PlanSpanFills(f)
	w.stepSpan(now+1, f-1)
	g.replay()
}

// domainWorker is the stub span executor.
type domainWorker struct {
	sms []*sm.SM
}

// stepSpan advances the owned SMs across one span.
func (w *domainWorker) stepSpan(from, to int64) {
	for t := from; t <= to; t++ {
		for _, s := range w.sms {
			s.Cycle()
		}
	}
}

// Run drives the stub engine.
func (g *GPU) Run() {
	g.runSpan(&domainWorker{sms: g.sms}, 0)
}
`,
	"internal/checkpoint/checkpoint.go": `// Package checkpoint is a stub so the serialization roots resolve.
package checkpoint

import "cawa/internal/util"

// Snapshot is the stub state capture.
type Snapshot struct {
	payload []byte
}

// Capture snapshots the stub engine.
func Capture() *Snapshot { return &Snapshot{} }

// Restore rebuilds the stub engine.
func Restore(s *Snapshot) error { return nil }

// Encode serializes through the helper package.
func Encode(s *Snapshot) []byte { return util.Pack(s.payload) }

// Decode deserializes through the helper package.
func Decode(b []byte) (*Snapshot, error) { return &Snapshot{payload: util.Pack(b)}, nil }

// StateHash digests a snapshot.
func StateHash(s *Snapshot) string { return string(Encode(s)) }

// FunctionalLaunch replays one launch without timing.
func FunctionalLaunch() error { return nil }
`,
	"internal/obs/perf/perf.go": `// Package perf is a stub so the profiler roots resolve.
package perf

// Profiler is the stub self-profiler.
type Profiler struct {
	now int64
}

// Now returns the stub clock.
func (p *Profiler) Now() int64 { return p.now }

// RecordShardCompute accounts one shard's compute time.
func (p *Profiler) RecordShardCompute(shard int, cycles int64) { p.now += cycles }

// ObserveEpoch folds one multi-domain span.
func (p *Profiler) ObserveEpoch(start, end int64, workers int) { p.now = end }
`,
}

// analyzeMutant materializes the base module with overrides applied
// and runs the full interprocedural analysis on it.
func analyzeMutant(t *testing.T, overrides map[string]string) []Finding {
	t.Helper()
	files := map[string]string{}
	for name, src := range mutantBase {
		files[name] = src
	}
	for name, src := range overrides {
		files[name] = src
	}
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m, err := LoadModule(dir)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	findings, err := AnalyzeModule(m, DefaultInterOptions())
	if err != nil {
		t.Fatalf("AnalyzeModule: %v", err)
	}
	return findings
}

// assertFinding requires a finding of rule whose witness path ends at
// function fn.
func assertFinding(t *testing.T, findings []Finding, rule, fn string) {
	t.Helper()
	for _, f := range findings {
		if f.Rule == rule && strings.HasSuffix(f.Msg, fn+"]") {
			return
		}
	}
	var got []string
	for _, f := range findings {
		got = append(got, f.String())
	}
	t.Errorf("expected a %s finding in %s, got %d findings:\n%s",
		rule, fn, len(findings), strings.Join(got, "\n"))
}

// TestMutantBaseClean proves the fixture itself carries no findings,
// so each mutant's finding is attributable to its seeded violation.
func TestMutantBaseClean(t *testing.T) {
	findings := analyzeMutant(t, nil)
	if len(findings) != 0 {
		var got []string
		for _, f := range findings {
			got = append(got, f.String())
		}
		t.Fatalf("base module should be clean, got:\n%s", strings.Join(got, "\n"))
	}
}

// TestMutantMemsysTransitive seeds a System mutation reached through a
// helper package: SM.Cycle -> util.Drain -> System.Schedule. The
// per-file rule cannot see it (the call is not in SM source); the
// transitive rule must.
func TestMutantMemsysTransitive(t *testing.T) {
	findings := analyzeMutant(t, map[string]string{
		"internal/util/util.go": `package util

import "cawa/internal/memsys"

// Bump is the clean helper.
func Bump(n int) int { return n + 1 }

// Pack is the clean serialization helper.
func Pack(b []byte) []byte { return b }

// Drain bypasses the staged L1 interface (seeded violation).
func Drain(s *memsys.System) { s.Schedule(3) }
`,
		"internal/sm/sm.go": `package sm

import (
	"cawa/internal/core"
	"cawa/internal/memsys"
	"cawa/internal/util"
)

// SM is the stub streaming multiprocessor.
type SM struct {
	n   int
	sys *memsys.System
	ch  chan int
}

// Cycle launders the System mutation through the helper package.
func (s *SM) Cycle() {
	s.n = util.Bump(s.n)
	util.Drain(s.sys)
	core.Note()
}
`,
	})
	assertFinding(t, findings, RuleMemsysTransitive, "cawa/internal/util.Drain")
}

// TestMutantHotPathAllocTwoDeep seeds an allocation two calls below the
// cycle root: SM.Cycle -> util.Bump -> util.pad -> make.
func TestMutantHotPathAllocTwoDeep(t *testing.T) {
	findings := analyzeMutant(t, map[string]string{
		"internal/util/util.go": `package util

// Bump now allocates two calls below the cycle root (seeded violation).
func Bump(n int) int { return len(pad(n)) }

// Pack is the clean serialization helper.
func Pack(b []byte) []byte { return b }

func pad(n int) []int { return make([]int, n) }
`,
	})
	assertFinding(t, findings, RuleHotPathAlloc, "cawa/internal/util.pad")
}

// TestMutantFillWakeAlloc seeds an allocation in the wake helper, which
// only the fill path reaches: SM.handleFill -> SM.wake -> append. Fills
// arrive through a callback value, outside SM.Cycle's call tree, so this
// is the proof that the hot-path rule covers the SM's second entry
// point.
func TestMutantFillWakeAlloc(t *testing.T) {
	findings := analyzeMutant(t, map[string]string{
		"internal/sm/fill.go": `package sm

// handleFill receives completed miss lines and wakes the warps parked
// on them.
func (s *SM) handleFill(now int64, tokens []int64) {
	for range tokens {
		s.wake()
	}
}

// wake now builds a list per woken warp (seeded violation).
func (s *SM) wake() []int { return append([]int(nil), s.n) }
`,
	})
	assertFinding(t, findings, RuleHotPathAlloc, "(*cawa/internal/sm.SM).wake")
}

// TestMutantDomainChannel seeds a channel send in code a domain worker
// goroutine reaches: SM.Cycle -> util.Notify -> ch<-.
func TestMutantDomainChannel(t *testing.T) {
	findings := analyzeMutant(t, map[string]string{
		"internal/util/util.go": `package util

// Bump is the clean helper.
func Bump(n int) int { return n + 1 }

// Pack is the clean serialization helper.
func Pack(b []byte) []byte { return b }

// Notify pushes on a channel (seeded violation).
func Notify(ch chan int) { ch <- 1 }
`,
		"internal/sm/sm.go": `package sm

import (
	"cawa/internal/core"
	"cawa/internal/memsys"
	"cawa/internal/util"
)

// SM is the stub streaming multiprocessor.
type SM struct {
	n   int
	sys *memsys.System
	ch  chan int
}

// Cycle reaches a channel send through the helper package.
func (s *SM) Cycle() {
	s.n = util.Bump(s.n)
	util.Notify(s.ch)
	core.Note()
}
`,
	})
	assertFinding(t, findings, RuleDomainUnsafe, "cawa/internal/util.Notify")
}

// TestMutantPlanHorizonMutation seeds a System mutation in the span
// horizon planner: planning must stay read-only (SafeHorizon
// is the one sanctioned query), and a direct Schedule call from gpu
// code is invisible to the per-file rule (scoped to internal/sm), so
// only the transitive rule rooted at planHorizon can catch it.
func TestMutantPlanHorizonMutation(t *testing.T) {
	findings := analyzeMutant(t, map[string]string{
		"internal/gpu/gpu.go": `// Package gpu is a stub so the engine-loop roots resolve.
package gpu

import (
	"cawa/internal/memsys"
	"cawa/internal/sm"
)

// GPU is the stub engine.
type GPU struct {
	sms []*sm.SM
	sys *memsys.System
}

// replay mirrors the real span replay: the System drained cycle by
// cycle on the engine's goroutine.
func (g *GPU) replay() { g.sys.Cycle() }

// planHorizon mutates the System while planning (seeded violation).
func (g *GPU) planHorizon(now int64) int64 {
	g.sys.Schedule(now)
	return g.sys.SafeHorizon(now)
}

// runSpan mirrors the real span path.
func (g *GPU) runSpan(w *domainWorker, now int64) {
	f := g.planHorizon(now)
	g.sys.PlanSpanFills(f)
	w.stepSpan(now+1, f-1)
	g.replay()
}

// domainWorker is the stub span executor.
type domainWorker struct {
	sms []*sm.SM
}

// stepSpan advances the owned SMs across one span.
func (w *domainWorker) stepSpan(from, to int64) {
	for t := from; t <= to; t++ {
		for _, s := range w.sms {
			s.Cycle()
		}
	}
}

// Run drives the stub engine.
func (g *GPU) Run() {
	g.runSpan(&domainWorker{sms: g.sms}, 0)
}
`,
	})
	assertFinding(t, findings, RuleMemsysTransitive, "(*cawa/internal/gpu.GPU).planHorizon")
}

// TestMutantStepSpanChannel seeds a channel send in the span body a
// domain executes: the span barrier must be the only synchronization,
// and stepSpan joining the domain-unsafe root set is what makes the
// gate see domain-side span code at all.
func TestMutantStepSpanChannel(t *testing.T) {
	findings := analyzeMutant(t, map[string]string{
		"internal/gpu/gpu.go": `// Package gpu is a stub so the engine-loop roots resolve.
package gpu

import (
	"cawa/internal/memsys"
	"cawa/internal/sm"
)

// GPU is the stub engine.
type GPU struct {
	sms []*sm.SM
	sys *memsys.System
}

// replay mirrors the real span replay: the System drained cycle by
// cycle on the engine's goroutine.
func (g *GPU) replay() { g.sys.Cycle() }

// planHorizon mirrors the real span planner.
func (g *GPU) planHorizon(now int64) int64 { return g.sys.SafeHorizon(now) }

// runSpan mirrors the real span path.
func (g *GPU) runSpan(w *domainWorker, now int64) {
	f := g.planHorizon(now)
	g.sys.PlanSpanFills(f)
	w.stepSpan(now+1, f-1)
	g.replay()
}

// domainWorker is the stub span executor.
type domainWorker struct {
	sms  []*sm.SM
	done chan int
}

// stepSpan signals mid-span progress on a channel (seeded violation).
func (w *domainWorker) stepSpan(from, to int64) {
	for t := from; t <= to; t++ {
		for _, s := range w.sms {
			s.Cycle()
		}
		w.done <- int(t)
	}
}

// Run drives the stub engine.
func (g *GPU) Run() {
	g.runSpan(&domainWorker{sms: g.sms}, 0)
}
`,
	})
	assertFinding(t, findings, RuleDomainUnsafe, "(*cawa/internal/gpu.domainWorker).stepSpan")
}

// TestMutantGlobalWrite seeds a write to package-level mutable state in
// a deterministic (sim-path) package, reached from the cycle root.
func TestMutantGlobalWrite(t *testing.T) {
	findings := analyzeMutant(t, map[string]string{
		"internal/core/core.go": `package core

// Issued is package-level mutable state (seeded violation).
var Issued int

// Note records issue activity.
func Note() { Issued++ }
`,
	})
	assertFinding(t, findings, RuleGlobalWrite, "cawa/internal/core.Note")
}

// TestMutantAllocOKSuppresses proves the escape hatch works end to end:
// the same two-deep allocation annotated //cawalint:alloc-ok is not a
// finding, and the directive counts as used (no stale-ignore).
func TestMutantAllocOKSuppresses(t *testing.T) {
	findings := analyzeMutant(t, map[string]string{
		"internal/util/util.go": `package util

// Bump allocates, but the site is annotated.
func Bump(n int) int { return len(pad(n)) }

// Pack is the clean serialization helper.
func Pack(b []byte) []byte { return b }

func pad(n int) []int {
	return make([]int, n) //cawalint:alloc-ok mutant fixture: annotated on purpose
}
`,
	})
	if len(findings) != 0 {
		var got []string
		for _, f := range findings {
			got = append(got, f.String())
		}
		t.Fatalf("annotated allocation should produce no findings, got:\n%s",
			strings.Join(got, "\n"))
	}
}

// TestMutantSerializationWallClock seeds a host-clock read in a helper
// the checkpoint encoder reaches: Encode -> util.Pack -> time.Now. The
// per-file rule cannot see it (util is outside every path scope), so
// only the transitive rule rooted at the serialization set can — a
// snapshot digest stamped with wall time would never verify on decode.
func TestMutantSerializationWallClock(t *testing.T) {
	findings := analyzeMutant(t, map[string]string{
		"internal/util/util.go": `package util

import "time"

// Bump is the clean helper.
func Bump(n int) int { return n + 1 }

// Pack stamps the payload with the host clock (seeded violation).
func Pack(b []byte) []byte {
	if time.Now().IsZero() {
		return nil
	}
	return b
}
`,
	})
	assertFinding(t, findings, RuleWallClockTrans, "cawa/internal/util.Pack")
}

// TestMutantStaleIgnore proves a directive that suppresses nothing is
// itself a finding.
func TestMutantStaleIgnore(t *testing.T) {
	findings := analyzeMutant(t, map[string]string{
		"internal/util/util.go": `package util

// Bump is clean; the annotation below it suppresses nothing.
func Bump(n int) int {
	return n + 1 //cawalint:alloc-ok nothing here allocates
}

// Pack is the clean serialization helper.
func Pack(b []byte) []byte { return b }
`,
	})
	found := false
	for _, f := range findings {
		if f.Rule == RuleStaleIgnore {
			found = true
		}
	}
	if !found {
		t.Errorf("expected a %s finding for the useless directive, got %d findings",
			RuleStaleIgnore, len(findings))
	}
}
