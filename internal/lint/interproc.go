package lint

// Interprocedural analysis: whole-module rules that follow call chains
// instead of stopping at the statement that appears in the source.
//
// The per-file rules (lint.go) catch direct violations — a time.Now in
// a sim package, a System method call in SM code. The invariants they
// protect are transitive, though: a helper three calls away that
// allocates still breaks the 0-allocs/cycle budget, and a utility that
// locks a mutex still stalls a domain goroutine. AnalyzeModule builds
// the module call graph (callgraph.go), seeds it with the root sets
// below, and flags violations anywhere in the reachable closure, each
// with a witness call path back to its root.
//
// Root sets (DefaultInterOptions):
//
//   - CycleRoots: the per-cycle hot path. SM.Cycle and System.Cycle are
//     the work of one simulated cycle, and SM.handleFill is the SM's
//     other entry point — fills reach it through a callback value, from
//     the engine's head drain and from a domain's in-span delivery, and
//     it wakes parked warps, so it is named rather than left to the
//     call graph's func-value matching; the span engine's planner
//     (GPU.planHorizon, System.PlanSpanFills), span body
//     (domainWorker.stepSpan) and replay (GPU.replay — it visits every
//     cycle the span covered) are the loops that drive them.
//     GPU.Launch, GPU.runSpan and GPU.dispatch are deliberately NOT
//     roots: launch setup and block dispatch allocate by design (slices
//     sized to the grid), and the dynamic witnesses for the invariant —
//     sm.TestCyclePathAllocFree and gpu.TestProfilerOffZeroCost —
//     measure exactly the cycle and span paths in steady state.
//   - DomainRoots: what a domain executes during a span
//     (gpu/domains.go): the SM cycle plus the profiler taps. The runner
//     machinery itself (channels, atomics, WaitGroup) is the sanctioned
//     synchronization layer and is not reachable from these roots.
//   - StagedRoots: SM-domain code whose memory-system traffic must go
//     through the L1D's staged interface. Call sites inside the memsys
//     package are exempt — the L1D legitimately schedules events on the
//     System when staging is off; stage.go is the mediator.
//   - SerializationRoots: the checkpoint capture/encode/decode/restore
//     paths plus the functional-replay launcher. A snapshot digest must
//     be a pure function of simulated state, so nothing these reach may
//     read the host clock; map-order nondeterminism is banned per-file
//     (internal/checkpoint and internal/state sit in SimPaths).
//
// A root name that fails to resolve is a load error, not an empty
// result: a rename must not silently turn the gate vacuous.

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// InterOptions configures AnalyzeModule. The embedded per-file Options
// scope the intraprocedural rules, which run over the whole module in
// the same pass so directive usage can be accounted across both.
type InterOptions struct {
	Options

	// CycleRoots seed the hot-path allocation and transitive wall-clock
	// rules, named as go/types renders them: pkg.Func for functions,
	// (pkg.T).M or (*pkg.T).M for methods.
	CycleRoots []string
	// DomainRoots seed the domain-unsafe rule: code reachable from a
	// domain worker goroutine may not use channels, mutexes, go
	// statements, or non-allowlisted atomics.
	DomainRoots []string
	// StagedRoots seed the transitive memsys-mutation rule.
	StagedRoots []string
	// SerializationRoots seed the transitive wall-clock rule for the
	// checkpoint encode/decode paths: a snapshot digest must be a pure
	// function of simulated state, so nothing reachable from
	// serialization may read the host clock. (Map-order nondeterminism
	// is covered per-file: internal/checkpoint and internal/state are in
	// SimPaths, so the map-range rule bans iteration the byte stream
	// could observe.)
	SerializationRoots []string
	// MemsysPath is the package whose System type the staged rule
	// protects.
	MemsysPath string
	// AtomicAllowed lists synchronization details (as rendered in
	// domain-unsafe messages, e.g. "sync/atomic.Int64.Load") permitted
	// in domain-reachable code.
	AtomicAllowed []string
}

// DefaultInterOptions matches this repository's engine layout.
func DefaultInterOptions() InterOptions {
	return InterOptions{
		Options: DefaultOptions(),
		CycleRoots: []string{
			"(*cawa/internal/sm.SM).Cycle",
			"(*cawa/internal/sm.SM).handleFill",
			"(*cawa/internal/memsys.System).Cycle",
			"(*cawa/internal/gpu.GPU).planHorizon",
			"(*cawa/internal/memsys.System).PlanSpanFills",
			"(*cawa/internal/gpu.domainWorker).stepSpan",
			"(*cawa/internal/gpu.GPU).replay",
			// The profiler's per-span fold (runSpan calls it when on).
			"(*cawa/internal/obs/perf.Profiler).ObserveEpoch",
		},
		DomainRoots: []string{
			"(*cawa/internal/sm.SM).Cycle",
			"(*cawa/internal/sm.SM).handleFill",
			"(*cawa/internal/obs/perf.Profiler).Now",
			"(*cawa/internal/obs/perf.Profiler).RecordShardCompute",
			// The span body a domain executes, including the in-span fill
			// deliveries it performs.
			"(*cawa/internal/gpu.domainWorker).stepSpan",
		},
		StagedRoots: []string{
			"(*cawa/internal/sm.SM).Cycle",
			// Horizon planning must stay read-only against the System
			// (SafeHorizon is the one sanctioned query), and a domain's
			// span body must defer all System-side effects to the span
			// replay (memsys spanfill.go).
			"(*cawa/internal/gpu.GPU).planHorizon",
			"(*cawa/internal/gpu.domainWorker).stepSpan",
		},
		MemsysPath: "cawa/internal/memsys",
		SerializationRoots: []string{
			"cawa/internal/checkpoint.Capture",
			"cawa/internal/checkpoint.Restore",
			"cawa/internal/checkpoint.Encode",
			"cawa/internal/checkpoint.Decode",
			"cawa/internal/checkpoint.StateHash",
			// The sampled-simulation replay path: functionally executed
			// launches must be as clock-free as timed ones, or resumed
			// runs could diverge from uninterrupted ones.
			"cawa/internal/checkpoint.FunctionalLaunch",
		},
	}
}

// AnalyzeModule runs the per-file rules over every package of m plus
// the interprocedural rules over its call graph, and reports stale
// suppression directives. Findings come back sorted by file, line,
// rule, with module-relative file names.
func AnalyzeModule(m *Module, opts InterOptions) ([]Finding, error) {
	a := &analysis{m: m, opts: opts}

	// Pass 1: per-file rules, against the real type information. The
	// directives are scanned once and shared, so a suppression consumed
	// by either pass counts as used.
	for _, pkg := range m.Sorted {
		for _, f := range pkg.Files {
			dirs, bare := scanDirectives(m.Fset, f)
			a.dirs = append(a.dirs, dirs...)
			a.findings = append(a.findings, lintFile(m.Fset, pkg.Path, f, opts.Options, pkg.Info, dirs, bare)...)
		}
	}

	// Pass 2: interprocedural rules over the call graph.
	a.g = buildCallGraph(m)
	cycleReach, err := a.g.reachFrom(opts.CycleRoots)
	if err != nil {
		return nil, err
	}
	domainReach, err := a.g.reachFrom(opts.DomainRoots)
	if err != nil {
		return nil, err
	}
	stagedReach, err := a.g.reachFrom(opts.StagedRoots)
	if err != nil {
		return nil, err
	}
	serialReach, err := a.g.reachFrom(opts.SerializationRoots)
	if err != nil {
		return nil, err
	}
	a.hotPathAlloc(cycleReach)
	a.wallClockTransitive(cycleReach, domainReach, serialReach)
	a.memsysTransitive(stagedReach)
	a.domainUnsafe(domainReach)
	a.globalWrites(cycleReach, domainReach)

	// Pass 3: suppressions that suppressed nothing are findings too.
	for _, d := range a.dirs {
		if d.used {
			continue
		}
		a.findings = append(a.findings, Finding{
			Pos:  token.Position{Filename: d.file, Line: d.line},
			Rule: RuleStaleIgnore,
			Msg: fmt.Sprintf("cawalint:%s directive suppresses no finding; remove it (reason given: %q)",
				d.kind, d.reason),
		})
	}

	a.finalize()
	return a.findings, nil
}

type analysis struct {
	m        *Module
	g        *callGraph
	opts     InterOptions
	dirs     []*directive
	findings []Finding
}

// relFile renders a fset filename relative to the module root with
// forward slashes, the stable spelling findings and their JSON use.
func (a *analysis) relFile(name string) string {
	if rel, err := filepath.Rel(a.m.Dir, name); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(name)
}

// report adds one interprocedural finding unless a directive covers it.
func (a *analysis) report(rule string, node *cgNode, s site, reach map[*cgNode]*cgNode, msg string) {
	pos := a.m.Fset.Position(s.pos)
	for _, d := range a.dirs {
		if d.covers(pos.Filename, pos.Line, rule) {
			d.used = true
			return
		}
	}
	a.findings = append(a.findings, Finding{
		Pos:  pos,
		Rule: rule,
		Msg:  msg + " [" + witness(reach, node) + "]",
	})
}

// witness renders the call path from a root to n.
func witness(reach map[*cgNode]*cgNode, n *cgNode) string {
	var rev []string
	for cur := n; cur != nil; cur = reach[cur] {
		rev = append(rev, cur.name)
	}
	parts := make([]string, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		parts = append(parts, rev[i])
	}
	return strings.Join(parts, " -> ")
}

// reachFrom computes the closure of the named roots, with a parent
// pointer per node for witness paths. Unresolvable roots are errors.
func (g *callGraph) reachFrom(names []string) (map[*cgNode]*cgNode, error) {
	set := map[*cgNode]*cgNode{}
	var queue []*cgNode
	for _, name := range names {
		n := g.nodes[name]
		if n == nil {
			return nil, fmt.Errorf("lint root %q does not resolve to any function in the module; if it was renamed, update the root set (the gate must not go vacuous silently)", name)
		}
		if _, ok := set[n]; !ok {
			set[n] = nil
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.callees {
			if _, ok := set[e.to]; !ok {
				set[e.to] = n
				queue = append(queue, e.to)
			}
		}
	}
	return set, nil
}

// sortedNodes returns a reach set's members in name order, so rule
// iteration (and therefore directive marking) is deterministic.
func sortedNodes(reach map[*cgNode]*cgNode) []*cgNode {
	out := make([]*cgNode, 0, len(reach))
	for n := range reach {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// hotPathAlloc enforces the 0-allocs/steady-cycle invariant statically:
// any allocation construct reachable from the cycle roots is a finding
// unless annotated //cawalint:alloc-ok <reason> (amortized growth,
// cold paths).
func (a *analysis) hotPathAlloc(cycle map[*cgNode]*cgNode) {
	for _, n := range sortedNodes(cycle) {
		for _, s := range n.facts.allocs {
			a.report(RuleHotPathAlloc, n, s, cycle, fmt.Sprintf(
				"%s on the per-cycle hot path breaks the 0-allocs/cycle invariant; restructure, or annotate //cawalint:alloc-ok <reason> if amortized or cold",
				s.detail))
		}
	}
}

// wallClockTransitive extends the wall-clock ban to everything the
// engine can reach: code outside the per-file rule's path scopes that
// reads the host clock is flagged when a cycle, domain, or
// serialization root reaches it. Inside those scopes the per-file rule
// already reported it.
func (a *analysis) wallClockTransitive(reaches ...map[*cgNode]*cgNode) {
	seen := map[*cgNode]bool{}
	for _, reach := range reaches {
		for _, n := range sortedNodes(reach) {
			if seen[n] {
				continue
			}
			seen[n] = true
			if hasPrefix(n.pkg.Path, a.opts.SimPaths) || hasPrefix(n.pkg.Path, a.opts.WallClockPaths) {
				continue
			}
			for _, s := range n.facts.wallClock {
				a.report(RuleWallClockTrans, n, s, reach, fmt.Sprintf(
					"%s is reachable from the deterministic engine; wall time may enter only through the injected obs/perf clock seam",
					s.detail))
			}
		}
	}
}

// memsysTransitive follows staged-SM call chains to memsys.System
// method calls. The per-file rule catches direct calls in SM source;
// this one catches a helper in any package that an SM cycle reaches.
// Call sites inside the memsys package itself are the sanctioned
// mediator (the L1D's staging seam) and are exempt.
func (a *analysis) memsysTransitive(staged map[*cgNode]*cgNode) {
	for _, n := range sortedNodes(staged) {
		if n.pkg != nil && n.pkg.Path == a.opts.MemsysPath {
			continue
		}
		for _, e := range n.callees {
			name, ok := a.systemMethod(e.to)
			if !ok || allowedSystemMethods[name] {
				continue
			}
			a.report(RuleMemsysTransitive, n, site{pos: e.pos, detail: "System." + name}, staged, fmt.Sprintf(
				"memsys.System.%s is reached from staged SM-domain code; during parallel epochs memory traffic must go through the L1D's staged interface (memsys/stage.go)",
				name))
		}
	}
}

// systemMethod reports whether a node is a method on the protected
// System type, and its name.
func (a *analysis) systemMethod(n *cgNode) (string, bool) {
	if n.fn == nil || n.sig == nil || n.sig.Recv() == nil {
		return "", false
	}
	if recvTypeName(n.sig.Recv().Type()) != "System" {
		return "", false
	}
	if n.pkg == nil || n.pkg.Path != a.opts.MemsysPath {
		return "", false
	}
	return n.fn.Name(), true
}

// domainUnsafe bans synchronization constructs in code a domain worker
// goroutine can execute: determinism of the parallel engine rests on
// the epoch barrier being the only synchronization, so channels,
// mutexes, nested goroutines, and non-allowlisted atomics anywhere in
// the reachable closure are findings.
func (a *analysis) domainUnsafe(domain map[*cgNode]*cgNode) {
	for _, n := range sortedNodes(domain) {
		for _, s := range n.facts.chanOps {
			a.report(RuleDomainUnsafe, n, s, domain,
				s.detail+" in domain-goroutine-reachable code; the epoch barrier must be the only synchronization")
		}
		for _, s := range n.facts.goStmts {
			a.report(RuleDomainUnsafe, n, s, domain,
				"goroutine creation in domain-goroutine-reachable code; workers must not spawn workers")
		}
		for _, s := range n.facts.syncOps {
			if a.atomicAllowed(s.detail) {
				continue
			}
			a.report(RuleDomainUnsafe, n, s, domain,
				s.detail+" in domain-goroutine-reachable code; the epoch barrier must be the only synchronization")
		}
	}
}

func (a *analysis) atomicAllowed(detail string) bool {
	for _, ok := range a.opts.AtomicAllowed {
		if detail == ok {
			return true
		}
	}
	return false
}

// globalWrites flags writes to package-level variables of deterministic
// packages from anywhere the engine reaches: shared mutable globals
// under the parallel engine are races, and even under the serial engine
// they leak state between runs.
func (a *analysis) globalWrites(cycle, domain map[*cgNode]*cgNode) {
	seen := map[*cgNode]bool{}
	for _, reach := range []map[*cgNode]*cgNode{cycle, domain} {
		for _, n := range sortedNodes(reach) {
			if seen[n] {
				continue
			}
			seen[n] = true
			for _, s := range n.facts.globalWrites {
				pkgPath := s.detail
				if i := strings.LastIndexByte(pkgPath, '.'); i >= 0 {
					pkgPath = pkgPath[:i]
				}
				if !hasPrefix(pkgPath, a.opts.SimPaths) {
					continue
				}
				a.report(RuleGlobalWrite, n, s, reach, fmt.Sprintf(
					"write to package-level %s from engine-reachable code; deterministic packages must keep state in the structs a run owns",
					s.detail))
			}
		}
	}
}

// finalize normalizes file names to module-relative form and sorts.
func (a *analysis) finalize() {
	for i := range a.findings {
		a.findings[i].Pos.Filename = a.relFile(a.findings[i].Pos.Filename)
	}
	sortFindings(a.findings)
}
