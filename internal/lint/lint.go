// Package lint statically enforces the simulator's determinism
// invariants over its own Go source. The simulation core must produce
// bit-identical results for identical configurations — that is what
// makes the paper's A/B scheduler comparisons meaningful — so the
// linter bans the constructs that silently break replayability:
//
//   - wall-clock: time.Now/Since/Until/Sleep/Tick/After/AfterFunc/
//     NewTicker/NewTimer in simulation packages (simulation time is the
//     cycle counter, never the host clock). The observability tree
//     (internal/obs, including the obs/perf profiler) is held to this
//     rule alone: wall time reaches the profiler only through an
//     injected perf.Clock, constructed in the harness or a CLI.
//   - global-rand: math/rand's global-source functions (rand.Intn,
//     rand.Seed, ...) in simulation packages; rand.New(rand.NewSource(
//     seed)) with an explicit seed is the allowed form
//   - map-range: ranging over a map in simulation packages, whose
//     iteration order is deliberately randomized by the runtime. The
//     collect-then-sort idiom (a body of plain appends followed by a
//     sort.* call in the same block) is recognized and allowed, and
//     `//cawalint:ignore <reason>` suppresses a finding explicitly.
//   - goroutine: `go` statements anywhere outside internal/harness,
//     internal/serve, and the gpu domain runner (internal/gpu/domains.go,
//     allowlisted per file) — concurrency lives in the harness
//     scheduler, the HTTP serving layer, and the span engine's helper
//     domains, never elsewhere in the model.
//   - memsys-mutation: direct memsys.System method calls from SM code
//     (internal/sm). SMs run whole spans of cycles one after the
//     other, or concurrently, and must reach the shared memory system only through
//     their L1D, whose outbound traffic stages for a deterministic
//     SM-id-ordered commit (see memsys/stage.go); construction-time
//     NewL1D wiring is exempt.
//
// These rules look at one statement at a time; interproc.go adds the
// rules that follow call chains. Both run in one pass over a fully
// type-checked module (LoadModule, AnalyzeModule) — the engine is
// stdlib-only (go/ast, go/parser, go/types).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Rules that look at one file at a time (lintFile).
const (
	RuleWallClock       = "wall-clock"
	RuleGlobalRand      = "global-rand"
	RuleMapRange        = "map-range"
	RuleGoroutine       = "goroutine"
	RuleMemsysMutation  = "memsys-mutation"
	RuleIgnoreDirective = "ignore-directive"
)

// Rules reported by the interprocedural analyzer (interproc.go).
const (
	RuleHotPathAlloc     = "hotpath-alloc"
	RuleMemsysTransitive = "memsys-mutation-transitive"
	RuleDomainUnsafe     = "domain-unsafe"
	RuleGlobalWrite      = "global-write"
	RuleWallClockTrans   = "wall-clock-transitive"
	RuleStaleIgnore      = "stale-ignore"
)

// Finding is one determinism violation.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
}

// Options scopes the rules to import paths.
type Options struct {
	// SimPaths are import-path prefixes where the wall-clock,
	// global-rand, and map-range rules apply.
	SimPaths []string
	// WallClockPaths are import-path prefixes where ONLY the wall-clock
	// rule applies. The observability tree lives here: it may range
	// maps and allocate freely (it is outside the simulated-timing
	// core), but it must never read the host clock itself — profiling
	// time enters exclusively through an injected perf.Clock, so that
	// the engine equivalence tests can drive the profiler with a
	// counting fake and the sim packages' time.Now ban stays airtight.
	WallClockPaths []string
	// GoroutineAllowed are import-path prefixes where `go` statements
	// are permitted.
	GoroutineAllowed []string
	// GoroutineAllowedFiles are single files where `go` statements are
	// permitted even though their package is not in GoroutineAllowed,
	// named as "<import path>/<file base name>" so the match is stable
	// no matter which directory the linter was invoked from. The only
	// entry today is the gpu domain runner, whose worker goroutines are
	// proven deterministic by the epoch barrier (see
	// internal/gpu/domains.go) — everything else in the model stays
	// single-threaded.
	GoroutineAllowedFiles []string
	// StagedMemsysPaths are import-path prefixes where the
	// memsys-mutation rule applies: code there runs inside parallel SM
	// domains and must reach the shared memory system only through its
	// staged two-phase interface (the per-SM L1D), never by calling
	// memsys.System methods directly.
	StagedMemsysPaths []string
}

// DefaultOptions matches this repository's layout: determinism rules
// over the simulation core, goroutines confined to the harness run
// scheduler, the HTTP serving layer (which sits entirely outside
// the deterministic core and talks to it only through harness.Session)
// and the gpu domain runner.
func DefaultOptions() Options {
	return Options{
		SimPaths: []string{
			"cawa/internal/sm", "cawa/internal/gpu", "cawa/internal/sched",
			"cawa/internal/core", "cawa/internal/cache", "cawa/internal/memsys",
			"cawa/internal/stats",
			// Checkpoint serialization is part of the deterministic core:
			// a state hash must be a pure function of simulated state, so
			// the archive walk may not read the clock, use the global rand
			// source, or range maps (the iteration order would end up in
			// the byte stream and break digest comparisons; state.Map
			// walks them in key order).
			"cawa/internal/checkpoint", "cawa/internal/state",
		},
		// Prefix-matches cawa/internal/obs/perf too: the profiler's
		// injected-clock seam is the only way wall time reaches it.
		WallClockPaths: []string{"cawa/internal/obs"},
		// CLIs sit outside the deterministic core (cawaserve hosts the
		// HTTP server in a goroutine); whole-module mode scans them too.
		GoroutineAllowed:      []string{"cawa/internal/harness", "cawa/internal/serve", "cawa/cmd"},
		GoroutineAllowedFiles: []string{"cawa/internal/gpu/domains.go"},
		StagedMemsysPaths:     []string{"cawa/internal/sm"},
	}
}

// allowedSystemMethods are the memsys.System methods SM-domain and
// span-planning code may call directly: construction-time wiring
// (NewL1D) and the span planner's read-only horizon query
// (SafeHorizon — it inspects the event heaps and mutates nothing).
// Everything that runs per cycle must go through the L1D, which stages
// its outbound traffic during spans.
var allowedSystemMethods = map[string]bool{"NewL1D": true, "SafeHorizon": true}

func hasPrefix(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// bannedTime are the time-package functions that read or wait on the
// host clock. Durations and constants remain fine.
var bannedTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"Tick": true, "After": true, "AfterFunc": true,
	"NewTicker": true, "NewTimer": true,
}

// allowedRand are the math/rand names that do NOT touch the global
// source: explicit-source constructors and the exported types
// themselves. Everything else on the package does.
var allowedRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewChaCha8": true, "NewPCG": true,
	"Rand": true, "Source": true, "Source64": true, "Zipf": true,
	"ChaCha8": true, "PCG": true,
}

// lintFile runs the per-file rules over one file of a type-checked
// package. The directives are shared with the caller so the
// interprocedural rules can account usage across both passes before
// deciding staleness.
func lintFile(fset *token.FileSet, pkgPath string, f *ast.File, opts Options, info *types.Info, dirs []*directive, bare []int) []Finding {
	fl := &fileLinter{
		fset:    fset,
		pkgPath: pkgPath,
		opts:    opts,
		info:    info,
		imports: importNames(f),
		dirs:    dirs,
	}
	for _, line := range bare {
		fl.findings = append(fl.findings, Finding{
			Pos:  token.Position{Filename: fset.Position(f.Pos()).Filename, Line: line},
			Rule: RuleIgnoreDirective,
			Msg:  "cawalint suppression directive needs a reason",
		})
	}
	fl.file(f)
	return fl.findings
}

// sortFindings orders findings by file, line, then rule — the one
// deterministic order every output mode shares.
func sortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Pos.Column < b.Pos.Column
	})
}

// importNames maps the local identifier of each import to its path.
func importNames(f *ast.File) map[string]string {
	out := map[string]string{}
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path
		if i := strings.LastIndexByte(path, '/'); i >= 0 {
			name = path[i+1:]
		}
		if imp.Name != nil {
			name = imp.Name.Name
		}
		out[name] = path
	}
	return out
}

// Directive kinds.
const (
	dirIgnore  = "ignore"   // //cawalint:ignore <reason>: suppresses any rule
	dirAllocOK = "alloc-ok" // //cawalint:alloc-ok <reason>: suppresses only hotpath-alloc
)

// directive is one suppression comment. It covers its own line and the
// next (so both trailing and standalone placements work) and records
// whether anything was actually suppressed — a directive that outlives
// its finding becomes a stale-ignore finding.
type directive struct {
	file   string // position filename, as the fset renders it
	line   int
	kind   string
	reason string
	used   bool
}

// covers reports whether the directive suppresses rule at file:line.
func (d *directive) covers(file string, line int, rule string) bool {
	if d.file != file || (line != d.line && line != d.line+1) {
		return false
	}
	if d.kind == dirAllocOK {
		return rule == RuleHotPathAlloc
	}
	return true
}

// scanDirectives collects the suppression directives of one file.
// Directives without a reason are returned separately so they can be
// reported: an escape hatch with no justification is itself a finding.
func scanDirectives(fset *token.FileSet, f *ast.File) (dirs []*directive, bare []int) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			kind := ""
			rest := ""
			if r, ok := strings.CutPrefix(c.Text, "//cawalint:ignore"); ok {
				kind, rest = dirIgnore, r
			} else if r, ok := strings.CutPrefix(c.Text, "//cawalint:alloc-ok"); ok {
				kind, rest = dirAllocOK, r
			} else {
				continue
			}
			pos := fset.Position(c.Pos())
			reason := strings.TrimSpace(rest)
			if reason == "" {
				bare = append(bare, pos.Line)
				continue
			}
			dirs = append(dirs, &directive{
				file: pos.Filename, line: pos.Line, kind: kind, reason: reason,
			})
		}
	}
	return dirs, bare
}

type fileLinter struct {
	fset     *token.FileSet
	pkgPath  string
	opts     Options
	info     *types.Info
	imports  map[string]string
	dirs     []*directive
	sim      bool // full determinism rule set applies
	wall     bool // at least the wall-clock rule applies
	findings []Finding
}

func (l *fileLinter) add(pos token.Pos, rule, msg string) {
	p := l.fset.Position(pos)
	for _, d := range l.dirs {
		if d.kind == dirIgnore && d.covers(p.Filename, p.Line, rule) {
			d.used = true
			return
		}
	}
	l.findings = append(l.findings, Finding{Pos: p, Rule: rule, Msg: msg})
}

func (l *fileLinter) file(f *ast.File) {
	sim := hasPrefix(l.pkgPath, l.opts.SimPaths)
	l.sim = sim
	l.wall = sim || hasPrefix(l.pkgPath, l.opts.WallClockPaths)
	staged := hasPrefix(l.pkgPath, l.opts.StagedMemsysPaths)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if !hasPrefix(l.pkgPath, l.opts.GoroutineAllowed) && !l.fileAllowsGoroutines(n.Pos()) {
				l.add(n.Pos(), RuleGoroutine,
					"goroutine creation outside internal/harness breaks deterministic replay")
			}
		case *ast.CallExpr:
			if staged {
				l.systemCall(n)
			}
		case *ast.SelectorExpr:
			if l.wall {
				l.selector(n)
			}
		case *ast.BlockStmt:
			if sim {
				l.stmtList(n.List)
			}
		case *ast.CaseClause:
			if sim {
				l.stmtList(n.Body)
			}
		case *ast.CommClause:
			if sim {
				l.stmtList(n.Body)
			}
		}
		return true
	})
}

// fileAllowsGoroutines reports whether the file containing pos is on
// the explicit goroutine allowlist: its package import path plus its
// base file name matches an entry, so the check holds whether the
// linter saw the file as internal/gpu/domains.go, ../gpu/domains.go,
// or an absolute path.
func (l *fileLinter) fileAllowsGoroutines(pos token.Pos) bool {
	key := l.pkgPath + "/" + filepath.Base(l.fset.Position(pos).Filename)
	for _, entry := range l.opts.GoroutineAllowedFiles {
		if key == entry {
			return true
		}
	}
	return false
}

// systemCall flags method calls on memsys.System values from SM-domain
// code. During a parallel epoch an SM goroutine must never touch the
// shared event heap or sequence counter; the sanctioned route is the
// per-SM L1D, which stages outbound traffic for the orchestrator's
// SM-id-ordered commit (see memsys/stage.go). Construction-time wiring
// (NewL1D) is exempt.
func (l *fileLinter) systemCall(call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || allowedSystemMethods[sel.Sel.Name] {
		return
	}
	method, ok := l.info.Selections[sel]
	if !ok || method.Kind() != types.MethodVal || recvTypeName(method.Recv()) != "System" {
		return
	}
	pkg := method.Obj().Pkg()
	if pkg == nil || (pkg.Path() != "cawa/internal/memsys" && !strings.HasSuffix(pkg.Path(), "/internal/memsys")) {
		return
	}
	l.add(call.Pos(), RuleMemsysMutation,
		fmt.Sprintf("memsys.System.%s called from SM-domain code; route memory traffic through the L1D's staged interface (memsys/stage.go)", sel.Sel.Name))
}

// selector flags wall-clock and global-rand references. The receiver
// must resolve to the imported package, not a shadowing local. In
// packages covered only by WallClockPaths (l.wall without l.sim) the
// global-rand half is skipped.
func (l *fileLinter) selector(sel *ast.SelectorExpr) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	path, imported := l.imports[id.Name]
	if !imported {
		return
	}
	if obj, ok := l.info.Uses[id]; ok {
		if _, isPkg := obj.(*types.PkgName); !isPkg {
			return // shadowed by a local
		}
	}
	switch path {
	case "time":
		if bannedTime[sel.Sel.Name] {
			l.add(sel.Pos(), RuleWallClock,
				fmt.Sprintf("time.%s reads the host clock; simulation time is the cycle counter", sel.Sel.Name))
		}
	case "math/rand", "math/rand/v2":
		if l.sim && !allowedRand[sel.Sel.Name] {
			l.add(sel.Pos(), RuleGlobalRand,
				fmt.Sprintf("rand.%s uses the global source; seed an explicit rand.New(rand.NewSource(seed))", sel.Sel.Name))
		}
	}
}

// stmtList scans one statement list for map ranges so the
// collect-then-sort exemption can see the following siblings.
func (l *fileLinter) stmtList(list []ast.Stmt) {
	for i, stmt := range list {
		if lbl, ok := stmt.(*ast.LabeledStmt); ok {
			stmt = lbl.Stmt
		}
		rng, ok := stmt.(*ast.RangeStmt)
		if !ok || !l.isMap(rng.X) {
			continue
		}
		if appendOnlyBody(rng.Body) && sortFollows(list[i+1:]) {
			continue // collect-then-sort: order laundered before use
		}
		l.add(rng.Pos(), RuleMapRange,
			"map iteration order is randomized; collect keys and sort, or annotate //cawalint:ignore <reason>")
	}
}

func (l *fileLinter) isMap(expr ast.Expr) bool {
	tv, ok := l.info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// appendOnlyBody reports whether every statement in the range body is
// a plain `x = append(x, ...)` — the collecting half of the idiom.
func appendOnlyBody(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	for _, stmt := range body.List {
		asg, ok := stmt.(*ast.AssignStmt)
		if !ok || len(asg.Rhs) != 1 {
			return false
		}
		call, ok := asg.Rhs[0].(*ast.CallExpr)
		if !ok {
			return false
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || fn.Name != "append" {
			return false
		}
	}
	return true
}

// sortFollows reports whether a later sibling statement calls into the
// sort package — the ordering half of the idiom.
func sortFollows(rest []ast.Stmt) bool {
	for _, stmt := range rest {
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == "sort" {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}
