package lint

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// fixtureFiles is the minimal module the rule tests lint: just enough
// of memsys for the memsys-mutation tests to type-check against.
var fixtureFiles = map[string]string{
	"go.mod": "module cawa\n\ngo 1.22\n",
	"internal/memsys/memsys.go": `package memsys

type System struct{ n int }
type L1D struct{ sys *System }

func New() *System { return &System{} }
func (s *System) Cycle() {}
func (s *System) Schedule(t int64) { s.n++ }
func (s *System) NewL1D() *L1D { return &L1D{sys: s} }
func (l *L1D) AccessLoad(now int64) {}
`,
}

// lintSrc lints the fixture module plus one synthetic file in a package
// of its own below pkgPath, so the path-scoped rules see it as part of
// pkgPath's tree.
func lintSrc(t *testing.T, pkgPath, src string) []Finding {
	t.Helper()
	return lintNamed(t, pkgPath+"/probe", "probe.go", src)
}

// lintNamed adds the file to package pkgPath itself, under a
// caller-chosen name, for rules whose scope is a file path rather than
// a package.
func lintNamed(t *testing.T, pkgPath, filename, src string) []Finding {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{strings.TrimPrefix(pkgPath, "cawa/") + "/" + filename: src}
	for name, src := range fixtureFiles {
		files[name] = src
	}
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
	return AnalyzeModule(m)
}

func rulesOf(fs []Finding) []string {
	var out []string
	for _, f := range fs {
		out = append(out, f.Rule)
	}
	return out
}

func wantOnly(t *testing.T, fs []Finding, rule string, n int) {
	t.Helper()
	if len(fs) != n {
		t.Fatalf("got %d findings %v, want %d x %s", len(fs), rulesOf(fs), n, rule)
	}
	for _, f := range fs {
		if f.Rule != rule {
			t.Fatalf("got rule %s (%s), want %s", f.Rule, f.Msg, rule)
		}
	}
}

const simPkg = "cawa/internal/sm"

func TestWallClockFlagged(t *testing.T) {
	fs := lintSrc(t, simPkg, `package sm
import "time"
func f() int64 { return time.Now().UnixNano() }
func g() { time.Sleep(time.Millisecond) }
`)
	wantOnly(t, fs, RuleWallClock, 2)
	if fs[0].Pos.Line != 3 || fs[1].Pos.Line != 4 {
		t.Errorf("positions %v, want lines 3 and 4", fs)
	}
}

func TestWallClockDurationsAllowed(t *testing.T) {
	fs := lintSrc(t, simPkg, `package sm
import "time"
func f(d time.Duration) time.Duration { return d + time.Millisecond }
`)
	if len(fs) != 0 {
		t.Fatalf("durations flagged: %v", fs)
	}
}

func TestWallClockOutsideSimScopeAllowed(t *testing.T) {
	fs := lintSrc(t, "cawa/internal/harness", `package harness
import "time"
func f() { _ = time.Now() }
`)
	if len(fs) != 0 {
		t.Fatalf("harness wall-clock flagged: %v", fs)
	}
}

// TestWallClockOnlyInObsTree: the observability tree — including the
// obs/perf profiler, matched by prefix — must not read the host clock
// directly (the profiler's injected Clock seam is the only entry
// point), but it is exempt from the other determinism rules: it may
// range maps and use seedless rand, since it never feeds simulated
// timing.
func TestWallClockOnlyInObsTree(t *testing.T) {
	clockSrc := `package perf
import "time"
func now() int64 { return time.Now().UnixNano() }
`
	for _, pkg := range []string{"cawa/internal/obs", "cawa/internal/obs/perf"} {
		fs := lintSrc(t, pkg, clockSrc)
		wantOnly(t, fs, RuleWallClock, 1)
	}

	// Map ranges and global rand stay legal there: wall-clock only.
	fs := lintSrc(t, "cawa/internal/obs", `package obs
import "math/rand"
func f(m map[int]int) int {
	s := rand.Intn(3)
	for _, v := range m {
		s += v
	}
	return s
}
`)
	if len(fs) != 0 {
		t.Fatalf("non-wall-clock rules applied to obs: %v", fs)
	}
}

func TestGlobalRandFlagged(t *testing.T) {
	fs := lintSrc(t, simPkg, `package sm
import "math/rand"
func f() int { rand.Seed(1); return rand.Intn(10) }
`)
	wantOnly(t, fs, RuleGlobalRand, 2)
}

func TestSeededRandAllowed(t *testing.T) {
	fs := lintSrc(t, simPkg, `package sm
import "math/rand"
func f(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
`)
	if len(fs) != 0 {
		t.Fatalf("seeded rand flagged: %v", fs)
	}
}

func TestShadowedImportNotFlagged(t *testing.T) {
	fs := lintSrc(t, simPkg, `package sm
import "time"
type clock struct{}
func (clock) Now() int64 { return 0 }
func f() int64 {
	var time clock
	return time.Now()
}
var _ = time.Duration(0)
`)
	if len(fs) != 0 {
		t.Fatalf("shadowed receiver flagged: %v", fs)
	}
}

func TestMapRangeFlagged(t *testing.T) {
	fs := lintSrc(t, simPkg, `package sm
func f(m map[int]int) int {
	s := 0
	for _, v := range m {
		s += v
	}
	return s
}
`)
	wantOnly(t, fs, RuleMapRange, 1)
	if fs[0].Pos.Line != 4 {
		t.Errorf("position %v, want line 4", fs[0].Pos)
	}
}

func TestSliceRangeAllowed(t *testing.T) {
	fs := lintSrc(t, simPkg, `package sm
func f(s []int) int {
	t := 0
	for _, v := range s {
		t += v
	}
	return t
}
`)
	if len(fs) != 0 {
		t.Fatalf("slice range flagged: %v", fs)
	}
}

func TestCollectThenSortAllowed(t *testing.T) {
	fs := lintSrc(t, simPkg, `package sm
import "sort"
func keys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
`)
	if len(fs) != 0 {
		t.Fatalf("collect-then-sort flagged: %v", fs)
	}
}

func TestCollectWithoutSortFlagged(t *testing.T) {
	fs := lintSrc(t, simPkg, `package sm
func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`)
	wantOnly(t, fs, RuleMapRange, 1)
}

func TestIgnoreDirective(t *testing.T) {
	fs := lintSrc(t, simPkg, `package sm
func f(m map[int]int) {
	//cawalint:ignore order-insensitive sum
	for _, v := range m {
		_ = v
	}
}
`)
	if len(fs) != 0 {
		t.Fatalf("annotated range flagged: %v", fs)
	}
}

func TestBareIgnoreDirectiveFlagged(t *testing.T) {
	fs := lintSrc(t, simPkg, `package sm
func f(m map[int]int) {
	//cawalint:ignore
	for _, v := range m {
		_ = v
	}
}
`)
	if len(fs) != 2 {
		t.Fatalf("got %v, want ignore-directive + map-range", rulesOf(fs))
	}
	var sawBare bool
	for _, f := range fs {
		if f.Rule == "ignore-directive" {
			sawBare = true
			if !strings.Contains(f.Msg, "needs a reason") {
				t.Errorf("msg %q", f.Msg)
			}
		}
	}
	if !sawBare {
		t.Fatalf("bare directive not reported: %v", fs)
	}
}

func TestGoroutineFlaggedEverywhere(t *testing.T) {
	src := `package x
func f() { go func() {}() }
`
	for _, pkg := range []string{simPkg, "cawa/internal/workloads", "cawa/internal/isa"} {
		fs := lintSrc(t, pkg, src)
		wantOnly(t, fs, RuleGoroutine, 1)
	}
}

func TestGoroutineAllowedInHarness(t *testing.T) {
	fs := lintSrc(t, "cawa/internal/harness", `package harness
func f() { go func() {}() }
`)
	if len(fs) != 0 {
		t.Fatalf("harness goroutine flagged: %v", fs)
	}
}

var repo struct {
	once sync.Once
	m    *Module
	err  error
}

// repoModule loads this repository's module once for the tests that
// need the real code.
func repoModule(t *testing.T) *Module {
	t.Helper()
	repo.once.Do(func() { repo.m, repo.err = LoadModule("../..") })
	if repo.err != nil {
		t.Fatal(repo.err)
	}
	return repo.m
}

// TestRepoIsClean runs the rules over the real module — the gate
// scripts/check.sh and CI run, and the linter must hold on the code it
// guards.
func TestRepoIsClean(t *testing.T) {
	for _, f := range AnalyzeModule(repoModule(t)) {
		t.Error(f)
	}
}

// TestScopesCoverEngineClosure keeps the rules from going vacuous: every
// module package the engine imports, directly or not, from its three
// roots (gpu, checkpoint, core) must sit in a rule scope. A new helper
// package the engine starts importing fails here until it is scoped,
// and a renamed root fails instead of shrinking the walk.
func TestScopesCoverEngineClosure(t *testing.T) {
	m := repoModule(t)
	queue := []string{"cawa/internal/gpu", "cawa/internal/checkpoint", "cawa/internal/core"}
	seen := map[string]bool{}
	for len(queue) > 0 {
		path := queue[0]
		queue = queue[1:]
		if seen[path] {
			continue
		}
		seen[path] = true
		pkg, ok := m.Pkgs[path]
		if !ok {
			t.Fatalf("engine package %s is not in the module", path)
		}
		if !hasPrefix(path, simPaths) && !hasPrefix(path, wallClockPaths) {
			t.Errorf("%s is in the engine's import closure but in no rule scope", path)
		}
		queue = append(queue, moduleImports(m, pkg)...)
	}
}

// TestStaleIgnoreFlagged proves a directive that suppresses nothing is
// itself a finding.
func TestStaleIgnoreFlagged(t *testing.T) {
	fs := lintSrc(t, simPkg, `package sm
func f(s []int) int {
	return len(s) //cawalint:ignore nothing here is nondeterministic
}
`)
	wantOnly(t, fs, RuleStaleIgnore, 1)
}

// TestGoroutineAllowedInDomainRunner: the gpu domain runner is the one
// model file permitted to start goroutines — its workers are proven
// deterministic by the epoch barrier. The allowlist is per file: the
// same package's other files stay banned.
func TestGoroutineAllowedInDomainRunner(t *testing.T) {
	src := `package gpu
func f() { go func() {}() }
`
	fs := lintNamed(t, "cawa/internal/gpu", "domains.go", src)
	if len(fs) != 0 {
		t.Fatalf("domain-runner goroutine flagged: %v", fs)
	}
	fs = lintNamed(t, "cawa/internal/gpu", "other.go", src)
	wantOnly(t, fs, RuleGoroutine, 1)
	// A file merely named like the allowlisted one, in another package,
	// stays banned (the allowlist pairs import path with file name).
	fs = lintNamed(t, "cawa/internal/sm", "domains.go", strings.Replace(src, "package gpu", "package sm", 1))
	wantOnly(t, fs, RuleGoroutine, 1)
}

// TestMemsysMutationFlagged: SM-domain code calling memsys.System
// methods directly bypasses the staged two-phase interface and is
// flagged, whether the System value is a struct field, a parameter, or
// a local built by memsys.New. NewL1D (construction wiring) is exempt,
// and the rule does not apply outside StagedMemsysPaths.
func TestMemsysMutationFlagged(t *testing.T) {
	src := `package sm
import "cawa/internal/memsys"
type SM struct{ sys *memsys.System }
func (m *SM) bad() { m.sys.Cycle() }
func alsoBad(s *memsys.System) { s.Schedule(1) }
func local() { sys := memsys.New(); sys.Schedule(2) }
`
	fs := lintSrc(t, simPkg, src)
	wantOnly(t, fs, RuleMemsysMutation, 3)

	// The gpu orchestrator legitimately drives System.Cycle: not staged.
	fs = lintSrc(t, "cawa/internal/gpu", src)
	if len(fs) != 0 {
		t.Fatalf("orchestrator-side System call flagged: %v", fs)
	}
}

// TestMemsysConstructionAllowed: the sanctioned System uses in SM code
// — NewL1D wiring and everything reached through the L1D — are clean.
func TestMemsysConstructionAllowed(t *testing.T) {
	fs := lintSrc(t, simPkg, `package sm
import "cawa/internal/memsys"
type Options struct{ MemSys *memsys.System }
type SM struct{ l1d *memsys.L1D }
func New(opt Options) *SM {
	m := &SM{}
	m.l1d = opt.MemSys.NewL1D()
	return m
}
func (m *SM) issue(now int64) { m.l1d.AccessLoad(now) }
`)
	if len(fs) != 0 {
		t.Fatalf("sanctioned memsys uses flagged: %v", fs)
	}
}

// TestMemsysMutationIgnoreDirective: the escape hatch works for this
// rule too.
func TestMemsysMutationIgnoreDirective(t *testing.T) {
	fs := lintSrc(t, simPkg, `package sm
import "cawa/internal/memsys"
func f(s *memsys.System) {
	//cawalint:ignore test-only drain helper
	s.Cycle()
}
`)
	if len(fs) != 0 {
		t.Fatalf("ignored finding still reported: %v", fs)
	}
}
