package lint

// Whole-module loading.
//
// The rules need exact types: a map range is recognized by the ranged
// expression's type, and memsys.System by its receiver's identity no
// matter how the value was named. LoadModule therefore parses every
// non-test package under the module root and type-checks them in
// dependency order: module-internal imports resolve to the
// already-checked packages, and standard-library imports resolve
// through the compiler's export data (with a from-source fallback), all
// stdlib-only.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Pkg is one loaded, type-checked package of the module under analysis.
type Pkg struct {
	Path  string // import path
	Dir   string // directory the files were read from
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Module is a whole-module load: every non-test, non-testdata package
// under the module root, parsed with comments and fully type-checked.
type Module struct {
	Path string // module path from go.mod
	Dir  string // module root directory
	Fset *token.FileSet
	Pkgs map[string]*Pkg // by import path
	// Sorted lists packages in dependency order (imports before
	// importers, ties broken by path) — the type-checking order.
	Sorted []*Pkg
}

// LoadModule loads and type-checks the module rooted at dir. Any parse
// or type error fails the load: the rules are only meaningful over code
// the compiler would accept, and a broken tree must fail the lint gate
// loudly (exit 2 in the CLI), not silently lose type information.
func LoadModule(dir string) (*Module, error) {
	modPath, err := readModulePath(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &Module{Path: modPath, Dir: dir, Fset: token.NewFileSet(), Pkgs: map[string]*Pkg{}}

	dirs, err := packageDirs(dir)
	if err != nil {
		return nil, err
	}
	for _, d := range dirs {
		rel, err := filepath.Rel(dir, d)
		if err != nil {
			return nil, err
		}
		pkgPath := modPath
		if rel != "." {
			pkgPath = modPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := parsePackage(m.Fset, d, pkgPath)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			m.Pkgs[pkgPath] = pkg
		}
	}

	order, err := dependencyOrder(m)
	if err != nil {
		return nil, err
	}
	imp := newChainImporter(m)
	for _, pkg := range order {
		if err := checkPackage(m.Fset, pkg, imp); err != nil {
			return nil, err
		}
		m.Sorted = append(m.Sorted, pkg)
	}
	return m, nil
}

// readModulePath extracts the module directive from a go.mod file.
func readModulePath(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s has no module directive", path)
}

// packageDirs returns every directory under root that holds at least
// one non-test .go file, skipping hidden directories, testdata trees,
// and vendored code.
func packageDirs(root string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		if dir := filepath.Dir(path); !seen[dir] {
			seen[dir] = true
			out = append(out, dir)
		}
		return nil
	})
	sort.Strings(out)
	return out, err
}

// parsePackage parses every non-test .go file in d. All files must
// declare the same package clause; a mixed directory is a load error.
func parsePackage(fset *token.FileSet, d, pkgPath string) (*Pkg, error) {
	entries, err := os.ReadDir(d)
	if err != nil {
		return nil, err
	}
	pkg := &Pkg{Path: pkgPath, Dir: d}
	pkgName := ""
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// The default build: host OS and architecture, gc, the race
		// detector off — exactly one file of a constraint pair like
		// race_on.go / race_off.go loads.
		if ok, err := build.Default.MatchFile(d, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(d, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if pkgName == "" {
			pkgName = f.Name.Name
		} else if f.Name.Name != pkgName {
			return nil, fmt.Errorf("%s: mixed packages %s and %s in one directory", d, pkgName, f.Name.Name)
		}
		pkg.Files = append(pkg.Files, f)
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	return pkg, nil
}

// moduleImports lists pkg's imports that live inside the module, in
// sorted order.
func moduleImports(m *Module, pkg *Pkg) []string {
	set := map[string]bool{}
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if _, ok := m.Pkgs[path]; ok {
				set[path] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// dependencyOrder topologically sorts the module's packages so every
// package is checked after its module-internal imports. Import cycles
// are a load error (the go tool would reject them too).
func dependencyOrder(m *Module) ([]*Pkg, error) {
	paths := make([]string, 0, len(m.Pkgs))
	for p := range m.Pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := map[string]int{}
	var order []*Pkg
	var visit func(path string) error
	visit = func(path string) error {
		switch state[path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("import cycle through %s", path)
		}
		state[path] = visiting
		for _, dep := range moduleImports(m, m.Pkgs[path]) {
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[path] = done
		order = append(order, m.Pkgs[path])
		return nil
	}
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// chainImporter resolves module-internal imports to their checked
// types.Package and everything else through the compiler's export data,
// falling back to type-checking the dependency from source. Both
// fallbacks ship with the standard library; no tooling dependency.
type chainImporter struct {
	m      *Module
	gc     types.Importer
	source types.Importer
	cache  map[string]*types.Package
}

func newChainImporter(m *Module) *chainImporter {
	return &chainImporter{
		m:      m,
		gc:     importer.Default(),
		source: importer.ForCompiler(m.Fset, "source", nil),
		cache:  map[string]*types.Package{},
	}
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := c.m.Pkgs[path]; ok {
		if pkg.Types == nil {
			return nil, fmt.Errorf("internal import %s not yet checked (dependency order bug)", path)
		}
		return pkg.Types, nil
	}
	if p, ok := c.cache[path]; ok {
		return p, nil
	}
	p, err := c.gc.Import(path)
	if err != nil {
		p, err = c.source.Import(path)
	}
	if err != nil {
		return nil, fmt.Errorf("import %q: %w", path, err)
	}
	c.cache[path] = p
	return p, nil
}

// checkPackage type-checks one package, populating pkg.Types and a full
// types.Info. The first error aborts the load.
func checkPackage(fset *token.FileSet, pkg *Pkg, imp types.Importer) error {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var firstErr error
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, err := conf.Check(pkg.Path, fset, pkg.Files, info)
	if firstErr != nil {
		return fmt.Errorf("type check %s: %w", pkg.Path, firstErr)
	}
	if err != nil {
		return fmt.Errorf("type check %s: %w", pkg.Path, err)
	}
	pkg.Types = tpkg
	pkg.Info = info
	return nil
}
