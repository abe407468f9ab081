package main

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package of the module under
// analysis.
type Package struct {
	// ImportPath is the full import path (module path + Rel).
	ImportPath string
	// Rel is the package directory relative to the module root, using
	// forward slashes; "" for the root package. All rule scoping keys off
	// Rel so the same rules apply to the testdata corpus regardless of its
	// module name.
	Rel string
	// Dir is the absolute package directory.
	Dir string
	// Files holds the parsed non-test sources, with comments.
	Files []*ast.File
	// FileNames[i] is the absolute path of Files[i].
	FileNames []string
	// Types and Info carry the go/types results for the package.
	Types *types.Package
	Info  *types.Info
}

// Module is a loaded module: every package parsed and type-checked in
// dependency order, with standard-library imports resolved from source
// (the toolchain ships no pre-compiled export data, and this tool must not
// depend on golang.org/x/tools).
type Module struct {
	Root string // absolute module root (directory holding go.mod)
	Path string // module path from the go.mod module directive
	Fset *token.FileSet
	Pkgs []*Package // topological (dependency) order
}

// FindModuleRoot walks upward from dir to the nearest directory holding a
// go.mod and returns it along with the declared module path.
func FindModuleRoot(dir string) (root, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, rerr := os.ReadFile(filepath.Join(dir, "go.mod"))
		if rerr == nil {
			mp := modulePath(string(data))
			if mp == "" {
				return "", "", fmt.Errorf("tknnlint: %s/go.mod has no module directive", dir)
			}
			return dir, mp, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("tknnlint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// modulePath extracts the module path from go.mod contents.
func modulePath(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		fields := strings.Fields(strings.TrimSpace(line))
		if len(fields) >= 2 && fields[0] == "module" {
			return strings.Trim(fields[1], `"`)
		}
	}
	return ""
}

// parsedPkg is an intermediate record between parsing and type checking.
type parsedPkg struct {
	pkg     *Package
	imports []string // module-internal import paths only
}

// fset and stdImporter are shared by every LoadModule in the process:
// the source importer caches each standard-library package it has type
// checked, so a second load (the tests load many corpora) reuses them
// instead of re-checking the standard library from source. Neither is
// safe for concurrent use, so loads must not run concurrently.
var (
	fset        = token.NewFileSet()
	stdImporter = importer.ForCompiler(fset, "source", nil)
)

// LoadModule parses and type-checks every non-test package under root.
// Directories named testdata, hidden directories, and _-prefixed
// directories are skipped, mirroring cmd/go. Test files (_test.go) are
// excluded: the lint rules guard library and command code, and the
// repository's tests intentionally use patterns (float64 reference math,
// ad-hoc RNGs) the rules forbid elsewhere. It must not run concurrently
// with another LoadModule (see fset).
func LoadModule(root string) (*Module, error) {
	root, modPath, err := FindModuleRoot(root)
	if err != nil {
		return nil, err
	}

	byPath := map[string]*parsedPkg{}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, werr error) error {
		if werr != nil {
			return werr
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		pp, perr := parseDir(fset, root, modPath, path)
		if perr != nil {
			return perr
		}
		if pp != nil {
			byPath[pp.pkg.ImportPath] = pp
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(byPath) == 0 {
		return nil, fmt.Errorf("tknnlint: no Go packages under %s", root)
	}

	order, err := topoSort(byPath)
	if err != nil {
		return nil, err
	}

	mod := &Module{Root: root, Path: modPath, Fset: fset}
	imp := &moduleImporter{
		std:  stdImporter,
		pkgs: map[string]*types.Package{},
	}
	var typeErrs []string
	for _, path := range order {
		pp := byPath[path]
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{
			Importer: imp,
			Error: func(err error) {
				typeErrs = append(typeErrs, err.Error())
			},
		}
		tpkg, _ := conf.Check(path, fset, pp.pkg.Files, info)
		pp.pkg.Types = tpkg
		pp.pkg.Info = info
		imp.pkgs[path] = tpkg
		mod.Pkgs = append(mod.Pkgs, pp.pkg)
	}
	if len(typeErrs) > 0 {
		// The gate runs `go build ./...` separately, so type errors here
		// mean either broken code or a loader bug; both are fatal.
		return nil, fmt.Errorf("tknnlint: type checking failed:\n  %s", strings.Join(typeErrs, "\n  "))
	}
	return mod, nil
}

// parseDir parses the non-test Go files of one directory. It returns nil
// when the directory holds no Go files.
func parseDir(fset *token.FileSet, root, modPath, dir string) (*parsedPkg, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	if len(names) == 0 {
		return nil, nil
	}
	sort.Strings(names)

	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	rel = filepath.ToSlash(rel)
	if rel == "." {
		rel = ""
	}
	importPath := modPath
	if rel != "" {
		importPath = modPath + "/" + rel
	}

	pp := &parsedPkg{pkg: &Package{ImportPath: importPath, Rel: rel, Dir: dir}}
	for _, n := range names {
		full := filepath.Join(dir, n)
		f, perr := parser.ParseFile(fset, full, nil, parser.ParseComments)
		if perr != nil {
			return nil, perr
		}
		if !buildSatisfied(f) {
			// Constrained out of the default build (e.g. the tknn_invariants
			// Enabled=true half of internal/invariant). Type checking both
			// halves of a tag pair would be a duplicate declaration.
			continue
		}
		pp.pkg.Files = append(pp.pkg.Files, f)
		pp.pkg.FileNames = append(pp.pkg.FileNames, full)
		for _, spec := range f.Imports {
			p := strings.Trim(spec.Path.Value, `"`)
			if p == modPath || strings.HasPrefix(p, modPath+"/") {
				pp.imports = append(pp.imports, p)
			}
		}
	}
	if len(pp.pkg.Files) == 0 {
		return nil, nil
	}
	return pp, nil
}

// buildSatisfied reports whether f survives build-constraint filtering
// under the default configuration: host GOOS/GOARCH, the gc compiler, all
// go1.x version tags satisfied, and no custom tags set — so files gated on
// tags like tknn_invariants or race are skipped, exactly as `go build`
// without -tags would skip them.
func buildSatisfied(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) && !constraint.IsPlusBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				continue
			}
			if !expr.Eval(defaultTag) {
				return false
			}
		}
	}
	return true
}

// defaultTag is the build-tag oracle for buildSatisfied.
func defaultTag(tag string) bool {
	switch tag {
	case runtime.GOOS, runtime.GOARCH, "gc":
		return true
	case "unix":
		switch runtime.GOOS {
		case "linux", "darwin", "freebsd", "netbsd", "openbsd", "dragonfly", "solaris", "illumos", "aix":
			return true
		}
	}
	return strings.HasPrefix(tag, "go1.")
}

// topoSort orders packages so every module-internal dependency precedes
// its importers.
func topoSort(pkgs map[string]*parsedPkg) ([]string, error) {
	const (
		visiting = 1
		done     = 2
	)
	state := map[string]int{}
	var order []string
	var visit func(path string, chain []string) error
	visit = func(path string, chain []string) error {
		switch state[path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("tknnlint: import cycle: %s", strings.Join(append(chain, path), " -> "))
		}
		state[path] = visiting
		pp, ok := pkgs[path]
		if !ok {
			// Import of a module path with no Go files (or a pruned dir);
			// the compiler would reject it, leave it to the build gate.
			state[path] = done
			return nil
		}
		for _, dep := range pp.imports {
			if err := visit(dep, append(chain, path)); err != nil {
				return err
			}
		}
		state[path] = done
		order = append(order, path)
		return nil
	}
	var roots []string
	for path := range pkgs {
		roots = append(roots, path)
	}
	sort.Strings(roots)
	for _, path := range roots {
		if err := visit(path, nil); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// moduleImporter resolves module-internal imports to the packages type
// checked by LoadModule and everything else (the standard library) through
// the source importer.
type moduleImporter struct {
	std  types.Importer
	pkgs map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	return m.std.Import(path)
}
