package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one lint finding. File is relative to the module root so
// output is stable regardless of the invocation directory. Suppressed
// findings (covered by a //lint:ignore directive) are retained rather than
// dropped: text output and the exit code ignore them, but -json reports
// them with "suppressed": true so CI artifacts record every accepted
// exception alongside the active findings.
type Diagnostic struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Rule       string `json:"rule"`
	Msg        string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Rule, d.Msg)
}

// ruleCatalog documents every rule for -rules output and DESIGN.md
// cross-reference. The invariants these protect are described in
// DESIGN.md §"Static analysis & CI gates".
var ruleCatalog = []struct{ Name, Doc string }{
	{ruleLock, "a non-deferred Lock (or TryLock) and its Unlock must sit in the same block; a pair that spans branches must use defer"},
	{ruleErr, "cmd/, internal/server, internal/wal, internal/exec, internal/persist, and internal/client must not discard error returns from io/os/net/encoding calls"},
	{ruleInvariant, "calls into internal/invariant must sit inside an `if invariant.Enabled` guard so their arguments are never evaluated in default builds"},
	{ruleHotAlloc, "functions marked //tknn:hotpath, and everything statically reachable from them, must not allocate per query: no make/new, slice/map/&T{} literals, growing appends, local-map writes, string conversions, escaping closures, defer-in-loop, or interface boxing"},
	{ruleGuarded, "every access to a field annotated //tknn:guardedBy(mu) must statically hold the named mutex, verified interprocedurally over the module call graph; writes under only RLock are flagged separately, and malformed or misplaced directives are errors"},
	{ruleLockOrder, "mutex acquisitions while another mutex is held form a module-wide lock-ordering graph; any cycle in it is a potential deadlock and is reported at a witness acquisition site"},
}

// linter runs the rule set over a module and accumulates diagnostics.
type linter struct {
	mod   *Module
	diags []Diagnostic

	// mg caches the shared module call graph (callgraph.go); hot caches
	// the //tknn:hotpath transitive closure computed over it
	// (rule_hotpath.go).
	mg  *moduleGraph
	hot map[*types.Func]string

	// guards caches the //tknn:guardedBy annotation index plus the
	// interprocedural entry-held-lock sets (rule_guardedby.go); lockOrder
	// marks that the module-wide lock-order pass already ran
	// (rule_lockorder.go).
	guards       *guardIndex
	lockOrderRan bool
}

// Lint type-checks nothing itself — it walks the already-loaded module and
// applies every rule to each package accepted by match, then marks
// findings suppressed by //lint:ignore comments. Diagnostics come back
// sorted by file, line, column; use active to drop the suppressed ones.
func Lint(mod *Module, match func(*Package) bool) []Diagnostic {
	l := &linter{mod: mod}
	for _, pkg := range mod.Pkgs {
		if match != nil && !match(pkg) {
			continue
		}
		l.checkLockDiscipline(pkg)
		l.checkUncheckedErrors(pkg)
		l.checkInvariantGate(pkg)
		l.checkHotpathAlloc(pkg)
		l.checkGuardedBy(pkg)
		l.checkLockOrder(pkg)
	}
	diags := markSuppressed(mod, l.diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
	return diags
}

// report records a finding at pos.
func (l *linter) report(pos token.Pos, rule, format string, args ...any) {
	p := l.relPosition(pos)
	l.diags = append(l.diags, Diagnostic{
		File: p.Filename,
		Line: p.Line,
		Col:  p.Column,
		Rule: rule,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// relPosition resolves pos with the filename made module-relative.
func (l *linter) relPosition(pos token.Pos) token.Position {
	p := l.mod.Fset.Position(pos)
	if rel, err := filepath.Rel(l.mod.Root, p.Filename); err == nil {
		p.Filename = filepath.ToSlash(rel)
	}
	return p
}

// active filters diags down to the findings not covered by a
// //lint:ignore directive — the set that drives text output and the exit
// code.
func active(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

// ignoreMap indexes //lint:ignore directives: ignoreMap[file][line] holds
// the rules ignored at that line.
type ignoreMap map[string]map[int]map[string]bool

// covers reports whether rule is ignored at file:line (same line or the
// line directly above, matching markSuppressed).
func (m ignoreMap) covers(file string, line int, rule string) bool {
	lines := m[file]
	return lines != nil && (lines[line][rule] || lines[line-1][rule])
}

// buildIgnores collects every //lint:ignore directive in the module.
func buildIgnores(mod *Module) ignoreMap {
	ignores := ignoreMap{}
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rules, ok := parseIgnore(c.Text)
					if !ok {
						continue
					}
					p := mod.Fset.Position(c.Pos())
					file := p.Filename
					if rel, err := filepath.Rel(mod.Root, file); err == nil {
						file = filepath.ToSlash(rel)
					}
					if ignores[file] == nil {
						ignores[file] = map[int]map[string]bool{}
					}
					if ignores[file][p.Line] == nil {
						ignores[file][p.Line] = map[string]bool{}
					}
					for _, r := range rules {
						ignores[file][p.Line][r] = true
					}
				}
			}
		}
	}
	return ignores
}

// markSuppressed flags diagnostics covered by a `//lint:ignore <rules>
// [reason]` comment on the same line or the line directly above. <rules>
// is a comma-separated list of rule names. Suppressed findings stay in the
// slice so -json can report them.
func markSuppressed(mod *Module, diags []Diagnostic) []Diagnostic {
	ignores := buildIgnores(mod)
	for i, d := range diags {
		lines := ignores[d.File]
		if lines != nil && (lines[d.Line][d.Rule] || lines[d.Line-1][d.Rule]) {
			diags[i].Suppressed = true
		}
	}
	return diags
}

// parseIgnore recognizes `//lint:ignore rule1,rule2 reason...` and returns
// the named rules.
func parseIgnore(comment string) ([]string, bool) {
	text, ok := strings.CutPrefix(comment, "//")
	if !ok {
		return nil, false // /* */ comments don't carry directives
	}
	text = strings.TrimSpace(text)
	rest, ok := strings.CutPrefix(text, "lint:ignore")
	if !ok {
		return nil, false
	}
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		// The reason is mandatory: an ignore with no justification does
		// not suppress anything, so the finding stays visible.
		return nil, false
	}
	return strings.Split(fields[0], ","), true
}

// matcher translates command-line package patterns into a package filter.
// Supported forms, mirroring the subset of cmd/go syntax the Makefile and
// CI use: "./..." (everything), "./dir/..." (subtree), "./dir" or "dir"
// (exact package).
func matcher(patterns []string) (func(*Package) bool, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	type pat struct {
		rel    string
		substr bool
	}
	var pats []pat
	for _, p := range patterns {
		p = filepath.ToSlash(p)
		p = strings.TrimPrefix(p, "./")
		if p == "..." || p == "" {
			return func(*Package) bool { return true }, nil
		}
		if rest, ok := strings.CutSuffix(p, "/..."); ok {
			pats = append(pats, pat{rel: rest, substr: true})
			continue
		}
		pats = append(pats, pat{rel: strings.TrimSuffix(p, "/")})
	}
	return func(pkg *Package) bool {
		for _, p := range pats {
			if pkg.Rel == p.rel {
				return true
			}
			if p.substr && strings.HasPrefix(pkg.Rel, p.rel+"/") {
				return true
			}
		}
		return false
	}, nil
}

// unparen strips parentheses from an expression.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
