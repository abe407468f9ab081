package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Rule guarded-by.
//
// Which mutex guards which field is stated, not guessed: a struct field
// declared as
//
//	blocks []Block //tknn:guardedBy(mu)
//
// must be read and written only while the named mutex is statically held.
// The directive names one or more sync.Mutex/RWMutex objects — sibling
// fields of the same struct or package-level vars — and every listed
// mutex must be held at every access. Held-ness is propagated over the
// module-internal call graph (callgraph.go): a function's entry-held set
// is the intersection of what every static caller holds at the call
// site, so a private helper called only under the lock is verified, not
// exempted. `...Locked` helpers of annotated types additionally get a
// call-site check: callers that do not hold the conventional mutex are
// flagged at the call, and the helper's body is then checked under the
// assumption the convention holds (no double report).
//
// Distinct findings:
//
//   - read/write of an annotated field with a required mutex not held
//   - write of an annotated field while the mutex is only read-locked
//     (RLock held, Lock not) — memory-safe-looking but racy
//   - a call to a ...Locked helper of an annotated type without the lock
//   - malformed or misplaced directives (unknown mutex, target not a
//     mutex, directive not attached to a named struct field)
//
// Escape hatches: accesses through a local freshly created in the same
// function (x := &T{...}, T{}, new(T)) are exempt — pre-publication
// initialization needs no lock; everything else goes through
// `//lint:ignore guarded-by reason`. Closures are separate analysis
// units: they inherit no held locks from the enclosing function and must
// lock for themselves or be suppressed.
const ruleGuarded = "guarded-by"

// guardDirective is the raw comment prefix, Go-directive style (no space
// after //).
const guardDirective = "//tknn:guardedBy"

// guardIndex is the module-wide annotation index plus the results of the
// interprocedural held-lock propagation, built once per lint run.
type guardIndex struct {
	// fields maps an annotated field object to the mutexes that must all
	// be held at every access.
	fields map[*types.Var][]*types.Var
	// annotatedTypes marks struct types carrying at least one directive;
	// their ...Locked helpers get the call-site check.
	annotatedTypes map[*types.TypeName]bool
	// entry is each declared function's entry-held set after the
	// intersection fixpoint.
	entry map[*types.Func]heldSet
	// bodyEvts caches every declaration's main-body lock events.
	bodyEvts map[*types.Func][]lockEvt
	// pend holds directive-misuse and Locked-call-site findings, tagged
	// with the package they belong to so checkGuardedBy reports each in
	// its own package (respecting the CLI package filter).
	pend []pendingGuardDiag
}

type pendingGuardDiag struct {
	pkg *Package
	pos token.Pos
	msg string
}

// guardIndex lazily builds the module annotation index and runs the
// propagation passes.
func (l *linter) guardIndex() *guardIndex {
	if l.guards != nil {
		return l.guards
	}
	gi := &guardIndex{
		fields:         map[*types.Var][]*types.Var{},
		annotatedTypes: map[*types.TypeName]bool{},
		entry:          map[*types.Func]heldSet{},
		bodyEvts:       map[*types.Func][]lockEvt{},
	}
	l.guards = gi
	for _, pkg := range l.mod.Pkgs {
		gi.parseAnnotations(pkg)
	}
	gi.propagate(l)
	return gi
}

// parseAnnotations scans one package for //tknn:guardedBy directives,
// resolving guard names and recording misuse findings.
func (gi *guardIndex) parseAnnotations(pkg *Package) {
	consumed := map[*ast.Comment]bool{}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				tn, _ := pkg.Info.Defs[ts.Name].(*types.TypeName)
				for _, field := range st.Fields.List {
					for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
						if cg == nil {
							continue
						}
						for _, c := range cg.List {
							if !strings.HasPrefix(c.Text, guardDirective) {
								continue
							}
							consumed[c] = true
							gi.parseFieldDirective(pkg, tn, st, field, c)
						}
					}
				}
			}
		}
		// Any directive comment not consumed above sits somewhere a
		// directive cannot go: a method, a var, a type doc, a statement.
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, guardDirective) && !consumed[c] {
					gi.pendDiag(pkg, c.Pos(),
						"//tknn:guardedBy must be attached to a named struct field declaration")
				}
			}
		}
	}
}

// parseFieldDirective handles one directive attached to a struct field.
func (gi *guardIndex) parseFieldDirective(pkg *Package, tn *types.TypeName, st *ast.StructType, field *ast.Field, c *ast.Comment) {
	if len(field.Names) == 0 {
		gi.pendDiag(pkg, c.Pos(), "//tknn:guardedBy cannot annotate an embedded field; name the field")
		return
	}
	names, errMsg := parseGuardArgs(c.Text)
	if errMsg != "" {
		gi.pendDiag(pkg, c.Pos(), "malformed //tknn:guardedBy directive: "+errMsg)
		return
	}
	if tn != nil {
		gi.annotatedTypes[tn] = true
	}
	var guards []*types.Var
	for _, name := range names {
		mu := resolveGuard(pkg, st, name)
		switch {
		case mu == nil:
			gi.pendDiag(pkg, c.Pos(), fmt.Sprintf(
				"//tknn:guardedBy names unknown mutex %q: no such sibling field or package-level var", name))
		case !isSyncMutex(mu.Type()):
			gi.pendDiag(pkg, c.Pos(), fmt.Sprintf(
				"//tknn:guardedBy target %q is a %s, not a sync.Mutex or sync.RWMutex", name, mu.Type()))
		default:
			guards = append(guards, mu)
		}
	}
	if len(guards) == 0 {
		return
	}
	for _, nameIdent := range field.Names {
		if fv, ok := pkg.Info.Defs[nameIdent].(*types.Var); ok {
			gi.fields[fv] = guards
		}
	}
}

// parseGuardArgs extracts the mutex names from a raw directive comment.
func parseGuardArgs(text string) ([]string, string) {
	rest := strings.TrimPrefix(text, guardDirective)
	open := strings.Index(rest, "(")
	closeIdx := strings.LastIndex(rest, ")")
	if open != 0 || closeIdx < open {
		return nil, "expected //tknn:guardedBy(mu[, mu2])"
	}
	var names []string
	for _, part := range strings.Split(rest[open+1:closeIdx], ",") {
		part = strings.TrimSpace(part)
		if part != "" {
			names = append(names, part)
		}
	}
	if len(names) == 0 {
		return nil, "empty mutex list"
	}
	return names, ""
}

// resolveGuard resolves a directive argument to a mutex object: a
// sibling field of the annotated struct, else a package-level var.
func resolveGuard(pkg *Package, st *ast.StructType, name string) *types.Var {
	for _, f := range st.Fields.List {
		for _, id := range f.Names {
			if id.Name == name {
				v, _ := pkg.Info.Defs[id].(*types.Var)
				return v
			}
		}
	}
	if pkg.Types != nil {
		if v, ok := pkg.Types.Scope().Lookup(name).(*types.Var); ok {
			return v
		}
	}
	return nil
}

func (gi *guardIndex) pendDiag(pkg *Package, pos token.Pos, msg string) {
	gi.pend = append(gi.pend, pendingGuardDiag{pkg: pkg, pos: pos, msg: msg})
}

// propagate computes every function's entry-held set as the intersection
// over its static, non-closure call sites of (locks held at the site ∪
// the caller's own entry set), then runs the ...Locked call-site check
// against the converged sets.
func (gi *guardIndex) propagate(l *linter) {
	mg := l.graph()
	for _, fn := range mg.declOrder {
		site := mg.decls[fn]
		gi.bodyEvts[fn] = unitLockEvents(site.pkg, site.decl.Body)
	}
	callers := mg.callersOf(func(e callEdge) bool { return !e.inClosure })

	// baseline: what an uncalled (or unresolvable) function may assume.
	// ...Locked helpers assume their receiver's conventional mutex is
	// write-held — that is the contract the name states.
	baseline := func(fn *types.Func) heldSet {
		h := heldSet{}
		if lockedHelperName(fn) {
			if mu := receiverDefaultMutex(fn); mu != nil {
				h.add(mu, heldW)
			}
		}
		return h
	}

	// lockedAssumed: when a call site reaches a ...Locked helper of an
	// annotated type without the conventional mutex, the fixpoint assumes
	// the convention anyway (the site itself is flagged afterwards) so the
	// helper's interior is not double-reported.
	lockedAssumed := func(callee *types.Func, held heldSet) heldSet {
		if !lockedHelperName(callee) {
			return held
		}
		tn := receiverTypeName(callee)
		if tn == nil || !gi.annotatedTypes[tn] {
			return held
		}
		mu := receiverDefaultMutex(callee)
		if mu == nil {
			return held
		}
		if _, ok := held[mu]; !ok {
			held = held.union(nil)
			held.add(mu, heldW)
		}
		return held
	}

	// nil entry = TOP (not yet constrained by any caller).
	called := map[*types.Func]bool{}
	for fn := range callers {
		if len(callers[fn]) > 0 {
			called[fn] = true
		}
	}
	for _, fn := range mg.declOrder {
		if !called[fn] {
			gi.entry[fn] = baseline(fn)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range mg.declOrder {
			if !called[fn] {
				continue
			}
			var acc heldSet
			first := true
			for _, site := range callers[fn] {
				callerEntry, known := gi.entry[site.caller]
				if !known {
					continue // caller still TOP: no constraint yet
				}
				contrib := heldAtPos(gi.bodyEvts[site.caller], site.pos).union(callerEntry)
				contrib = lockedAssumed(fn, contrib)
				if first {
					acc, first = contrib, false
				} else {
					acc = acc.intersect(contrib)
				}
			}
			if first {
				continue // pure call cycle: stays TOP this round
			}
			if prev, known := gi.entry[fn]; !known || !prev.equal(acc) {
				gi.entry[fn] = acc
				changed = true
			}
		}
	}
	// Anything still TOP is only reachable through an unresolved cycle;
	// fall back to the naming-convention baseline.
	for _, fn := range mg.declOrder {
		if _, known := gi.entry[fn]; !known {
			gi.entry[fn] = baseline(fn)
		}
	}

	// ...Locked call-site check against the converged entry sets.
	for _, caller := range mg.declOrder {
		var fresh map[types.Object]bool
		for _, e := range mg.edges[caller] {
			if e.inClosure || !lockedHelperName(e.callee) {
				continue
			}
			tn := receiverTypeName(e.callee)
			if tn == nil || !gi.annotatedTypes[tn] {
				continue
			}
			mu := receiverDefaultMutex(e.callee)
			if mu == nil {
				continue
			}
			site := mg.decls[caller]
			if fresh == nil {
				fresh = freshLocals(site.pkg, site.decl)
			}
			// A Locked call on a freshly created, still-private receiver is
			// pre-publication initialization, same as a direct field access.
			if recv := callReceiverRoot(site, e.pos); recv != nil && fresh[recv] {
				continue
			}
			held := heldAtPos(gi.bodyEvts[caller], e.pos).union(gi.entry[caller])
			if _, ok := held[mu]; !ok {
				gi.pendDiag(site.pkg, e.pos, fmt.Sprintf(
					"call to %s requires %s held by the caller (...Locked convention on an annotated type)",
					e.callee.Name(), lockDisplayName(mu)))
			}
		}
	}
}

// callReceiverRoot finds the method call starting at pos inside the
// declaration and unwraps its receiver expression to the root local, or
// nil when the call is not a selector call on a plain variable chain.
func callReceiverRoot(site declSite, pos token.Pos) types.Object {
	var root *ast.Ident
	ast.Inspect(site.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() != pos {
			return true
		}
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
			root = chainRoot(sel.X)
		}
		return false
	})
	if root == nil {
		return nil
	}
	return objectOf(site.pkg, root)
}

// receiverTypeName resolves a method to its receiver's named type.
func receiverTypeName(fn *types.Func) *types.TypeName {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	return named.Obj()
}

// checkGuardedBy reports the package's pending directive/call-site
// findings and verifies every annotated-field access declared in pkg.
func (l *linter) checkGuardedBy(pkg *Package) {
	gi := l.guardIndex()
	for _, d := range gi.pend {
		if d.pkg == pkg {
			l.report(d.pos, ruleGuarded, "%s", d.msg)
		}
	}
	if len(gi.fields) == 0 {
		return
	}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				l.checkGuardedAccesses(pkg, fd, fn, gi)
			}
		}
	}
}

// checkGuardedAccesses verifies one declaration's annotated-field
// accesses against the locks held at each access point.
func (l *linter) checkGuardedAccesses(pkg *Package, fd *ast.FuncDecl, fn *types.Func, gi *guardIndex) {
	// Cheap pre-scan: most functions touch no annotated field.
	touches := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if touches {
			return false
		}
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
				if v, ok := s.Obj().(*types.Var); ok {
					if _, annotated := gi.fields[v]; annotated {
						touches = true
					}
				}
			}
		}
		return true
	})
	if !touches {
		return
	}

	parents := buildParents(fd.Body)
	fresh := freshLocals(pkg, fd)

	// Closures are separate units: their own lock events, empty entry set.
	type unit struct {
		node ast.Node
		sp   span
		evts []lockEvt
		got  bool
	}
	var lits []*unit
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			lits = append(lits, &unit{node: fl, sp: span{fl.Pos(), fl.End()}})
		}
		return true
	})
	unitFor := func(p token.Pos) *unit {
		var best *unit
		for _, u := range lits {
			if p >= u.sp.lo && p < u.sp.hi {
				if best == nil || (u.sp.lo >= best.sp.lo && u.sp.hi <= best.sp.hi) {
					best = u
				}
			}
		}
		return best
	}

	type repKey struct {
		unit  ast.Node
		field *types.Var
		mu    *types.Var
		write bool
	}
	reported := map[repKey]bool{}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s, ok := pkg.Info.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			return true
		}
		field, ok := s.Obj().(*types.Var)
		if !ok {
			return true
		}
		guards, annotated := gi.fields[field]
		if !annotated {
			return true
		}
		if root := chainRoot(sel.X); root != nil {
			if obj := objectOf(pkg, root); obj != nil && fresh[obj] {
				return true // freshly created local: pre-publication init
			}
		}
		var held heldSet
		var unitNode ast.Node
		if u := unitFor(sel.Pos()); u != nil {
			if !u.got {
				u.evts = unitLockEvents(pkg, u.node)
				u.got = true
			}
			held = heldAtPos(u.evts, sel.Pos())
			unitNode = u.node
		} else {
			held = heldAtPos(gi.bodyEvts[fn], sel.Pos()).union(gi.entry[fn])
			unitNode = fd.Body
		}
		write := isWriteAccess(parents, sel)
		verb := "read of"
		if write {
			verb = "write to"
		}
		for _, mu := range guards {
			key := repKey{unitNode, field, mu, write}
			if reported[key] {
				continue
			}
			flavor, ok := held[mu]
			switch {
			case !ok:
				reported[key] = true
				l.report(sel.Pos(), ruleGuarded,
					"%s %s requires %s held (//tknn:guardedBy)",
					verb, fieldDisplayName(field), lockDisplayName(mu))
			case write && flavor == heldR:
				reported[key] = true
				l.report(sel.Pos(), ruleGuarded,
					"write to %s while %s is only read-locked; writes require the write lock",
					fieldDisplayName(field), lockDisplayName(mu))
			}
		}
		return true
	})
}

// fieldDisplayName renders an annotated field as pkg.Type.field,
// matching lockDisplayName.
func fieldDisplayName(field *types.Var) string {
	name := field.Name()
	if owner := fieldOwner(field); owner != nil {
		name = owner.Name() + "." + name
	}
	if field.Pkg() != nil {
		name = field.Pkg().Name() + "." + name
	}
	return name
}

// buildParents maps every node under root to its enclosing node.
func buildParents(root ast.Node) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// isWriteAccess climbs from a field selector along the value spine and
// reports whether the access mutates the field: assignment LHS (including
// element and sub-field writes), ++/--, or having its address taken.
func isWriteAccess(parents map[ast.Node]ast.Node, sel *ast.SelectorExpr) bool {
	cur := ast.Node(sel)
	for {
		p := parents[cur]
		switch pp := p.(type) {
		case *ast.ParenExpr:
			cur = pp
		case *ast.StarExpr:
			cur = pp
		case *ast.IndexExpr:
			if pp.X != cur {
				return false // sel is an index value: a read
			}
			cur = pp
		case *ast.SliceExpr:
			if pp.X != cur {
				return false
			}
			cur = pp
		case *ast.SelectorExpr:
			if pp.X != cur {
				return false
			}
			cur = pp
		case *ast.AssignStmt:
			for _, lhs := range pp.Lhs {
				if lhs == cur {
					return true
				}
			}
			return false
		case *ast.IncDecStmt:
			return pp.X == cur
		case *ast.UnaryExpr:
			return pp.Op == token.AND && pp.X == cur
		default:
			return false
		}
	}
}

// chainRoot unwraps a selector base to its root identifier, or nil when
// the base is a call or other non-variable expression.
func chainRoot(e ast.Expr) *ast.Ident {
	for {
		switch x := unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// freshLocals collects local variables assigned a freshly created value
// (&T{...}, T{...}, new(T)) anywhere in the function: accesses through
// them are pre-publication initialization and need no lock.
func freshLocals(pkg *Package, fd *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	isFreshRHS := func(e ast.Expr) bool {
		switch x := unparen(e).(type) {
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				_, ok := unparen(x.X).(*ast.CompositeLit)
				return ok
			}
		case *ast.CompositeLit:
			return true
		case *ast.CallExpr:
			return isBuiltinCall(pkg, x, "new")
		}
		return false
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != len(s.Rhs) {
				return true
			}
			for i, lhs := range s.Lhs {
				id, ok := unparen(lhs).(*ast.Ident)
				if !ok || !isFreshRHS(s.Rhs[i]) {
					continue
				}
				if obj := objectOf(pkg, id); obj != nil {
					out[obj] = true
				}
			}
		case *ast.DeclStmt:
			gd, ok := s.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != len(vs.Names) {
					continue
				}
				for i, name := range vs.Names {
					if !isFreshRHS(vs.Values[i]) {
						continue
					}
					if obj := pkg.Info.Defs[name]; obj != nil {
						out[obj] = true
					}
				}
			}
		}
		return true
	})
	return out
}
