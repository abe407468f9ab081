package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Static held-lock tracking shared by the lock-discipline, guarded-by
// and lock-order rules: the one place lock calls are parsed.
//
// Locks are identified by their declaration object (*types.Var): a mutex
// field of a struct, a package-level mutex var, or a function-local
// mutex. The analysis is type-level, not instance-level — `a.mu` and
// `b.mu` of two values of the same struct type are the same lock key.
// That is the standard approximation for annotation checkers: it is
// exact for the single-instance mutexes this repository uses and errs
// toward false positives (caught in review) rather than silence when a
// type is instantiated many times.
//
// Within one function unit (a body, or a function literal — closures are
// separate units with no inherited state), Lock/RLock/Unlock/RUnlock
// calls become a position-ordered event list. Each event carries the
// span of its innermost enclosing block, and only applies to program
// points inside that span. That scoping is what makes the common
// early-return shape
//
//	mu.Lock()
//	if bad { mu.Unlock(); return err }
//	guarded = ...        // still under mu
//	mu.Unlock()
//
// come out right: the branch-local Unlock does not release the lock for
// the code after the branch, and a TryLock in an if condition holds its
// mutex exactly within the success body. Deferred unlocks hold to the
// end of the unit and never release early.

// lockFlavor distinguishes read- from write-held mutexes.
type lockFlavor int

const (
	heldR lockFlavor = 1 // RLock held
	heldW lockFlavor = 2 // Lock held (subsumes R)
)

// heldSet maps a mutex object to the strongest flavor it is held at.
type heldSet map[*types.Var]lockFlavor

// add records mu held at flavor f, keeping the strongest flavor.
func (h heldSet) add(mu *types.Var, f lockFlavor) {
	if h[mu] < f {
		h[mu] = f
	}
}

// union merges o into a copy of h and returns it; either may be nil.
func (h heldSet) union(o heldSet) heldSet {
	out := heldSet{}
	for mu, f := range h {
		out.add(mu, f)
	}
	for mu, f := range o {
		out.add(mu, f)
	}
	return out
}

// intersect keeps the locks present in both sets, at the weaker flavor.
func (h heldSet) intersect(o heldSet) heldSet {
	out := heldSet{}
	for mu, f := range h {
		if of, ok := o[mu]; ok {
			if of < f {
				f = of
			}
			out[mu] = f
		}
	}
	return out
}

// equal reports set equality including flavors.
func (h heldSet) equal(o heldSet) bool {
	if len(h) != len(o) {
		return false
	}
	for mu, f := range h {
		if o[mu] != f {
			return false
		}
	}
	return true
}

// lockEvt is one acquire or release inside a unit.
type lockEvt struct {
	mu      *types.Var
	flavor  lockFlavor
	acquire bool
	pos     token.Pos
	scope   span          // the event applies only to positions inside this span
	call    *ast.CallExpr // the Lock/Unlock/TryLock call, for messages
}

// unitLockEvents collects the position-ordered lock events of one unit
// (a function body or a single function literal), not descending into
// nested literals. unitSpan is the whole unit's position range, used as
// the scope of top-level events.
func unitLockEvents(pkg *Package, unit ast.Node) []lockEvt {
	var body *ast.BlockStmt
	switch u := unit.(type) {
	case *ast.BlockStmt:
		body = u
	case *ast.FuncLit:
		body = u.Body
	default:
		return nil
	}
	unitSpan := span{body.Pos(), body.End()}

	var evts []lockEvt
	var walk func(n ast.Node, scope span)
	// Only statement-position calls count. A deferred call contributes no
	// event: a deferred unlock holds to the end of the unit, and a deferred
	// lock runs on the way out.
	addCall := func(call *ast.CallExpr, scope span) {
		mu, op := mutexCall(pkg, call)
		if mu == nil {
			return
		}
		e := lockEvt{mu: mu, flavor: heldW, acquire: op == "Lock" || op == "RLock", pos: call.Pos(), scope: scope, call: call}
		if op == "RLock" || op == "RUnlock" {
			e.flavor = heldR
		}
		evts = append(evts, e)
	}
	walk = func(n ast.Node, scope span) {
		switch s := n.(type) {
		case nil:
			return
		case *ast.BlockStmt:
			inner := span{s.Pos(), s.End()}
			for _, st := range s.List {
				walk(st, inner)
			}
		case *ast.ExprStmt:
			if call, ok := unparen(s.X).(*ast.CallExpr); ok {
				addCall(call, scope)
			}
		case *ast.IfStmt:
			if s.Init != nil {
				walk(s.Init, scope)
			}
			// A TryLock in the condition acquires for exactly one branch:
			// the success body for `if mu.TryLock()`, the code after the
			// statement for the early-return `if !mu.TryLock() { return }`.
			if call, mu, flavor, negated := tryLockCond(pkg, s.Cond); call != nil {
				if negated {
					evts = append(evts, lockEvt{mu: mu, flavor: flavor, acquire: true, pos: s.End(), scope: scope, call: call})
				} else {
					evts = append(evts, lockEvt{mu: mu, flavor: flavor, acquire: true, pos: s.Body.Pos(), scope: span{s.Body.Pos(), s.Body.End()}, call: call})
				}
			}
			walk(s.Body, scope)
			walk(s.Else, scope)
		case *ast.ForStmt:
			walk(s.Init, scope)
			walk(s.Post, scope)
			walk(s.Body, scope)
		case *ast.RangeStmt:
			walk(s.Body, scope)
		case *ast.SwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					inner := span{cc.Pos(), cc.End()}
					for _, st := range cc.Body {
						walk(st, inner)
					}
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					inner := span{cc.Pos(), cc.End()}
					for _, st := range cc.Body {
						walk(st, inner)
					}
				}
			}
		case *ast.SelectStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					inner := span{cc.Pos(), cc.End()}
					for _, st := range cc.Body {
						walk(st, inner)
					}
				}
			}
		case *ast.LabeledStmt:
			walk(s.Stmt, scope)
		}
		// GoStmt bodies run on another goroutine and FuncLit bodies are
		// separate units; neither contributes events here.
	}
	for _, st := range body.List {
		walk(st, unitSpan)
	}
	// Negated-TryLock events carry a post-statement position and are
	// appended before the branch body is walked; replay needs strict
	// position order.
	sort.Slice(evts, func(i, j int) bool { return evts[i].pos < evts[j].pos })
	return evts
}

// heldAtPos replays the unit's events up to p and returns the locks held
// there. Events on branches that do not contain p are skipped.
func heldAtPos(evts []lockEvt, p token.Pos) heldSet {
	type open struct {
		mu     *types.Var
		flavor lockFlavor
	}
	var stack []open
	for _, e := range evts {
		if e.pos >= p {
			break
		}
		if p < e.scope.lo || p >= e.scope.hi {
			continue // branch-local event; p is elsewhere
		}
		if e.acquire {
			stack = append(stack, open{e.mu, e.flavor})
			continue
		}
		// Release: pop the most recent matching acquire, if any.
		for i := len(stack) - 1; i >= 0; i-- {
			if stack[i].mu == e.mu && stack[i].flavor == e.flavor {
				stack = append(stack[:i], stack[i+1:]...)
				break
			}
		}
	}
	held := heldSet{}
	for _, o := range stack {
		held.add(o.mu, o.flavor)
	}
	return held
}

// mutexCall matches <expr>.<op>() where <expr> resolves to a
// sync.Mutex/RWMutex object (struct field, package-level var, or local
// var) and op is a lock operation. Try variants are resolved by
// tryLockCond; here they return "" so statement-position TryLock calls
// (whose result is discarded) contribute nothing.
func mutexCall(pkg *Package, call *ast.CallExpr) (*types.Var, string) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	op := sel.Sel.Name
	switch op {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return nil, ""
	}
	mu := mutexObject(pkg, sel.X)
	if mu == nil {
		return nil, ""
	}
	return mu, op
}

// tryLockCond recognizes `mu.TryLock()` / `mu.TryRLock()` (optionally
// under a single !) as an if condition and returns the call, the mutex,
// the flavor a success acquires, and whether the condition was negated.
// The call is nil when cond is no such condition.
func tryLockCond(pkg *Package, cond ast.Expr) (*ast.CallExpr, *types.Var, lockFlavor, bool) {
	negated := false
	e := unparen(cond)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		negated = true
		e = unparen(u.X)
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return nil, nil, 0, false
	}
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, nil, 0, false
	}
	var flavor lockFlavor
	switch sel.Sel.Name {
	case "TryLock":
		flavor = heldW
	case "TryRLock":
		flavor = heldR
	default:
		return nil, nil, 0, false
	}
	mu := mutexObject(pkg, sel.X)
	if mu == nil {
		return nil, nil, 0, false
	}
	return call, mu, flavor, negated
}

// isSyncMutex reports whether t is a sync.Mutex or sync.RWMutex, or a
// pointer to one.
func isSyncMutex(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// funcUnits returns body plus every function literal beneath it, each to
// be analyzed as an independent unit.
func funcUnits(body *ast.BlockStmt) []ast.Node {
	units := []ast.Node{body}
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			units = append(units, fl)
		}
		return true
	})
	return units
}

// mutexObject resolves an expression naming a mutex to its declaration
// object: `x.mu` (field selection, however deep the base), `pkgMu`
// (package-level or local var), or `s.inner.mu`. Returns nil when the
// expression is not a sync mutex or cannot be resolved statically.
func mutexObject(pkg *Package, e ast.Expr) *types.Var {
	switch x := unparen(e).(type) {
	case *ast.SelectorExpr:
		s, ok := pkg.Info.Selections[x]
		if !ok || s.Kind() != types.FieldVal {
			// Package-qualified var (pkg.Mu): the Sel resolves via Uses.
			if v, ok := pkg.Info.Uses[x.Sel].(*types.Var); ok && isSyncMutex(v.Type()) {
				return v
			}
			return nil
		}
		v, ok := s.Obj().(*types.Var)
		if !ok || !isSyncMutex(v.Type()) {
			return nil
		}
		return v
	case *ast.Ident:
		v, ok := objectOf(pkg, x).(*types.Var)
		if !ok || !isSyncMutex(v.Type()) {
			return nil
		}
		return v
	}
	return nil
}

// lockDisplayName renders a mutex object for messages and the DOT graph:
// "pkg.Type.field" for struct fields, "pkg.var" otherwise.
func lockDisplayName(mu *types.Var) string {
	name := mu.Name()
	if mu.IsField() {
		if owner := fieldOwner(mu); owner != nil {
			name = owner.Name() + "." + name
		}
	}
	if mu.Pkg() != nil {
		name = mu.Pkg().Name() + "." + name
	}
	return name
}

// fieldOwner finds the named struct type declaring field, scanning the
// field's package scope.
func fieldOwner(field *types.Var) *types.TypeName {
	if field.Pkg() == nil {
		return nil
	}
	scope := field.Pkg().Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == field {
				return tn
			}
		}
	}
	return nil
}

// lockedHelperName reports whether the function follows the
// caller-holds-the-lock naming convention.
func lockedHelperName(fn *types.Func) bool {
	return strings.HasSuffix(fn.Name(), "Locked")
}

// receiverDefaultMutex returns the conventional mutex of fn's receiver
// type for *Locked helpers: the field named "mu" if present, else the
// first declared mutex field. nil for non-methods and mutex-less types.
func receiverDefaultMutex(fn *types.Func) *types.Var {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	var first *types.Var
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !isSyncMutex(f.Type()) {
			continue
		}
		if f.Name() == "mu" {
			return f
		}
		if first == nil {
			first = f
		}
	}
	return first
}
