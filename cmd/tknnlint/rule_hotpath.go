package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Rule hotpath-alloc.
//
// The query hot path — everything between a search entry point and its
// merged result — is supposed to perform zero steady-state heap
// allocations: per-query state lives in reusable Scratch buffers, and the
// allocation gate (`make allocs-gate`: TestQueryZeroAllocs in
// internal/core and internal/bsbf) measures exactly that. Allocation bugs regress silently: the code stays correct,
// only the profile rots. This rule makes the property structural.
//
// A function is *hot* when its declaration carries the
//
//	//tknn:hotpath
//
// directive, or when it is statically reachable from a hot function
// through module-internal calls. Reachability is computed over the whole
// module, skipping the gated packages internal/invariant and
// internal/fault (tag-build-only code) and call sites inside
// `if invariant.Enabled` / `if fault.Enabled` guards (dead in default
// builds).
//
// hotpath-alloc flags, inside hot functions:
//
//   - make and new
//   - slice, map, and address-taken (&T{...}) composite literals (plain
//     struct values are stack values and stay exempt)
//   - appends that grow a function-local slice from scratch — appends
//     rooted at a selector (amortized reused state), a parameter
//     (caller-owned buffer), a pointer deref, or a local resliced from
//     existing storage (x := y[:0]) are exempt
//   - map writes rooted at a plain local ident (selector- and
//     parameter-rooted maps are reused state)
//   - string<->[]byte/[]rune conversions
//   - function literals that outlive the statement (assigned, stored,
//     returned, deferred, or launched); literals in call-argument
//     position are exempt
//   - defer inside a loop (one deferred frame per iteration)
//   - interface boxing: a non-pointer-shaped concrete value passed to an
//     interface-typed parameter
//
// Cold-start growth (a buffer that allocates once and is retained) is the
// intended exception: suppress the site with `//lint:ignore hotpath-alloc
// reason`.
const ruleHotAlloc = "hotpath-alloc"

// hotDirective is the comment that marks a hot-path root.
const hotDirective = "//tknn:hotpath"

// declSite locates one function declaration in the module.
type declSite struct {
	pkg  *Package
	decl *ast.FuncDecl
}

// gatedPkg reports whether rel is a tag-build-only package whose code is
// off the hot path by construction.
func gatedPkg(rel string) bool {
	return rel == "internal/invariant" || rel == "internal/fault"
}

// hotSet lazily computes the module's hot functions: the transitive
// static-call closure of every //tknn:hotpath root, walked over the
// shared module call graph (callgraph.go). The map value is the root the
// function was first reached from ("" for a root itself).
func (l *linter) hotSet() map[*types.Func]string {
	if l.hot != nil {
		return l.hot
	}
	l.hot = map[*types.Func]string{}
	mg := l.graph()

	var roots []*types.Func
	for _, fn := range mg.declOrder {
		site := mg.decls[fn]
		if gatedPkg(site.pkg.Rel) {
			continue // gated debug/chaos code is off the hot path by construction
		}
		if hasHotDirective(site.decl.Doc) {
			roots = append(roots, fn)
		}
	}

	// A //lint:ignore hotpath-alloc on a call site is an accepted
	// exception for the whole call: hotness does not propagate through it,
	// so a suppressed cold-start constructor's interior is not flagged.
	ignores := buildIgnores(l.mod)

	queue := make([]*types.Func, 0, len(roots))
	for _, fn := range roots {
		l.hot[fn] = hotName(fn)
		queue = append(queue, fn)
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		origin := l.hot[fn]
		for _, e := range mg.edges[fn] {
			if e.gated {
				continue // dead in default builds; never hot
			}
			if p := l.relPosition(e.pos); ignores.covers(p.Filename, p.Line, ruleHotAlloc) {
				continue
			}
			if gatedPkg(mg.decls[e.callee].pkg.Rel) {
				continue
			}
			if _, seen := l.hot[e.callee]; seen {
				continue
			}
			l.hot[e.callee] = origin
			queue = append(queue, e.callee)
		}
	}
	return l.hot
}

// hotName renders a function for "hot via ..." messages.
func hotName(fn *types.Func) string {
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		name = fn.Pkg().Name() + "." + name
	}
	return name
}

// hasHotDirective reports whether the doc group carries //tknn:hotpath.
func hasHotDirective(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == hotDirective {
			return true
		}
	}
	return false
}

// span is a position range.
type span struct{ lo, hi token.Pos }

func posInSpans(p token.Pos, spans []span) bool {
	for _, s := range spans {
		if p >= s.lo && p < s.hi {
			return true
		}
	}
	return false
}

// guardedSpans returns the body spans of gated-Enabled if statements
// (`if invariant.Enabled`, `if fault.Enabled`)
// inside decl: code there is dead-code-eliminated in default builds, so
// hot-path rules skip it.
func guardedSpans(pkg *Package, decl *ast.FuncDecl) []span {
	var out []span
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		if condReadsEnabled(pkg, ifs.Cond) {
			out = append(out, span{ifs.Body.Pos(), ifs.Body.End()})
		}
		return true
	})
	return out
}

// checkHotpathAlloc applies the allocation rules to every hot function
// declared in pkg.
func (l *linter) checkHotpathAlloc(pkg *Package) {
	hot := l.hotSet()
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if origin, isHot := hot[fn]; isHot {
				l.checkHotBody(pkg, fd, origin)
			}
		}
	}
}

// checkHotBody walks one hot function's body for allocation sites.
func (l *linter) checkHotBody(pkg *Package, decl *ast.FuncDecl, origin string) {
	guards := guardedSpans(pkg, decl)
	params := paramObjects(pkg, decl)
	fresh, resliced := localSliceClasses(pkg, decl)

	flag := func(pos token.Pos, format string, args ...any) {
		if posInSpans(pos, guards) {
			return
		}
		msg := "in hot path (via " + origin + "): " + format
		l.report(pos, ruleHotAlloc, msg, args...)
	}

	// parents[node] is the enclosing node, for context-sensitive checks
	// (FuncLit position, &T{} detection, defer-in-loop).
	parents := buildParents(decl.Body)

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			l.checkHotCall(pkg, e, flag)
		case *ast.CompositeLit:
			t := pkg.Info.Types[e].Type
			if t == nil {
				break
			}
			switch t.Underlying().(type) {
			case *types.Slice:
				flag(e.Pos(), "slice literal allocates per query; reuse scratch-backed storage")
			case *types.Map:
				flag(e.Pos(), "map literal allocates per query; reuse scratch-backed storage")
			case *types.Struct:
				if u, ok := parents[ast.Node(e)].(*ast.UnaryExpr); ok && u.Op == token.AND {
					flag(u.Pos(), "&%s{...} escapes to the heap; keep the value in scratch state", typeName(t))
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range e.Lhs {
				ix, ok := unparen(lhs).(*ast.IndexExpr)
				if !ok {
					continue
				}
				t := pkg.Info.Types[ix.X].Type
				if t == nil {
					continue
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					continue
				}
				root, base := rootIdent(ix.X)
				if !base || root == nil || params[objectOf(pkg, root)] {
					continue // selector/deref/param-rooted: reused state
				}
				flag(ix.Pos(), "write into function-local map %s may allocate; hoist the map into scratch state", root.Name)
			}
		case *ast.FuncLit:
			parent := parents[ast.Node(e)]
			if call, ok := parent.(*ast.CallExpr); ok {
				if call.Fun == e {
					break // immediately invoked: no closure outlives the call
				}
				isArg := false
				for _, a := range call.Args {
					if a == e {
						isArg = true
						break
					}
				}
				if isArg {
					if _, isGo := parents[ast.Node(call)].(*ast.GoStmt); !isGo {
						break // call-argument position: scoped to the call
					}
				}
			}
			flag(e.Pos(), "function literal outlives its statement and its captures escape; use a method value on scratch state instead")
			return false // inner body is the closure's problem only if it is itself hot
		case *ast.DeferStmt:
			for p := parents[ast.Node(e)]; p != nil; p = parents[p] {
				switch p.(type) {
				case *ast.ForStmt, *ast.RangeStmt:
					flag(e.Pos(), "defer inside a loop allocates one deferred frame per iteration; restructure the loop body")
				case *ast.FuncLit:
					p = nil
				}
				if p == nil {
					break
				}
			}
		}
		return true
	})

	// Growing appends and interface boxing need the call list with types.
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isBuiltinCall(pkg, call, "append") && len(call.Args) > 0 {
			root, base := rootIdent(call.Args[0])
			if base && root != nil {
				obj := objectOf(pkg, root)
				if obj != nil && !params[obj] && !resliced[obj] && fresh[obj] {
					flag(call.Pos(), "append grows function-local slice %s from scratch each query; carve it from scratch storage instead", root.Name)
				}
			}
		}
		l.checkBoxing(pkg, call, flag)
		return true
	})
}

// checkHotCall flags make/new and string conversions.
func (l *linter) checkHotCall(pkg *Package, call *ast.CallExpr, flag func(token.Pos, string, ...any)) {
	if isBuiltinCall(pkg, call, "make") {
		flag(call.Pos(), "make allocates per query; grow a retained buffer once and reslice it")
		return
	}
	if isBuiltinCall(pkg, call, "new") {
		flag(call.Pos(), "new allocates per query; keep the value in scratch state")
		return
	}
	// Conversions between string and byte/rune slices copy their payload.
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type.Underlying()
		argT := pkg.Info.Types[call.Args[0]].Type
		if argT == nil {
			return
		}
		src := argT.Underlying()
		if isString(dst) && isByteOrRuneSlice(src) {
			flag(call.Pos(), "[]byte/[]rune-to-string conversion copies per query; keep the data in one representation")
		}
		if isByteOrRuneSlice(dst) && isString(src) {
			flag(call.Pos(), "string-to-slice conversion copies per query; keep the data in one representation")
		}
	}
}

// checkBoxing flags concrete non-pointer-shaped values passed to
// interface-typed parameters: each such pass heap-allocates the value.
func (l *linter) checkBoxing(pkg *Package, call *ast.CallExpr, flag func(token.Pos, string, ...any)) {
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion, handled elsewhere
	}
	sig := callSignature(pkg, call)
	if sig == nil {
		return
	}
	for i, arg := range call.Args {
		var paramT types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // spread of an existing slice: no per-element boxing here
			}
			st, ok := sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			paramT = st.Elem()
		case i < sig.Params().Len():
			paramT = sig.Params().At(i).Type()
		default:
			continue
		}
		if _, isIface := paramT.Underlying().(*types.Interface); !isIface {
			continue
		}
		argTV, ok := pkg.Info.Types[arg]
		if !ok || argTV.Type == nil || argTV.Value != nil {
			continue // constants may be interned; out of scope
		}
		at := argTV.Type
		if at == types.Typ[types.UntypedNil] || isPointerShaped(at) {
			continue
		}
		if _, isIface := at.Underlying().(*types.Interface); isIface {
			continue // interface-to-interface: no new box
		}
		flag(arg.Pos(), "%s value boxed into interface parameter allocates per query; pass a pointer or restructure the call", typeName(at))
	}
}

// --- shared helpers ---

// paramObjects collects the receiver's and parameters' objects.
func paramObjects(pkg *Package, decl *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	collect := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := pkg.Info.Defs[name]; obj != nil {
					out[obj] = true
				}
			}
		}
	}
	collect(decl.Recv)
	collect(decl.Type.Params)
	return out
}

// localSliceClasses classifies the function's local variables by how they
// were declared: fresh (var x []T, x := make(...), x := nil-ish — growing
// them allocates) versus resliced (x := y[:0] and friends — growth reuses
// existing backing until the high-water mark).
func localSliceClasses(pkg *Package, decl *ast.FuncDecl) (fresh, resliced map[types.Object]bool) {
	fresh = map[types.Object]bool{}
	resliced = map[types.Object]bool{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if s.Tok != token.DEFINE || len(s.Lhs) != len(s.Rhs) {
				return true
			}
			for i, lhs := range s.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := pkg.Info.Defs[id]
				if obj == nil {
					continue
				}
				if _, isSlice := obj.Type().Underlying().(*types.Slice); !isSlice {
					continue
				}
				switch unparen(s.Rhs[i]).(type) {
				case *ast.SliceExpr:
					resliced[obj] = true
				default:
					fresh[obj] = true
				}
			}
		case *ast.DeclStmt:
			gd, ok := s.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					obj := pkg.Info.Defs[name]
					if obj == nil {
						continue
					}
					if _, isSlice := obj.Type().Underlying().(*types.Slice); isSlice {
						fresh[obj] = true
					}
				}
			}
		}
		return true
	})
	return fresh, resliced
}

// rootIdent unwraps index/slice expressions to the base identifier.
// base is false when the root is a selector, deref, call, or anything
// else that signals reused or caller-owned state.
func rootIdent(e ast.Expr) (*ast.Ident, bool) {
	for {
		switch x := unparen(e).(type) {
		case *ast.Ident:
			return x, true
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil, false
		}
	}
}

// objectOf resolves an identifier to its object, through either a use or a
// definition.
func objectOf(pkg *Package, id *ast.Ident) types.Object {
	if obj := pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return pkg.Info.Defs[id]
}

// isBuiltinCall reports whether call invokes the named builtin.
func isBuiltinCall(pkg *Package, call *ast.CallExpr, name string) bool {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = pkg.Info.Uses[id].(*types.Builtin)
	return ok
}

// callSignature resolves the call's signature for static calls, method
// calls, and calls through function-typed values alike.
func callSignature(pkg *Package, call *ast.CallExpr) *types.Signature {
	tv, ok := pkg.Info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

func isString(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.String
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// isPointerShaped reports whether boxing t into an interface stores the
// value directly (no heap allocation): pointers, channels, maps, funcs,
// and unsafe pointers.
func isPointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// typeName renders a type compactly for messages.
func typeName(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}
