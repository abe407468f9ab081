package main

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Rule lock-order.
//
// Deadlocks need no data race: two goroutines acquiring the same two
// mutexes in opposite orders is enough, and the race detector is blind
// to it. This rule records every acquire-while-holding pair into one
// module-wide lock-ordering graph — lock A was held when lock B was
// acquired ⇒ edge A→B — and reports every cycle as a potential
// deadlock.
//
// Held sets are the may-variant of the guarded-by machinery: a
// function's may-entry set is the union over its static call sites of
// what the caller may hold there, propagated to a fixpoint, so an
// acquire buried two calls below a held lock still contributes its
// edge. Locks are type-level objects (Index.mu, Manager.cpMu, a
// package-level var); self-edges (A while A) are dropped — at type
// level they are almost always two different instances, and real
// re-entrancy deadlocks on its first run, where any test sees it — no
// analysis is needed for that. Closures contribute only
// the edges visible inside their own bodies.
//
// One finding is reported per cycle, at a deterministic witness: the
// acquisition site of the alphabetically-least edge in the cycle.
// Suppress with `//lint:ignore lock-order reason` at that site after
// establishing the real runtime order. The -lockgraph flag prints the
// whole graph in DOT for DESIGN.md.
const ruleLockOrder = "lock-order"

// lockEdgeKey is one ordered pair in the lock graph.
type lockEdgeKey struct{ from, to *types.Var }

// lockOrderGraph is the module's acquire-while-holding graph.
type lockOrderGraph struct {
	nodes   []*types.Var // every lock ever acquired, deterministic order
	edges   map[lockEdgeKey]token.Pos
	nodeSet map[*types.Var]bool
}

// buildLockGraph runs the may-held propagation and collects every
// acquire-while-holding edge with its first witness position.
func (l *linter) buildLockGraph() *lockOrderGraph {
	mg := l.graph()
	gi := l.guardIndex()
	callers := mg.callersOf(func(e callEdge) bool { return !e.inClosure })

	// May-entry fixpoint: union over call sites, monotonically growing.
	may := map[*types.Func]heldSet{}
	for _, fn := range mg.declOrder {
		may[fn] = heldSet{}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range mg.declOrder {
			acc := may[fn]
			for _, site := range callers[fn] {
				contrib := heldAtPos(gi.bodyEvts[site.caller], site.pos).union(may[site.caller])
				acc = acc.union(contrib)
			}
			if !acc.equal(may[fn]) {
				may[fn] = acc
				changed = true
			}
		}
	}

	g := &lockOrderGraph{
		edges:   map[lockEdgeKey]token.Pos{},
		nodeSet: map[*types.Var]bool{},
	}
	addNode := func(mu *types.Var) {
		if !g.nodeSet[mu] {
			g.nodeSet[mu] = true
			g.nodes = append(g.nodes, mu)
		}
	}
	collect := func(evts []lockEvt, entry heldSet) {
		for _, e := range evts {
			if !e.acquire {
				continue
			}
			addNode(e.mu)
			held := entry.union(heldAtPos(evts, e.pos))
			for from := range held {
				if from == e.mu {
					continue // type-level self-edge: different instances
				}
				addNode(from)
				key := lockEdgeKey{from, e.mu}
				if _, seen := g.edges[key]; !seen {
					g.edges[key] = e.pos
				}
			}
		}
	}
	for _, fn := range mg.declOrder {
		site := mg.decls[fn]
		collect(gi.bodyEvts[fn], may[fn])
		// Closures: own events, no inherited entry set (funcUnits returns
		// the body first, then every nested literal).
		for _, unit := range funcUnits(site.decl.Body)[1:] {
			collect(unitLockEvents(site.pkg, unit), heldSet{})
		}
	}
	return g
}

// checkLockOrder runs the module-wide cycle detection exactly once per
// lint run (the first matched package triggers it).
func (l *linter) checkLockOrder(pkg *Package) {
	if l.lockOrderRan {
		return
	}
	l.lockOrderRan = true
	g := l.buildLockGraph()
	for _, scc := range g.cycles() {
		names := make([]string, len(scc))
		for i, mu := range scc {
			names[i] = lockDisplayName(mu)
		}
		sort.Strings(names)
		witness, pos := g.witnessEdge(scc)
		l.report(pos, ruleLockOrder,
			"potential deadlock: %s is acquired while %s is held, completing a lock-order cycle [%s]",
			lockDisplayName(witness.to), lockDisplayName(witness.from), strings.Join(names, ", "))
	}
}

// cycles returns the strongly connected components with more than one
// lock, in deterministic node order.
func (g *lockOrderGraph) cycles() [][]*types.Var {
	adj := map[*types.Var][]*types.Var{}
	for key := range g.edges {
		adj[key.from] = append(adj[key.from], key.to)
	}
	for _, succs := range adj {
		sort.Slice(succs, func(i, j int) bool {
			return lockDisplayName(succs[i]) < lockDisplayName(succs[j])
		})
	}

	// Tarjan over g.nodes in insertion order.
	index := map[*types.Var]int{}
	low := map[*types.Var]int{}
	onStack := map[*types.Var]bool{}
	var stack []*types.Var
	var out [][]*types.Var
	next := 0
	var strongconnect func(v *types.Var)
	strongconnect = func(v *types.Var) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []*types.Var
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			if len(scc) > 1 {
				out = append(out, scc)
			}
		}
	}
	for _, v := range g.nodes {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	return out
}

// witnessEdge picks the cycle's deterministic report site: the
// alphabetically-least intra-SCC edge.
func (g *lockOrderGraph) witnessEdge(scc []*types.Var) (lockEdgeKey, token.Pos) {
	in := map[*types.Var]bool{}
	for _, mu := range scc {
		in[mu] = true
	}
	var best lockEdgeKey
	var bestPos token.Pos
	found := false
	for key, pos := range g.edges {
		if !in[key.from] || !in[key.to] {
			continue
		}
		if !found || edgeLess(key, best) {
			best, bestPos, found = key, pos, true
		}
	}
	return best, bestPos
}

func edgeLess(a, b lockEdgeKey) bool {
	af, bf := lockDisplayName(a.from), lockDisplayName(b.from)
	if af != bf {
		return af < bf
	}
	return lockDisplayName(a.to) < lockDisplayName(b.to)
}

// LockGraphDOT renders the module's lock-ordering graph in DOT, edges
// labeled with their witness acquisition site. Deterministic output:
// nodes and edges sorted by display name.
func LockGraphDOT(mod *Module) string {
	l := &linter{mod: mod}
	g := l.buildLockGraph()

	names := make([]string, 0, len(g.nodes))
	for _, mu := range g.nodes {
		names = append(names, lockDisplayName(mu))
	}
	sort.Strings(names)

	type dotEdge struct{ from, to, label string }
	var edges []dotEdge
	for key, pos := range g.edges {
		p := l.relPosition(pos)
		edges = append(edges, dotEdge{
			from:  lockDisplayName(key.from),
			to:    lockDisplayName(key.to),
			label: fmt.Sprintf("%s:%d", p.Filename, p.Line),
		})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		return edges[i].to < edges[j].to
	})

	var b strings.Builder
	b.WriteString("digraph lockorder {\n")
	b.WriteString("  rankdir=LR;\n")
	b.WriteString("  node [shape=box, fontname=\"monospace\"];\n")
	for _, n := range names {
		fmt.Fprintf(&b, "  %q;\n", n)
	}
	for _, e := range edges {
		fmt.Fprintf(&b, "  %q -> %q [label=%q];\n", e.from, e.to, e.label)
	}
	b.WriteString("}\n")
	return b.String()
}
