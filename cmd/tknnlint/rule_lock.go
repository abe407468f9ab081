package main

import (
	"go/ast"
	"go/types"
)

// Rule lock-discipline.
//
// The MBI index is a state machine guarded by sync.RWMutex fields (see
// "Data Series Indexing Gone Parallel"), and a hand-rolled Lock/Unlock
// pair whose Unlock sits in a different block from its Lock — released
// on one branch and again after it — leaks the lock or double-unlocks as
// soon as someone adds an early return between them.
//
// The rule replays each function unit's lock events (lockstate.go: the
// same scope-aware events guarded-by and lock-order read) and flags a
// non-deferred acquire whose matching non-deferred release carries a
// different scope. A TryLock in an if condition acquires for its success
// branch only, so the same check covers it. Which fields a mutex guards
// is guarded-by's business, stated with //tknn:guardedBy; this rule only
// checks the shape of the pairs.
//
// Function literals are analyzed as separate units: a closure passed to
// another goroutine has its own locking obligations.
const ruleLock = "lock-discipline"

func (l *linter) checkLockDiscipline(pkg *Package) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			for _, unit := range funcUnits(fd.Body) {
				l.checkBranchPairs(unitLockEvents(pkg, unit), fd.Name.Name)
			}
		}
	}
}

// checkBranchPairs matches each release to the most recent open acquire
// of the same mutex and flavor and reports the pairs whose two halves
// live in different blocks. A release with no open acquire unlocks a lock
// taken elsewhere (e.g. in a caller) and is skipped.
func (l *linter) checkBranchPairs(evts []lockEvt, fnName string) {
	var open []lockEvt
	for _, e := range evts {
		if e.acquire {
			open = append(open, e)
			continue
		}
		for i := len(open) - 1; i >= 0; i-- {
			a := open[i]
			if a.mu != e.mu || a.flavor != e.flavor {
				continue
			}
			open = append(open[:i], open[i+1:]...)
			if a.scope != e.scope {
				l.report(a.call.Pos(), ruleLock,
					"%s() in %s is released on a different branch without defer; a new early return between them would leak the lock — use defer or keep the pair in one block",
					types.ExprString(a.call.Fun), fnName)
			}
			break
		}
	}
}
