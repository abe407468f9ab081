// Package reg exercises the lock-discipline rule: a non-deferred Lock
// whose Unlock sits in a different block is flagged at the Lock; pairs in
// one block, deferred unlocks, and releases of a caller's lock are clean.
package reg

import "sync"

// Registry guards count with mu. The rule reads lock calls only; which
// fields mu guards is the guarded-by rule's business.
type Registry struct {
	mu    sync.RWMutex
	count int
}

// Add defers the unlock: clean.
func (r *Registry) Add() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.count++
}

// Len keeps the read pair in one block: clean.
func (r *Registry) Len() int {
	r.mu.RLock()
	n := r.count
	r.mu.RUnlock()
	return n
}

// unlockLocked releases the lock its caller took: the unit has no open
// acquire to pair it with.
func (r *Registry) unlockLocked() {
	r.count = 0
	r.mu.Unlock()
}

// Reset releases on a branch like Drain does, but documents why:
// suppressed.
func (r *Registry) Reset(force bool) {
	//lint:ignore lock-discipline the force path is the documented shutdown shortcut
	r.mu.Lock()
	if force {
		r.count = 0
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()
}

// Async's closure is its own unit, its pair in one block: clean.
func (r *Registry) Async() func() {
	return func() {
		r.mu.Lock()
		r.count++
		r.mu.Unlock()
	}
}

// Drain releases the lock on one branch and at the end of the function —
// the shape that leaks the lock when someone adds an early return.
// Flagged at the Lock call.
func (r *Registry) Drain(flush bool) int {
	r.mu.Lock()
	if flush {
		n := r.count
		r.count = 0
		r.mu.Unlock()
		return n
	}
	n := r.count
	r.mu.Unlock()
	return n
}

// swap keeps the pair in one block: clean even without defer.
func (r *Registry) swap(n int) (old int) {
	r.mu.Lock()
	old, r.count = r.count, n
	r.mu.Unlock()
	return old
}

// Touch pairs the lock inside one loop body: clean.
func (r *Registry) Touch(n int) {
	for ; n > 0; n-- {
		r.mu.Lock()
		r.count++
		r.mu.Unlock()
	}
}

// TryDrain acquires via TryLock but releases on a different branch:
// flagged at the TryLock, same as a branch-spanning Lock.
func (r *Registry) TryDrain() int {
	if r.mu.TryLock() {
		if r.count > 0 {
			n := r.count
			r.count = 0
			r.mu.Unlock()
			return n
		}
		r.mu.Unlock()
	}
	return 0
}

// TryReset keeps the successful-TryLock acquisition and its release in
// one block: clean.
func (r *Registry) TryReset() {
	if r.mu.TryLock() {
		r.count = 0
		r.mu.Unlock()
	}
}
