package core

import (
	"sync"

	"repro/internal/exec"
)

// Scratch owns every reusable per-query buffer of the MBI search path: the
// block-selection list, and (through the embedded executor scratch) the
// plan's subtask backing, the entry-seed arena, the per-subtask result
// heaps, the graph searchers, and the merge buffer. All of it grows to a
// high-water mark on the first queries and is then reused verbatim, which
// is what makes a warmed-up sequential Query allocation-free.
//
// A Scratch serves one query at a time and is not safe for concurrent use.
// Results returned through it (the neighbor slice and Outcome.Subtasks)
// alias the scratch and are valid until its next query.
type Scratch struct {
	ex  exec.Scratch
	sel []selection
}

// NewScratch returns an empty scratch; every buffer grows on first use and
// is retained afterwards.
func NewScratch() *Scratch { return &Scratch{} }

// Exec exposes the executor half of the scratch, so an index that plans
// straight into an exec.Scratch (BSBF, SF, IVF) can be served from the same
// pool as MBI.
func (s *Scratch) Exec() *exec.Scratch { return &s.ex }

var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

// GetScratch borrows a pooled scratch for one query. Pair with PutScratch
// once every slice derived from the scratch has been copied or dropped.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns a scratch borrowed with GetScratch to the pool.
func PutScratch(s *Scratch) { scratchPool.Put(s) }
