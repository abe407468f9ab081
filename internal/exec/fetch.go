package exec

import (
	"context"
	"time"

	"repro/internal/blockcache"
	"repro/internal/theap"
)

// Fetch stage: cold subtasks reference a spilled block whose payload
// must be paged in through the plan's block cache before a kernel can
// run. Which schedule does the paging follows from Run's width:
//
//   - Width 1 (GOMAXPROCS 1): runSeqCold runs the hot subtasks on the
//     calling goroutine while a single prefetch goroutine pages the
//     cold payloads in plan order; cold kernels then run as their
//     fetches complete. Hot search overlaps disk reads, which is the
//     point of the stage.
//   - Width >= 2: runOne fetches inline on the claiming worker — the
//     other workers' kernels overlap the page-in without extra
//     machinery.
//
// Either way the payload stays pinned across its kernel and a failed
// fetch leaves the subtask skipped, so the query degrades to
// Outcome.Partial instead of erroring.

// planHasCold reports whether any subtask needs the fetch stage. It
// runs on the allocation-free hot path; all-hot plans take the
// untouched inline loop.
func planHasCold(p *Plan) bool {
	for i := range p.Subtasks {
		if p.Subtasks[i].Cold {
			return true
		}
	}
	return false
}

// runCold fetches subtask i's payload through the block cache and runs
// its kernel. Used by the parallel workers (inline fetch) and shared
// with the sequential drain via runColdFetched.
func (s *Scratch) runCold(ctx context.Context, p *Plan, i, slot int, results []SubtaskResult, lists [][]theap.Neighbor) {
	st := &p.Subtasks[i]
	start := time.Now()
	val, err := st.Cache.Get(ctx, st.CacheKey)
	s.runColdFetched(ctx, p, i, slot, val, err, time.Since(start), results, lists)
}

// runColdFetched finishes a cold subtask once its fetch resolved:
// records the fetch, validates the payload against the subtask's range,
// rewrites the subtask into its resident form, runs the kernel, and
// unpins. Any failure leaves results[i].Skipped true.
func (s *Scratch) runColdFetched(ctx context.Context, p *Plan, i, slot int, val blockcache.Value, err error, fetch time.Duration, results []SubtaskResult, lists [][]theap.Neighbor) {
	st := &p.Subtasks[i]
	r := &results[i]
	r.Cold = true
	r.Fetch = fetch
	if err != nil {
		return
	}
	if val.Graph == nil || val.Graph.NumNodes() != st.Hi-st.Lo ||
		(val.Codes != nil && val.Codes.N != st.Hi-st.Lo) {
		// A structurally mismatched payload (stale or foreign segment
		// behind this key) must degrade like a failed fetch, never feed
		// a kernel.
		st.Cache.Unpin(st.CacheKey)
		return
	}
	// p aliases the scratch-owned plan copy, so rewriting the subtask
	// into its resident form is per-query state, not caller state.
	st.Graph = val.Graph
	st.Codes = val.Codes
	if st.Codes != nil {
		st.Kind = CompressedGraph
	}
	r.Kind = st.Kind
	if ctx.Err() == nil {
		start := time.Now()
		lists[i] = s.runSubtask(ctx, p, i, slot)
		r.Duration = time.Since(start)
		r.Skipped = false
		r.Found = len(lists[i])
	}
	st.Cache.Unpin(st.CacheKey)
}

// fetched is one prefetcher result handed to the sequential drain.
type fetched struct {
	i    int
	val  blockcache.Value
	err  error
	elap time.Duration
}

// runSeqCold is the width-1 schedule for plans with cold subtasks:
// one prefetch goroutine pages cold payloads in plan order while the
// calling goroutine runs the hot subtasks, then drains the fetches and
// runs each cold kernel as its payload lands. The channel is always
// drained — even after cancellation — so every successful fetch is
// unpinned exactly once before the caller's lock-scope ends.
func (s *Scratch) runSeqCold(ctx context.Context, p *Plan, results []SubtaskResult, lists [][]theap.Neighbor) {
	n := len(p.Subtasks)
	ch := make(chan fetched, n)
	go func() {
		defer close(ch)
		for i := 0; i < n; i++ {
			st := &p.Subtasks[i]
			if !st.Cold {
				continue
			}
			start := time.Now()
			val, err := st.Cache.Get(ctx, st.CacheKey)
			ch <- fetched{i: i, val: val, err: err, elap: time.Since(start)}
		}
	}()
	for i := 0; i < n; i++ {
		if p.Subtasks[i].Cold {
			continue
		}
		if ctx.Err() != nil {
			continue // keep going: the drain below must still run
		}
		s.runOne(ctx, p, i, 0, results, lists)
	}
	for f := range ch {
		s.runColdFetched(ctx, p, f.i, 0, f.val, f.err, f.elap, results, lists)
	}
}
