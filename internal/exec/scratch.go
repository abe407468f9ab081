package exec

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/theap"
	"repro/internal/vec"
)

// Scratch owns every reusable buffer one query needs downstream of block
// selection: the plan's subtask backing, the entry-seed arena planners
// carve per-block seed slices from, the per-subtask result heaps, the
// graph searchers, and the merge buffer. All of it grows to a high-water
// mark on the first queries and is then reused verbatim, which is what
// makes a warmed-up inline query allocation-free.
//
// A Scratch serves one query at a time and is not safe for concurrent use.
// Results returned from Run (the neighbor slice and
// Outcome.Subtasks) alias the scratch and are valid until its next query.
type Scratch struct {
	// Subtasks is the plan backing array: planners build their plan as
	// Plan{Subtasks: scr.Subtasks[:0]}, append to it, and store the grown
	// slice back so the capacity is retained.
	Subtasks []Subtask
	// Entries is the entry-seed arena: planners append each block's seeds
	// and hand the subtask a capped sub-slice, so seed storage for any
	// number of blocks costs zero steady-state allocations.
	Entries []int32
	// PlanTop is a planner-side ranking heap (IVF uses it to rank
	// centroids at plan time).
	PlanTop theap.TopK
	// Ent is the plan-local entropy source; planners Reseed it per query
	// instead of allocating a fresh source.
	Ent Entropy

	// Executor-side state.
	plan      Plan // Run's copy of the plan, so &plan never escapes a stack frame
	results   []SubtaskResult
	lists     [][]theap.Neighbor
	tops      []theap.TopK
	rtops     []theap.TopK      // per-subtask exact re-rank heaps (compressed kinds): tops[i] holds the over-fetched candidates while rtops[i] collects the re-scored top-k, because TopK.Items aliases its backing and cannot be refilled while iterated
	searchers []*graph.Searcher // one per worker slot
	luts      [][]float32       // per-worker-slot asymmetric-distance tables (dim·256 floats, grown on first compressed subtask)
	merger    theap.Merger
	next      atomic.Int64 // parallel-mode claim counter
}

// NewScratch returns an empty scratch; every buffer grows on first use and
// is retained afterwards.
func NewScratch() *Scratch { return &Scratch{} }

var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

// Pooled runs one query body on a pooled scratch and returns a fresh copy
// of its scratch-aliased results, so the caller owns what it gets back. It
// is the borrow → run → copy → return sequence behind the pooled Search of
// every index that plans straight into an exec.Scratch (BSBF, SF, IVF).
func Pooled(body func(*Scratch) []theap.Neighbor) []theap.Neighbor {
	scr := scratchPool.Get().(*Scratch)
	res := slices.Clone(body(scr)) // keeps nil nil
	scratchPool.Put(scr)
	return res
}

// ensure sizes the per-subtask arrays for an n-subtask plan, retaining the
// result heaps' backing across growth.
func (s *Scratch) ensure(n int) {
	if cap(s.results) >= n {
		return
	}
	//lint:ignore hotpath-alloc cold-start growth; retained for every later query on this scratch
	s.results = make([]SubtaskResult, n)
	//lint:ignore hotpath-alloc cold-start growth; retained for every later query on this scratch
	s.lists = make([][]theap.Neighbor, n)
	//lint:ignore hotpath-alloc cold-start growth; retained for every later query on this scratch
	grown := make([]theap.TopK, n)
	copy(grown, s.tops)
	s.tops = grown
	//lint:ignore hotpath-alloc cold-start growth; retained for every later query on this scratch
	rgrown := make([]theap.TopK, n)
	copy(rgrown, s.rtops)
	s.rtops = rgrown
}

// ensureLUT returns worker slot's lookup-table buffer with length >= n,
// growing it on first use like every other scratch arena.
func (s *Scratch) ensureLUT(slot, n int) []float32 {
	if cap(s.luts[slot]) < n {
		//lint:ignore hotpath-alloc cold-start growth; the table is retained for every later query on this scratch
		s.luts[slot] = make([]float32, n)
	}
	return s.luts[slot][:n]
}

// ensureWorkers guarantees one graph searcher and one LUT slot per worker.
func (s *Scratch) ensureWorkers(w int) {
	for len(s.searchers) < w {
		//lint:ignore hotpath-alloc cold-start growth; searchers persist across queries
		s.searchers = append(s.searchers, graph.NewSearcher(0))
		//lint:ignore hotpath-alloc cold-start growth; LUT slots persist across queries
		s.luts = append(s.luts, nil)
	}
}

// runOne executes subtask i on worker slot, recording its timing and
// result list.
func (s *Scratch) runOne(ctx context.Context, p *Plan, i, slot int, results []SubtaskResult, lists [][]theap.Neighbor) {
	if fault.Enabled {
		// Injection point exec.subtask: a failed or slow subtask. Returning
		// before the kernel runs leaves results[i].Skipped true, so the
		// executor reports the query Partial — the same degradation path a
		// deadline exercises.
		if err := fault.Hit("exec.subtask"); err != nil {
			return
		}
	}
	if p.Subtasks[i].Cold {
		// Cold subtask on a worker slot: fetch inline — other workers'
		// hot kernels overlap the page-in naturally.
		//lint:ignore hotpath-alloc cold-fetch path; all-hot plans never reach it
		s.runCold(ctx, p, i, slot, results, lists)
		return
	}
	start := time.Now()
	lists[i] = s.runSubtask(ctx, p, i, slot)
	r := &results[i]
	r.Duration = time.Since(start)
	r.Skipped = false
	r.Found = len(lists[i])
}

// runWorker is one goroutine of the parallel fan-out: it claims subtask
// indices off the shared counter until the plan is drained or the context
// fires.
func (s *Scratch) runWorker(ctx context.Context, p *Plan, slot int, wg *sync.WaitGroup, results []SubtaskResult, lists [][]theap.Neighbor) {
	defer wg.Done()
	n := len(p.Subtasks)
	for {
		i := int(s.next.Add(1))
		if i >= n || ctx.Err() != nil {
			return
		}
		s.runOne(ctx, p, i, slot, results, lists)
	}
}

// runSubtask dispatches subtask i to its kernel. The returned list aliases
// the subtask's scratch heap and is valid until the scratch's next query.
func (s *Scratch) runSubtask(ctx context.Context, p *Plan, i, slot int) []theap.Neighbor {
	st := &p.Subtasks[i]
	if st.Run != nil {
		return st.Run(ctx)
	}
	if p.K <= 0 {
		return nil
	}
	top := &s.tops[i]
	top.ResetK(p.K)
	switch st.Kind {
	case GraphSearch:
		return s.graphKernel(st, p.Query, p.K, top, slot)
	case CompressedGraph:
		return s.compressedGraphKernel(st, p.Query, p.K, top, i, slot)
	case CompressedScan:
		return s.compressedScanKernel(ctx, st, p.Query, p.K, top, i, slot)
	}
	if st.List != nil {
		ScanListInto(ctx, top, st.Store, st.Metric, p.Query, st.List)
	} else {
		ScanInto(ctx, top, st.Store, st.Metric, p.Query, st.ScanLo, st.ScanHi)
	}
	return top.Items()
}

// graphKernel answers a GraphSearch subtask: an Algorithm 2 traversal over
// the block's view, rebased to global ids. A graph traversal visits a
// bounded frontier and is short relative to scans; cancellation is honored
// between subtasks rather than inside the walk.
func (s *Scratch) graphKernel(st *Subtask, q []float32, k int, top *theap.TopK, slot int) []theap.Neighbor {
	sr := s.searchers[slot]
	view := vec.View{Store: st.Store, Lo: st.Lo, Hi: st.Hi, Metric: st.Metric}
	sr.SearchInto(top, st.Graph, view, q, st.Times, st.Ts, st.Te, st.Params, st.Entries, k)
	res := top.Items()
	base := int32(st.Lo)
	for i := range res {
		res[i].ID += base
	}
	if invariant.Enabled {
		for i, nb := range res {
			invariant.Checkf(int(nb.ID) >= st.Lo && int(nb.ID) < st.Hi,
				"exec: graph result %d has id %d outside [%d,%d)", i, nb.ID, st.Lo, st.Hi)
			invariant.Checkf(st.Times == nil ||
				(st.Times[nb.ID-base] >= st.Ts && st.Times[nb.ID-base] < st.Te),
				"exec: graph result %d (id %d) fails the time window", i, nb.ID)
			invariant.Checkf(i == 0 || !theap.Less(res[i], res[i-1]),
				"exec: graph results not ascending at %d", i)
		}
	}
	return res
}

// compressedScanKernel answers a CompressedScan subtask: an asymmetric
// linear scan of the block's SQ8 codes over the window rows [ScanLo,
// ScanHi), over-fetching RerankK candidates into top, then the exact
// float32 re-rank keeps the true top k. The LUT is per worker slot and
// rebuilt per subtask; candidate ids are global throughout (codes row g
// maps to global row st.Lo+g).
//
//tknn:hotpath
func (s *Scratch) compressedScanKernel(ctx context.Context, st *Subtask, q []float32, k int, top *theap.TopK, i, slot int) []theap.Neighbor {
	rk := RerankK(k, 0, st.ScanHi-st.ScanLo)
	if st.RerankK > 0 {
		rk = st.RerankK
	}
	top.ResetK(rk)
	lut := s.ensureLUT(slot, st.Codes.LUTLen())
	st.Codes.FillLUT(st.Metric, q, lut)
	qn := vec.Norm(q)
	for g := st.ScanLo; g < st.ScanHi; g++ {
		if (g-st.ScanLo)%scanPoll == scanPoll-1 && ctx.Err() != nil {
			break
		}
		top.Push(theap.Neighbor{ID: int32(g), Dist: st.Codes.LUTDist(st.Metric, lut, qn, g-st.Lo)})
	}
	return s.rerank(st, q, k, top.Items(), i)
}

// compressedGraphKernel answers a CompressedGraph subtask: the Algorithm 2
// walk scores candidates against the block's SQ8 codes through the slot's
// LUT, over-fetches RerankK, and the exact re-rank keeps the true top k.
//
//tknn:hotpath
func (s *Scratch) compressedGraphKernel(st *Subtask, q []float32, k int, top *theap.TopK, i, slot int) []theap.Neighbor {
	rk := RerankK(k, 0, st.Hi-st.Lo)
	if st.RerankK > 0 {
		rk = st.RerankK
	}
	lut := s.ensureLUT(slot, st.Codes.LUTLen())
	st.Codes.FillLUT(st.Metric, q, lut)
	qn := vec.Norm(q)
	sr := s.searchers[slot]
	sr.SearchCodesInto(top, st.Graph, st.Codes, lut, st.Metric, qn, st.Times, st.Ts, st.Te, st.Params, st.Entries, rk)
	cands := top.Items()
	base := int32(st.Lo)
	for j := range cands {
		cands[j].ID += base
	}
	res := s.rerank(st, q, k, cands, i)
	if invariant.Enabled {
		for j, nb := range res {
			invariant.Checkf(int(nb.ID) >= st.Lo && int(nb.ID) < st.Hi,
				"exec: compressed result %d has id %d outside [%d,%d)", j, nb.ID, st.Lo, st.Hi)
			invariant.Checkf(st.Times == nil ||
				(st.Times[nb.ID-base] >= st.Ts && st.Times[nb.ID-base] < st.Te),
				"exec: compressed result %d (id %d) fails the time window", j, nb.ID)
			invariant.Checkf(j == 0 || !theap.Less(res[j], res[j-1]),
				"exec: compressed results not ascending at %d", j)
		}
	}
	return res
}

// rerank is the exact re-rank stage shared by the compressed kernels: the
// over-fetched candidates (global ids, asymmetric distances) are re-scored
// against the float32 store into the subtask's re-rank heap, which keeps
// the exact top k. Its duration is recorded on the subtask's result — the
// Rerank stage the server exports.
//
//tknn:hotpath
func (s *Scratch) rerank(st *Subtask, q []float32, k int, cands []theap.Neighbor, i int) []theap.Neighbor {
	start := time.Now()
	rt := &s.rtops[i]
	rt.ResetK(k)
	qsq := vec.SquaredNorm(q)
	for _, nb := range cands {
		rt.Push(theap.Neighbor{ID: nb.ID, Dist: vec.DistanceStored(st.Metric, q, qsq, st.Store, int(nb.ID))})
	}
	s.results[i].Rerank = time.Since(start)
	return rt.Items()
}

// scanPoll is how many rows a brute-scan kernel scores between context
// polls: rare enough to stay off the hot path, frequent enough that
// cancelling a scan takes microseconds.
const scanPoll = 2048

// ScanInto brute-force scores global rows [lo, hi) of store against q,
// pushing every row into top — the BruteForce step of Algorithm 1 as a
// kernel over a caller-owned heap. The scan polls ctx every scanPoll rows
// and stops early with what it has when the context is done; the executor
// tags the outcome Partial whenever that happens mid-plan.
//
//tknn:hotpath
func ScanInto(ctx context.Context, top *theap.TopK, store *vec.Store, metric vec.Metric, q []float32, lo, hi int) {
	qsq := vec.SquaredNorm(q) // hoisted once; the angular path then reads cached vector norms
	for i := lo; i < hi; i++ {
		if (i-lo)%scanPoll == scanPoll-1 && ctx.Err() != nil {
			return
		}
		top.Push(theap.Neighbor{ID: int32(i), Dist: vec.DistanceStored(metric, q, qsq, store, i)})
	}
}

// ScanListInto is ScanInto over an explicit global-id list — how IVF
// probes score the in-window run of an inverted list.
//
//tknn:hotpath
func ScanListInto(ctx context.Context, top *theap.TopK, store *vec.Store, metric vec.Metric, q []float32, ids []int32) {
	qsq := vec.SquaredNorm(q)
	for j, id := range ids {
		if j%scanPoll == scanPoll-1 && ctx.Err() != nil {
			return
		}
		top.Push(theap.Neighbor{ID: id, Dist: vec.DistanceStored(metric, q, qsq, store, int(id))})
	}
}
