// Package exec is the shared query-execution layer of every index in this
// repository. A TkNN query, whatever the index, decomposes into the same
// shape (Algorithm 4): a set of independent per-block subtasks — a graph
// search over a sealed block, a brute-force scan over an unindexed range —
// whose partial result lists are merged into the final top-k. MBI, BSBF,
// SF, and IVF each act as a *planner*: they translate a query into a Plan,
// and this package owns everything downstream of planning:
//
//   - running subtasks across up to GOMAXPROCS goroutines (intra-query
//     parallelism over independent blocks, the dimension "Data Series
//     Indexing Gone Parallel" identifies as where the latency wins are);
//   - honoring context.Context cancellation and deadlines — a subtask is
//     never started after the context is done, and expiry returns the
//     partial results gathered so far tagged Partial instead of failing;
//   - merging per-subtask lists with theap.Merge;
//   - reporting per-subtask and per-stage timings for Explain plans,
//     server responses, and metrics.
//
// Callers typically hold their index's read lock across Run, which
// always joins its workers before returning, so data guarded by
// that lock is never touched after it returns (no goroutine outlives the
// call even when the context fires — at worst it waits for in-flight
// subtasks to finish while skipping the rest).
package exec

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/internal/blockcache"
	"repro/internal/graph"
	"repro/internal/sq"
	"repro/internal/theap"
	"repro/internal/vec"
)

// Kind distinguishes the subtask flavors: the two of Algorithm 4, plus
// their compressed (SQ8) counterparts.
type Kind int

const (
	// GraphSearch answers the subtask with a best-first proximity-graph
	// traversal (Algorithm 2) over a sealed block.
	GraphSearch Kind = iota
	// BruteScan answers the subtask with an exact linear scan
	// (Algorithm 1) — open leaves, unbuilt tails, probed IVF lists.
	BruteScan
	// CompressedGraph is GraphSearch over an SQ8-compressed block: the walk
	// scores candidates against byte codes through an asymmetric lookup
	// table, over-fetches RerankK, and re-ranks the survivors exactly
	// against the float32 store.
	CompressedGraph
	// CompressedScan is BruteScan over SQ8 codes with the same over-fetch
	// and exact re-rank.
	CompressedScan
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case BruteScan:
		return "brute-scan"
	case CompressedGraph:
		return "compressed-graph"
	case CompressedScan:
		return "compressed-scan"
	default:
		return "graph-search"
	}
}

// Subtask is one independent unit of a query plan: a contiguous global
// vector range answered by one search primitive. Subtasks of a plan must
// cover disjoint id ranges — the merge deduplicates defensively, but
// result equivalence across worker counts relies on disjointness.
//
// A subtask is pure data: planners fill in the fields of their kind and the
// executor's built-in kernels do the work, so building a plan allocates
// nothing (the closure-per-subtask shape this replaced cost one heap
// allocation per block per query). Everything a subtask references must be
// safe to read under whatever lock the caller holds across the executor;
// the executor always joins its workers before returning.
type Subtask struct {
	// Kind reports how the range is answered.
	Kind Kind
	// Lo, Hi is the global vector range the subtask covers.
	Lo, Hi int
	// WindowStart, WindowEnd is the time window [t_s, t_e) of the range.
	WindowStart, WindowEnd int64

	// Store and Metric locate the vectors for both kernels.
	Store  *vec.Store
	Metric vec.Metric

	// Brute-scan inputs (Kind == BruteScan): the kernel scores global rows
	// [ScanLo, ScanHi) — the subtask's range clipped to the query window —
	// or, when List is non-nil, the explicit global ids of List instead
	// (IVF probes scan inverted lists, not contiguous ranges).
	ScanLo, ScanHi int
	List           []int32

	// Graph-search inputs (Kind == GraphSearch): traverse Graph over the
	// view [Lo, Hi) of Store with Params, seeding the walks from Entries
	// (local ids; entries[0] is the primary walk, the rest restarts) and
	// admitting only nodes whose timestamp lands in [Ts, Te). Times is
	// local-indexed — Times[i] belongs to global row Lo+i — and a nil
	// Times admits every node.
	Graph   *graph.CSR
	Params  graph.SearchParams
	Entries []int32
	Times   []int64
	Ts, Te  int64

	// Compressed inputs (Kind == CompressedScan or CompressedGraph): Codes
	// is the block's SQ8 payload — its local row i is global row Lo+i — and
	// RerankK is the over-fetch size (k·rerankFactor, clipped to the rows
	// the kernel can produce) collected from the codes before the exact
	// float32 re-rank.
	Codes   *sq.Codes
	RerankK int

	// Cold inputs: a cold subtask's block payload was spilled to a
	// segment file, so Graph and Codes start nil and the fetch stage
	// resolves them by paging Cache entry CacheKey in before the kernel
	// runs (pinned across it). A failed fetch leaves the subtask skipped,
	// degrading the query to Partial rather than erroring. Kind is
	// GraphSearch at plan time; the kernel upgrades to CompressedGraph
	// when the fetched payload carries codes (RerankK must be preset).
	Cold     bool
	Cache    *blockcache.Cache
	CacheKey uint64

	// Run, when non-nil, overrides the built-in kernels: it returns up to
	// the plan's K neighbors with global ids in ascending distance order
	// and is called at most once, possibly on a pool goroutine. Tests and
	// external planners use it; the in-repo planners emit data-only
	// subtasks so the hot path stays allocation-free.
	Run func(ctx context.Context) []theap.Neighbor
}

// Plan is an ordered list of subtasks answering one query for K results.
// Planners produce it; Run consumes it.
type Plan struct {
	// K is the result count the merged answer is capped at.
	K int
	// Query is the query vector the kernels score against.
	Query []float32
	// Subtasks are the independent per-block units, in timestamp order.
	Subtasks []Subtask
}

// SubtaskResult records one subtask's execution for Explain-style
// diagnostics.
type SubtaskResult struct {
	// Kind, Lo, Hi echo the subtask.
	Kind   Kind
	Lo, Hi int
	// Duration is the subtask's wall-clock run time (zero when skipped).
	Duration time.Duration
	// Skipped reports that the context was done before the subtask
	// started, so it contributed nothing.
	Skipped bool
	// Found is the number of neighbors the subtask returned.
	Found int
	// DistEvals is the number of distances the subtask's kernel computed:
	// the distinct nodes a graph walk scored (its per-query memo answers
	// every revisit), the rows a scan scored, plus, for the compressed
	// kinds, the candidates the exact re-rank re-scored.
	DistEvals int
	// Rerank is the time the compressed kernels spent re-scoring their
	// over-fetched candidates against the float32 store (zero for
	// uncompressed subtasks). It is contained in Duration.
	Rerank time.Duration
	// Cold reports that the subtask's block was spilled and its payload
	// had to come through the block cache; Fetch is the time that page-in
	// took (cache hits make it near-zero). Fetch is not contained in
	// Duration — with overlap enabled it runs concurrently with other
	// subtasks' kernels.
	Cold  bool
	Fetch time.Duration
}

// Outcome describes how a plan executed: the per-stage timings the server
// exposes as tknn_search_stage_seconds, and the partial-result flag.
type Outcome struct {
	// Partial reports that the context was done before the plan finished:
	// subtasks may have been skipped and in-flight scans may have
	// truncated, so the merged results cover only the work that ran.
	Partial bool
	// Select is the planning stage's duration. The executor cannot
	// measure it (planning happens in the caller); planners fill it in.
	Select time.Duration
	// Search is the wall-clock duration of the subtask-execution stage.
	Search time.Duration
	// Rerank is the summed per-subtask exact re-rank time of the plan's
	// compressed kernels — CPU time, so under parallel fan-out it can
	// exceed its share of the wall-clock Search. Zero for uncompressed
	// plans.
	Rerank time.Duration
	// Fetch is the summed time cold subtasks spent paging their block
	// payloads in from the segment cache. It is CPU-and-disk time that
	// overlaps the Search wall clock: hot kernels run while the fetch
	// stage reads, so Fetch can exceed its visible share of Search.
	Fetch time.Duration
	// Merge is the duration of the final theap.Merge combine.
	Merge time.Duration
	// DistEvals is the plan's summed per-subtask DistEvals.
	DistEvals int
	// Subtasks records per-subtask execution, in plan order.
	Subtasks []SubtaskResult
}

// Run executes the plan and merges the per-subtask lists into the final
// top-K. Subtasks never start after ctx is done; in-flight subtasks are
// always joined before it returns, so at worst cancellation latency is one
// subtask's duration. When any subtask was skipped the outcome is tagged
// Partial and the merged results cover only what ran — partial answers
// instead of errors, because a late result set is still useful to a
// serving tier while a failed query is not.
//
// The width — how many goroutines search the plan's blocks — is not a
// setting: a plan of one subtask runs on the calling goroutine, any other
// on min(len(p.Subtasks), GOMAXPROCS) of them. Three schedules follow from
// what Run can observe. Width 1 and every subtask resident: the inline
// loop. Width 1 and a cold subtask: runSeqCold, which overlaps the page-ins
// with the hot kernels. Width >= 2: that many claim workers, each fetching
// its own cold subtasks inline. Results are identical on all three
// (entries are fixed at plan time, the merge orders by (Dist, ID)).
//
// All per-query state is caller-owned: the per-subtask result heaps, the
// merge buffer, the returned neighbor slice, and Outcome.Subtasks live in
// scr and stay valid only until scr's next query. A warmed-up inline run
// performs zero heap allocations; the other two schedules pay only their
// goroutine fan-out.
//
//tknn:hotpath
func Run(ctx context.Context, p Plan, scr *Scratch) ([]theap.Neighbor, Outcome) {
	// The claim workers are handed the plan by pointer, which would force
	// the p parameter itself to escape — one heap copy per query, even
	// inline. Parking the copy in the heap-resident scratch keeps the
	// inline loop allocation-free.
	scr.plan = p
	plan := &scr.plan
	n := len(plan.Subtasks)
	scr.ensure(n)
	out := Outcome{Subtasks: scr.results[:n]}
	for i := range plan.Subtasks {
		st := &plan.Subtasks[i]
		out.Subtasks[i] = SubtaskResult{Kind: st.Kind, Lo: st.Lo, Hi: st.Hi, Skipped: true}
	}
	if n == 0 {
		return nil, out
	}

	lists := scr.lists[:n]
	searchStart := time.Now()
	workers := 1
	if n > 1 {
		workers = min(n, runtime.GOMAXPROCS(0))
	}
	scr.ensureWorkers(workers)
	if workers == 1 {
		if planHasCold(plan) {
			// Cold plans leave the allocation-free contract: the fetch
			// stage overlaps hot kernels with segment page-ins via a
			// prefetch goroutine.
			//lint:ignore hotpath-alloc cold-plan fetch stage allocates by design (prefetch fan-out)
			scr.runSeqCold(ctx, plan, out.Subtasks, lists)
		} else {
			for i := 0; i < n; i++ {
				if ctx.Err() != nil {
					break
				}
				scr.runOne(ctx, plan, i, 0, out.Subtasks, lists)
			}
		}
	} else {
		scr.next.Store(-1)
		// The fan-out below is the one part of the hot path that
		// inherently allocates (goroutine stacks, the escaping plan
		// pointer); the inline loop — what the allocation gate measures
		// — never reaches it.
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go scr.runWorker(ctx, plan, w, &wg, out.Subtasks, lists)
		}
		wg.Wait()
	}
	out.Search = time.Since(searchStart)

	completed := lists[:0]
	for i := range lists {
		out.Rerank += out.Subtasks[i].Rerank
		out.Fetch += out.Subtasks[i].Fetch
		out.DistEvals += out.Subtasks[i].DistEvals
		if out.Subtasks[i].Skipped {
			out.Partial = true
		} else if len(lists[i]) > 0 {
			completed = append(completed, lists[i])
		}
	}
	if ctx.Err() != nil {
		// The context fired while the plan was executing: even if no
		// subtask was skipped outright, an in-flight scan may have
		// truncated itself, so the answer can no longer be promised
		// complete. Conservatively tag it.
		out.Partial = true
	}

	mergeStart := time.Now()
	var result []theap.Neighbor
	switch len(completed) {
	case 0:
		// Nothing to merge: either every subtask was skipped or none
		// found an in-window neighbor.
	case 1:
		// A single contributing list is already the answer (each subtask
		// returns at most K, sorted ascending) — skip the merge exactly
		// like the old single-block fast path.
		result = completed[0]
	default:
		result = scr.merger.Merge(plan.K, completed...)
	}
	out.Merge = time.Since(mergeStart)
	return result, out
}

// DefaultRerankFactor is the over-fetch multiplier compressed subtasks use
// when their planner does not set one: the compressed kernel collects
// k·factor candidates, then the exact re-rank keeps the true top k. Four
// recovers ≥ 0.95 of flat-index recall@10 on the drifting-cluster dataset
// (see BENCH_sq.json) while re-scoring only tens of vectors.
const DefaultRerankFactor = 4

// RerankK is the over-fetch size a compressed subtask collects before its
// exact re-rank: k·factor clipped to the n rows the subtask can produce,
// never below k. factor <= 0 selects DefaultRerankFactor.
func RerankK(k, factor, n int) int {
	if factor <= 0 {
		factor = DefaultRerankFactor
	}
	rk := k * factor
	if rk > n {
		rk = n
	}
	if rk < k {
		rk = k
	}
	return rk
}
