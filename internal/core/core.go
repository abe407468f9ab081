// Package core implements Multi-level Block Indexing (MBI), the paper's
// contribution: an incremental hierarchical index for time-restricted kNN
// search over time-accumulating high-dimensional vectors.
//
// MBI is conceptually a perfect binary tree of blocks. Each block covers a
// contiguous timestamp range and carries a graph-based approximate kNN
// index over exactly those vectors; a leaf covers S_L vectors, a parent
// covers the union of its children. Because vectors arrive in timestamp
// order, every block is a contiguous range [Lo, Hi) of one global store —
// no block ever copies vectors.
//
// Insertion (Algorithm 3): new vectors land in the open leaf; when it
// fills, its graph is built and bottom-up block merging creates the chain
// of ancestors whose subtrees just became complete. Blocks are numbered in
// creation order, which is exactly a postorder traversal, giving the
// sibling/child arithmetic used throughout: the children of block c at
// height h are c-2^h (left) and c-1 (right).
//
// Querying (Algorithm 4): top-down block selection walks from the root,
// keeping any block whose time-overlap ratio with the query window exceeds
// τ (or any leaf that overlaps at all) and recursing otherwise. Incomplete
// trees are completed with virtual blocks of infinite time window; such
// blocks always recurse, which makes selection over the virtual tree
// equivalent to independent selection on each root of the forest of
// complete subtrees that this implementation maintains explicitly.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/blockcache"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/sq"
	"repro/internal/theap"
	"repro/internal/vec"
)

// Options configures an MBI index.
type Options struct {
	// Dim is the vector dimension.
	Dim int
	// Metric is the distance function (vec.Euclidean or vec.Angular).
	Metric vec.Metric
	// LeafSize is S_L, the number of vectors per leaf block.
	LeafSize int
	// Tau is the block-selection threshold τ ∈ (0, 1]. The paper proves at
	// most two blocks are searched per query when τ ≤ 0.5 (Lemma 4.1) and
	// recommends τ ≈ 0.5 absent tuning data.
	Tau float64
	// Builder constructs the per-block proximity graph (NNDescent in the
	// paper's experiments; any graph.Builder works).
	Builder graph.Builder
	// Search supplies the default Algorithm 2 parameters (M_C, ε);
	// Request.Params overrides them per query.
	Search graph.SearchParams
	// Workers bounds the goroutines used for parallel block building
	// during a merge cascade (§4.2 "Parallelization of MBI").
	// Zero or one means build sequentially.
	Workers int
	// AsyncMerge moves leaf sealing and bottom-up block merging to a
	// background worker so Append never blocks on graph construction.
	// Sealed-but-unbuilt vectors are answered by brute force until their
	// blocks install, so queries stay complete (and exact over that
	// region) at some throughput cost while the builder catches up.
	// Call Flush to wait for the worker and Close when done.
	AsyncMerge bool
	// Seed drives builder randomization; block i is built with seed
	// Seed + i so that construction is reproducible yet blocks differ.
	Seed int64
	// Compression selects the sealed-block vector codec: sq.None keeps
	// blocks flat; sq.SQ8 trains a per-block scalar quantizer at seal time
	// and queries search the codes asymmetrically with an exact re-rank.
	Compression sq.Kind
	// CompressMinHeight only compresses blocks of at least this height,
	// leaving the smallest (cheapest-to-scan) levels flat. Zero compresses
	// every sealed block.
	CompressMinHeight int
	// RerankFactor is the compressed-query over-fetch multiplier: a
	// compressed block contributes its k·RerankFactor best code-space
	// candidates, re-ranked exactly against the float32 store. Zero
	// defaults to exec.DefaultRerankFactor.
	RerankFactor int
	// Spill enables tiered storage: sealed blocks at or below
	// Spill.MaxHeight may have their graph and codes written to per-block
	// segments (SpillCold) and released from RAM, after which queries
	// page them back through a bounded block cache. Nil keeps every block
	// RAM-resident.
	Spill *SpillConfig
}

// Validate reports whether the options are usable.
func (o *Options) Validate() error {
	if o.Dim <= 0 {
		return fmt.Errorf("mbi: Dim must be positive, got %d", o.Dim)
	}
	if !o.Metric.Valid() {
		return fmt.Errorf("mbi: invalid metric %d", o.Metric)
	}
	if o.LeafSize <= 0 {
		return fmt.Errorf("mbi: LeafSize must be positive, got %d", o.LeafSize)
	}
	if o.Tau <= 0 || o.Tau > 1 {
		return fmt.Errorf("mbi: Tau must be in (0, 1], got %g", o.Tau)
	}
	if o.Builder == nil {
		return fmt.Errorf("mbi: Builder must be set")
	}
	if o.Workers < 0 {
		return fmt.Errorf("mbi: Workers must be non-negative, got %d", o.Workers)
	}
	if !o.Compression.Valid() {
		return fmt.Errorf("mbi: invalid compression kind %d", o.Compression)
	}
	if o.CompressMinHeight < 0 {
		return fmt.Errorf("mbi: CompressMinHeight must be non-negative, got %d", o.CompressMinHeight)
	}
	if o.RerankFactor < 0 {
		return fmt.Errorf("mbi: RerankFactor must be non-negative, got %d", o.RerankFactor)
	}
	if o.Spill != nil {
		if err := o.Spill.validate(); err != nil {
			return err
		}
	}
	return nil
}

// Block is one node of the MBI tree: a contiguous global range plus its
// proximity graph. Height 0 is a (sealed) leaf. Codes is the block's SQ8
// payload when Options.Compression asked for one at its level, nil
// otherwise; a compressed block is searched through its codes with an
// exact re-rank, an uncompressed one straight from the store.
type Block struct {
	Lo, Hi int
	Height int
	Graph  *graph.CSR
	Codes  *sq.Codes
	// Spilled marks a block whose graph and codes live in a per-block
	// segment (Options.Spill): Graph and Codes are nil, and queries page
	// the payload back through the index's block cache keyed by the
	// block's creation index. SegBytes is the segment's on-disk size.
	Spilled  bool
	SegBytes int64
}

// Len returns the number of vectors the block covers.
func (b *Block) Len() int { return b.Hi - b.Lo }

// Index is an MBI index. Append is single-writer; Search/Query may be
// called concurrently with each other and with Append. Block graphs are
// built outside the lock, so searches issued during a merge cascade do not
// wait for it: they brute-force the sealed leaves whose blocks have not
// installed yet, exactly like the open leaf.
type Index struct {
	opts Options

	mu sync.RWMutex
	//tknn:guardedBy(mu)
	store *vec.Store
	//tknn:guardedBy(mu)
	times []int64
	// blocks is in creation (= postorder) order.
	//tknn:guardedBy(mu)
	blocks []Block
	// forest holds block ids of complete-subtree roots, heights strictly
	// decreasing left→right.
	//tknn:guardedBy(mu)
	forest []int
	// openLo is the global start of the open (non-full) leaf.
	//tknn:guardedBy(mu)
	openLo int

	// Vectors in [installedHiLocked(), openLo) are sealed but their blocks
	// are not installed yet, so queries brute-force them; pending counts
	// those leaves' sealJobs until processSeal finishes each. With
	// opts.AsyncMerge the jobs travel through this channel to a single
	// worker (nil otherwise: the appender runs them itself).
	jobs    chan sealJob
	pending sync.WaitGroup
	//tknn:guardedBy(mu)
	closed bool

	// entrySalt seeds per-query entry-point randomness for the internal
	// Search path: each query hashes (entrySalt, vector) into a plan-local
	// entropy source, so concurrent queries share no state at all — and the
	// same query always draws the same entries, making results fully
	// deterministic where the old mutex-guarded rand.Rand made them depend
	// on call order.
	entrySalt uint64

	// cache pages spilled block payloads back from segment files; nil
	// unless Options.Spill is set. The pointer is read at plan time under
	// the read lock and swapped only by SetCacheBytes under the write
	// lock; the cache itself is internally synchronized.
	//tknn:guardedBy(mu)
	cache *blockcache.Cache
}

// sealJob is one filled leaf awaiting processSeal.
type sealJob struct {
	lo, hi int
}

// New returns an empty MBI index.
func New(opts Options) (*Index, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	ix := &Index{
		opts:  opts,
		store: vec.NewStore(opts.Dim),
	}
	ix.entrySalt = entrySalt(opts)
	ix.cache = newBlockCache(opts)
	ix.startMergeWorker()
	return ix, nil
}

// entrySalt derives the entry-point salt New and Restore share from the
// seed, distinctly from builds.
func entrySalt(opts Options) uint64 { return uint64(opts.Seed) ^ 0x6d6269 }

// Options returns the index configuration.
func (ix *Index) Options() Options { return ix.opts }

// Len returns the number of indexed vectors.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.store.Len()
}

// Append inserts a timestamped vector (Algorithm 3). Timestamps must be
// non-decreasing — the time-accumulating setting of the paper. When the
// open leaf reaches S_L vectors it is sealed: its graph is built and
// bottom-up block merging creates every ancestor whose subtree just became
// complete (processSeal). Without Options.AsyncMerge that happens before
// Append returns.
func (ix *Index) Append(v []float32, t int64) error {
	ix.mu.Lock()
	jobs, err := ix.appendLocked(v, t, nil)
	ix.mu.Unlock()
	ix.dispatch(jobs)
	return err
}

// AppendBatch inserts vectors in bulk; ts[i] is the timestamp of vs[i].
// Semantically identical to calling Append in a loop, but holds the lock
// once.
func (ix *Index) AppendBatch(vs [][]float32, ts []int64) error {
	if len(vs) != len(ts) {
		return fmt.Errorf("mbi: %d vectors but %d timestamps", len(vs), len(ts))
	}
	var (
		jobs []sealJob
		err  error
	)
	ix.mu.Lock()
	for i, v := range vs {
		if jobs, err = ix.appendLocked(v, ts[i], jobs); err != nil {
			break
		}
	}
	ix.mu.Unlock()
	ix.dispatch(jobs) // even after a validation error: the vectors before it are committed
	return err
}

// appendLocked is the one insert body: validate, append to the open leaf,
// and when that fills, close it — advance openLo and add the leaf's
// sealJob to jobs for the caller to dispatch once mu is released. Until
// the job's blocks install, queries brute-force the sealed range like the
// open leaf. Caller holds mu.
func (ix *Index) appendLocked(v []float32, t int64, jobs []sealJob) ([]sealJob, error) {
	if ix.closed {
		return jobs, fmt.Errorf("mbi: index is closed")
	}
	if n := len(ix.times); n > 0 && t < ix.times[n-1] {
		return jobs, fmt.Errorf("mbi: timestamp %d precedes last timestamp %d", t, ix.times[n-1])
	}
	if _, err := ix.store.Append(v); err != nil {
		return jobs, err
	}
	ix.times = append(ix.times, t)
	if n := ix.store.Len(); n-ix.openLo >= ix.opts.LeafSize {
		jobs = append(jobs, sealJob{lo: ix.openLo, hi: n})
		ix.pending.Add(1)
		ix.openLo = n
	}
	return jobs, nil
}

// dispatch hands sealed leaves to the seal routine, in seal order. It must
// be called without mu: processSeal takes the lock itself, and with
// AsyncMerge a full job queue applies backpressure to the appender, which
// would deadlock against the worker's install step if mu were held.
func (ix *Index) dispatch(jobs []sealJob) {
	if ix.opts.AsyncMerge {
		for _, job := range jobs {
			ix.jobs <- job
		}
		return
	}
	for _, job := range jobs {
		ix.processSeal(job)
		ix.pending.Done()
	}
	if invariant.Enabled {
		// The single writer has built everything it sealed, so the index
		// is quiescent again: no sealed-but-unbuilt gap remains.
		invariant.Check(ix.PendingBuilds() == 0, "mbi: sealed vectors left unbuilt after an inline seal")
	}
}

// processSeal builds the graph for one filled leaf and performs bottom-up
// block merging (Algorithm 3 lines 4-14). It is the only place blocks are
// built and installed, and it runs on one goroutine at a time in seal
// order — the appender's, or the merge worker's with AsyncMerge — holding
// mu only to read the forest and to install, never while building.
func (ix *Index) processSeal(job sealJob) {
	// Determine the full cascade up front: the leaf, then one parent per
	// trailing forest root of matching height. Knowing every range in
	// advance is what lets the graphs build in parallel (§4.2). Only this
	// routine mutates the forest, so the decision still holds at install
	// time.
	ix.mu.RLock()
	cascade := []Block{{Lo: job.lo, Hi: job.hi}}
	for i := len(ix.forest) - 1; i >= 0; i-- {
		root := ix.blocks[ix.forest[i]]
		if root.Height != len(cascade)-1 {
			break
		}
		cascade = append(cascade, Block{Lo: root.Lo, Hi: job.hi, Height: len(cascade)})
	}
	base := len(ix.blocks)
	snap := ix.store.Snapshot()
	ix.mu.RUnlock()

	// Build all graphs (and train any block codecs) from the snapshot,
	// unlocked: appends and queries proceed. Block i (by creation order)
	// gets seed Seed + i for reproducibility. fn never fails and the
	// context is never done, so ForEach has no error to report.
	_ = exec.ForEach(context.Background(), ix.opts.Workers, len(cascade), func(i int) error {
		b := &cascade[i]
		view := vec.View{Store: snap, Lo: b.Lo, Hi: b.Hi, Metric: ix.opts.Metric}
		b.Graph = ix.opts.Builder.Build(view, ix.opts.Seed+int64(base+i))
		if ix.compressHeight(b.Height) {
			b.Codes = sq.Train(snap, b.Lo, b.Hi, sq.TrainConfig{})
		}
		return nil
	})

	// Install in creation order: leaf first, then ancestors by height —
	// exactly the postorder numbering Algorithm 3 prescribes. The
	// cascade's topmost block replaces the forest roots it merged.
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.blocks = append(ix.blocks, cascade...)
	ix.forest = append(ix.forest[:len(ix.forest)-(len(cascade)-1)], len(ix.blocks)-1)
	if invariant.Enabled {
		invariant.NoError(ix.checkInvariantsLocked(), "mbi: after block install")
	}
}

// compressHeight reports whether a sealed block of height h gets an SQ8
// codec under the index options.
func (ix *Index) compressHeight(h int) bool {
	return ix.opts.Compression == sq.SQ8 && h >= ix.opts.CompressMinHeight
}

// blockWindowLocked returns the time window [ts, te) of the global range
// [lo, hi): ts is its earliest timestamp, te the exclusive upper bound
// (§4.3's B_c.t_s / B_c.t_e). te must be large enough that every vector in
// the range satisfies t < te — when the range's last timestamp repeats past
// hi, the timestamp of the first vector after the range would exclude the
// range's own tail, so te is max(times[hi-1]+1, times[hi]). Windows of
// adjacent blocks may then overlap at a duplicated boundary timestamp;
// selection handles the resulting double-coverage by clipping each block's
// scan to the query window. Caller holds mu.
func (ix *Index) blockWindowLocked(lo, hi int) (int64, int64) {
	ts := ix.times[lo]
	te := ix.times[hi-1] + 1
	if hi < len(ix.times) && ix.times[hi] > te {
		te = ix.times[hi]
	}
	return ts, te
}

// selection is one block chosen by top-down block selection; openLeaf
// marks the pseudo-range of vectors without an installed graph (the open
// leaf, plus any sealed leaves whose builds are in flight), which is
// handled by brute force (Algorithm 4 lines 5-6).
type selection struct {
	lo, hi   int
	g        *graph.CSR
	codes    *sq.Codes // non-nil when the block is SQ8-compressed
	openLeaf bool
	// cold marks a spilled block: g and codes are nil and id is the
	// block's creation index, the key the executor's fetch stage uses to
	// page the payload through the block cache.
	cold bool
	id   int
}

// installedHiLocked returns the end of the region covered by installed
// blocks. It trails openLo by whole leaves while their builds are in
// flight and equals it whenever the index is quiescent. Caller holds mu.
func (ix *Index) installedHiLocked() int {
	if len(ix.forest) == 0 {
		return 0
	}
	return ix.blocks[ix.forest[len(ix.forest)-1]].Hi
}

// selectBlocksLocked runs top-down block selection (Algorithm 4,
// BlockSelection) over the forest of complete subtrees plus the
// brute-force tail (open leaf and pending builds), appending to out
// (pass a scratch-backed slice to select without allocating, or nil for a
// fresh one). Caller holds mu.
func (ix *Index) selectBlocksLocked(ts, te int64, tau float64, out []selection) []selection {
	for _, root := range ix.forest {
		ix.selectInLocked(root, ts, te, tau, &out)
	}
	// Everything past the installed blocks behaves as a non-full leaf:
	// included whenever it overlaps the window (case 2 applies to every
	// leaf), answered exactly by brute force.
	if tail := ix.installedHiLocked(); tail < ix.store.Len() {
		bts, bte := ix.blockWindowLocked(tail, ix.store.Len())
		if overlaps(bts, bte, ts, te) {
			out = append(out, selection{lo: tail, hi: ix.store.Len(), openLeaf: true})
		}
	}
	return out
}

func overlaps(bts, bte, ts, te int64) bool {
	if bte > bts {
		return min64(bte, te) > max64(bts, ts)
	}
	// Degenerate block window (all timestamps equal): it overlaps iff the
	// query window contains that single timestamp.
	return ts <= bts && bts < te
}

// selectInLocked implements the three cases of Algorithm 4 for the subtree
// rooted at block bi.
func (ix *Index) selectInLocked(bi int, ts, te int64, tau float64, out *[]selection) {
	b := ix.blocks[bi]
	bts, bte := ix.blockWindowLocked(b.Lo, b.Hi)
	if !overlaps(bts, bte, ts, te) {
		return // case 1: r_o = 0
	}
	ro := 1.0
	if bte > bts {
		ro = float64(min64(bte, te)-max64(bts, ts)) / float64(bte-bts)
	}
	if b.Height == 0 || ro > tau {
		// Case 2: leaves always count; internal blocks count when the
		// window covers more than τ of them.
		*out = append(*out, selection{lo: b.Lo, hi: b.Hi, g: b.Graph, codes: b.Codes, cold: b.Spilled, id: bi})
		return
	}
	// Case 3: recurse into the children. Postorder numbering puts the
	// right child at bi-1 and the left child at bi-2^h.
	left := bi - (1 << uint(b.Height))
	right := bi - 1
	ix.selectInLocked(left, ts, te, tau, out)
	ix.selectInLocked(right, ts, te, tau, out)
}

// Request is one TkNN query q = (w, k, ts, te) plus its per-query
// parameters. The zero value of every optional field means the index's
// configured default, so Request{Q: q, K: k, Ts: ts, Te: te} is the plain
// query.
type Request struct {
	// Q is the query vector, K the result count, [Ts, Te) the time window.
	Q      []float32
	K      int
	Ts, Te int64
	// Tau is the block-selection threshold τ ∈ (0, 1]; zero uses
	// Options.Tau. τ is a pure query-time parameter — no index state
	// depends on it (the Figure 9 sweep varies it per query).
	Tau float64
	// Params are the Algorithm 2 parameters (M_C, ε); the zero value uses
	// Options.Search.
	Params graph.SearchParams
	// Rng, when non-nil, is the source of entry-point randomness, consumed
	// at plan time in selection order (reproducible experiments); it must
	// not be shared across goroutines. Nil draws entries from a plan-local
	// entropy source seeded by hashing the query vector (see entrySalt).
	// Either way the draws happen before execution, so results are
	// identical for every worker count.
	Rng *rand.Rand
	// Explain, when non-nil, receives the executed plan — the static
	// Explain fields annotated with per-block timings, skip flags, stage
	// durations, and the Partial flag: EXPLAIN ANALYZE to Explain's
	// EXPLAIN. Its Blocks backing is reused.
	Explain *Plan
}

// Search answers a TkNN query with every per-query parameter at the
// index's default, returning up to k results ordered by ascending
// distance. IDs are global insertion indices. Fewer than k results are
// returned when the window holds fewer than k vectors. It is Query on a
// pooled scratch with the results copied out.
func (ix *Index) Search(q []float32, k int, ts, te int64) []theap.Neighbor {
	scr := GetScratch()
	defer PutScratch(scr)
	res, _ := ix.Query(context.Background(), scr, Request{Q: q, K: k, Ts: ts, Te: te})
	return slices.Clone(res) // keeps nil nil
}

// Query is the one search body: it plans the query (block selection plus
// per-block entry points) and hands the plan to the shared executor.
// Subtasks of the plan never start after ctx is done, and on cancellation
// or deadline expiry the merged results of the subtasks that did run are
// returned with Outcome.Partial set instead of an error. The outcome also
// carries the stage timings.
//
// Block selection, entry seeds, subtask heaps, and merge storage all come
// from the caller-owned scr; the returned neighbors and Outcome.Subtasks
// alias it and are valid until its next query. A warmed-up sequential
// query performs zero heap allocations.
//
//tknn:hotpath
func (ix *Index) Query(ctx context.Context, scr *Scratch, req Request) ([]theap.Neighbor, exec.Outcome) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	n := ix.store.Len()
	tau := req.Tau
	if tau == 0 {
		tau = ix.opts.Tau
	}
	if req.Explain != nil {
		*req.Explain = Plan{Tau: tau, WindowStart: req.Ts, WindowEnd: req.Te, Blocks: req.Explain.Blocks[:0]}
	}
	// No query can return more than n neighbors, and the heaps are sized
	// by k: an absurd k from the wire must not size an allocation.
	k := min(req.K, n)
	if k <= 0 || req.Ts >= req.Te {
		return nil, exec.Outcome{}
	}
	p := req.Params
	if p == (graph.SearchParams{}) {
		p = ix.opts.Search
	}
	plan, sel, selDur := ix.planTimedLocked(scr, req.Q, k, req.Ts, req.Te, tau, p, req.Rng)
	res, out := exec.Run(ctx, plan, &scr.ex)
	out.Select = selDur
	if req.Explain != nil {
		ix.explainExecutedLocked(req.Explain, sel, out)
	}
	return res, out
}

// SelectedBlockCount returns how many blocks top-down selection would
// search for the window [ts, te) with threshold tau — exposed for the
// Lemma 4.1 tests and explain-style diagnostics.
func (ix *Index) SelectedBlockCount(ts, te int64, tau float64) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.selectBlocksLocked(ts, te, tau, nil))
}

// SelectedRanges returns the global [lo, hi) ranges selection would search,
// in timestamp order; used by tests to verify the cover property.
func (ix *Index) SelectedRanges(ts, te int64, tau float64) [][2]int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	sel := ix.selectBlocksLocked(ts, te, tau, nil)
	out := make([][2]int, len(sel))
	for i, s := range sel {
		out[i] = [2]int{s.lo, s.hi}
	}
	return out
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
