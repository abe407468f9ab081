// Package sf implements the paper's second baseline, Search and Filtering
// (§3.2.2): one proximity graph over the whole database, traversed with
// Algorithm 2, filtering results to the query's time window and continuing
// until k in-window vectors are found. SF is strong for long windows (it
// degenerates to plain graph kNN) and weak for short ones, where almost
// every visited vector is filtered out.
package sf

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bsbf"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/theap"
	"repro/internal/vec"
)

// Index is a whole-database proximity graph with time-filtered search.
//
// Append is single-writer. BuildGraph (re)indexes everything appended so
// far; vectors appended after the last BuildGraph are covered by a
// brute-force tail scan so that results stay complete between rebuilds.
// Search is safe for concurrent use once a graph is built.
type Index struct {
	store   *vec.Store
	times   []int64
	metric  vec.Metric
	builder graph.Builder

	g     *graph.CSR
	built int // vectors covered by g
}

// New returns an empty SF index. builder constructs the proximity graph
// (NNDescent in the paper's setup).
func New(dim int, metric vec.Metric, builder graph.Builder) *Index {
	return &Index{store: vec.NewStore(dim), metric: metric, builder: builder}
}

// Len returns the number of appended vectors.
func (ix *Index) Len() int { return ix.store.Len() }

// Built returns how many vectors the current graph covers.
func (ix *Index) Built() int { return ix.built }

// Metric returns the index's distance metric.
func (ix *Index) Metric() vec.Metric { return ix.metric }

// Graph exposes the current proximity graph (nil before the first
// BuildGraph); used by the persistence layer and tests.
func (ix *Index) Graph() *graph.CSR { return ix.g }

// Store exposes the backing vector store for persistence.
func (ix *Index) Store() *vec.Store { return ix.store }

// Times exposes the timestamp slice for persistence. Read-only.
func (ix *Index) Times() []int64 { return ix.times }

// Append adds a timestamped vector without touching the graph. The
// timestamp must be >= the last appended timestamp.
func (ix *Index) Append(v []float32, t int64) error {
	if n := len(ix.times); n > 0 && t < ix.times[n-1] {
		return fmt.Errorf("sf: timestamp %d precedes last timestamp %d", t, ix.times[n-1])
	}
	if _, err := ix.store.Append(v); err != nil {
		return err
	}
	ix.times = append(ix.times, t)
	return nil
}

// BuildGraph (re)builds the proximity graph over all appended vectors.
// seed drives the builder's randomization for reproducibility.
func (ix *Index) BuildGraph(seed int64) {
	n := ix.store.Len()
	view := vec.View{Store: ix.store, Lo: 0, Hi: n, Metric: ix.metric}
	ix.g = ix.builder.Build(view, seed)
	ix.built = n
}

// Restore installs a previously serialized graph covering built vectors.
func (ix *Index) Restore(g *graph.CSR, built int) error {
	if built > ix.store.Len() {
		return fmt.Errorf("sf: restored graph covers %d vectors but store has %d", built, ix.store.Len())
	}
	if g.NumNodes() != built {
		return fmt.Errorf("sf: restored graph has %d nodes, want %d", g.NumNodes(), built)
	}
	ix.g = g
	ix.built = built
	return nil
}

// Search returns approximately the k nearest neighbors to q among vectors
// with timestamps in [ts, te), ordered by ascending distance, with global
// insertion indices as IDs. p tunes the Algorithm 2 traversal; rng picks
// the random entry vertex (line 1) and must not be shared across
// goroutines. It is Query on a pooled scratch with the results copied
// out.
func (ix *Index) Search(q []float32, k int, ts, te int64, p graph.SearchParams, rng *rand.Rand) []theap.Neighbor {
	var entry int32
	if ix.g != nil && ix.built > 0 {
		entry = graph.RandomEntry(rng, ix.built)
	}
	return exec.Pooled(func(scr *exec.Scratch) []theap.Neighbor {
		res, _ := ix.Query(context.Background(), scr, q, k, ts, te, p, entry)
		return res
	})
}

// Query is the one search body: it translates the query into the shared
// executor's shape — one graph subtask over the built prefix (when a graph
// exists), traversed with the query's time window as its admission filter,
// plus one brute-scan subtask over the unbuilt tail's in-window run; the
// two cover disjoint global-id ranges — and runs it. The caller
// supplies the graph entry vertex (drawn at plan time, so results are
// identical at every GOMAXPROCS); subtasks never start after ctx is
// done and expiry yields partial results tagged in the outcome.
//
// Every buffer comes from the caller-owned scr; the results and
// Outcome.Subtasks alias it and are valid until its next query.
func (ix *Index) Query(ctx context.Context, scr *exec.Scratch, q []float32, k int, ts, te int64, p graph.SearchParams, entry int32) ([]theap.Neighbor, exec.Outcome) {
	planStart := time.Now()
	k = min(k, ix.store.Len()) // heaps are sized by k; see bsbf.Index.Query
	plan := exec.Plan{K: k, Query: q, Subtasks: scr.Subtasks[:0]}
	scr.Entries = append(scr.Entries[:0], entry)
	if k > 0 && ts < te {
		if ix.g != nil && ix.built > 0 {
			plan.Subtasks = append(plan.Subtasks, exec.Subtask{
				Kind: exec.GraphSearch, Lo: 0, Hi: ix.built,
				WindowStart: ix.times[0], WindowEnd: ix.times[ix.built-1] + 1,
				Store: ix.store, Metric: ix.metric,
				Graph: ix.g, Params: p,
				Entries: scr.Entries[:1:1],
				Times:   ix.times[:ix.built], Ts: ts, Te: te,
			})
		}
		// Vectors the graph does not cover yet.
		bsbf.TailScanInto(&plan, ix.store, ix.metric, ix.times, ix.built, ts, te)
	}
	scr.Subtasks = plan.Subtasks[:0]
	planDur := time.Since(planStart)
	res, out := exec.Run(ctx, plan, scr)
	out.Select = planDur
	return res, out
}
