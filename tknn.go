// Package tknn is the public API of this repository: time-restricted
// k-nearest-neighbor (TkNN) search over high-dimensional vectors that
// accumulate over time, implementing the EDBT 2024 paper "Efficient
// Proximity Search in Time-accumulating High-dimensional Data using
// Multi-level Block Indexing".
//
// A TkNN query asks for the k vectors nearest to a query vector among
// those whose timestamps fall in a half-open window [Start, End) —
// "which 10 photos taken between January 2010 and May 2011 are most
// similar to this one?". Three index types answer such queries:
//
//   - MBI — the paper's Multi-level Block Index: fast for every window
//     length, supports efficient incremental insertion. Use this one.
//   - BSBF — binary search + brute force: exact, fast for short windows,
//     linear in the window length. The paper's first baseline.
//   - SF — a single proximity graph with search-and-filtering: fast for
//     long windows, degrades sharply on short ones. The second baseline.
//
// All three satisfy the Index interface. Vectors must be appended in
// non-decreasing timestamp order (the time-accumulating setting).
//
// Quick start:
//
//	ix, err := tknn.NewMBI(tknn.MBIOptions{Dim: 128, Metric: tknn.Angular, LeafSize: 1000})
//	...
//	err = ix.Add(embedding, photo.UnixTime)
//	...
//	res, err := ix.Search(tknn.Query{Vector: probe, K: 10, Start: jan2010, End: may2011})
package tknn

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/theap"
	"repro/internal/vec"
)

// Metric selects the distance function of an index.
type Metric int

const (
	// Euclidean compares vectors by squared L2 distance.
	Euclidean Metric = iota
	// Angular compares vectors by cosine distance (1 - cosine similarity).
	Angular
)

// String returns the metric's name.
func (m Metric) String() string { return m.internal().String() }

func (m Metric) internal() vec.Metric {
	if m == Angular {
		return vec.Angular
	}
	return vec.Euclidean
}

func (m Metric) valid() bool { return m == Euclidean || m == Angular }

// Query is one TkNN request: the K vectors nearest to Vector among those
// with timestamps in the half-open window [Start, End).
type Query struct {
	// Vector is the query point; its length must match the index
	// dimension.
	Vector []float32
	// K is the number of neighbors requested. Fewer results are returned
	// if the window holds fewer than K vectors.
	K int
	// Start and End bound the window: Start <= t < End.
	Start, End int64
}

// Result is one query answer.
type Result struct {
	// ID is the insertion index of the vector (0 for the first Add).
	ID int
	// Time is the vector's timestamp.
	Time int64
	// Dist is the metric distance to the query vector: squared L2 for
	// Euclidean indexes, cosine distance for Angular ones.
	Dist float32
}

// SearchInfo describes how one query executed through the shared
// execution layer: per-stage wall-clock durations and the partial-result
// flag. All SearchContext methods share these semantics.
type SearchInfo struct {
	// Partial reports that the context was done before the query plan
	// finished executing, so the results cover only the work that ran.
	// Context-free Search calls never set it.
	Partial bool
	// Select is the planning stage: block selection (MBI), window binary
	// search (BSBF), centroid ranking (IVF), entry drawing (SF).
	Select time.Duration
	// Search is the per-block subtask execution stage.
	Search time.Duration
	// Merge is the final cross-block combine.
	Merge time.Duration
	// Rerank is the exact re-scoring of compressed-block candidates
	// against the float32 store. It is contained in Search (re-ranking
	// happens inside each compressed subtask) and is zero on
	// uncompressed indexes.
	Rerank time.Duration
	// Fetch is the summed time cold (spilled) blocks spent paging their
	// payloads through the block cache. It overlaps the Search wall
	// clock (fetches run concurrently with hot-block kernels) and is
	// zero on an all-RAM index or an all-hot plan.
	Fetch time.Duration
}

func infoFrom(out exec.Outcome) SearchInfo {
	return SearchInfo{Partial: out.Partial, Select: out.Select, Search: out.Search, Merge: out.Merge, Rerank: out.Rerank, Fetch: out.Fetch}
}

// searchBatchCtx fans queries across workers with first-error-aborts
// batch semantics, shared by every SearchBatchContext.
func searchBatchCtx(ctx context.Context, queries []Query, workers int, search func(context.Context, Query) ([]Result, error)) ([][]Result, error) {
	out := make([][]Result, len(queries))
	err := exec.ForEach(ctx, workers, len(queries), func(i int) error {
		res, err := search(ctx, queries[i])
		if err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
		out[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Index is the interface all three index types satisfy.
type Index interface {
	// Add appends a timestamped vector. Timestamps must be
	// non-decreasing. Add must not be called concurrently with itself;
	// Search may run concurrently with other Searches.
	Add(v []float32, t int64) error
	// Search answers a TkNN query, returning up to q.K results in
	// ascending distance order.
	Search(q Query) ([]Result, error)
	// Len returns the number of indexed vectors.
	Len() int
}

// Common errors.
var (
	// ErrDimension is returned when a vector's length does not match the
	// index dimension.
	ErrDimension = errors.New("tknn: vector dimension mismatch")
	// ErrNonFinite is returned when Add receives a vector holding NaN or
	// ±Inf: one such coordinate poisons every distance computed against
	// it. Nothing is stored.
	ErrNonFinite = errors.New("tknn: vector has a non-finite coordinate")
	// ErrBadQuery is returned when a query is malformed (K <= 0, empty
	// window, dimension mismatch, or a non-finite coordinate).
	ErrBadQuery = errors.New("tknn: bad query")
	// ErrTimestampOrder is returned when Add receives a timestamp earlier
	// than the last one.
	ErrTimestampOrder = errors.New("tknn: timestamps must be non-decreasing")
)

// addError names an inner index's refusal of a right-sized vector: the
// store found a non-finite coordinate while taking the vector's norm, or
// the timestamp ran backwards.
func addError(err error) error {
	if errors.Is(err, vec.ErrNonFinite) {
		return fmt.Errorf("%w: %v", ErrNonFinite, err)
	}
	return fmt.Errorf("%w: %v", ErrTimestampOrder, err)
}

// validateQuery checks q against an index of the given dimension.
func validateQuery(q Query, dim int) error {
	if len(q.Vector) != dim {
		return fmt.Errorf("%w: query vector has %d dimensions, index has %d", ErrBadQuery, len(q.Vector), dim)
	}
	if err := vec.CheckFinite(q.Vector); err != nil {
		return fmt.Errorf("%w: query vector: %v", ErrBadQuery, err)
	}
	if q.K <= 0 {
		return fmt.Errorf("%w: K = %d", ErrBadQuery, q.K)
	}
	if q.Start >= q.End {
		return fmt.Errorf("%w: empty window [%d, %d)", ErrBadQuery, q.Start, q.End)
	}
	return nil
}

// toResults converts internal neighbors (global ids) to public results.
// Every facade's SearchDetailed has one shape around it: validate the
// query, borrow a core.Scratch, call the inner index's Query body in its
// own body (under the facade's read lock, where it has one — no closure,
// so tknnlint's lock analysis sees the call), and convert the
// scratch-aliased neighbors here, against times read after the query,
// before the scratch goes back to its pool.
func toResults(ns []theap.Neighbor, times []int64) []Result {
	out := make([]Result, len(ns))
	for i, n := range ns {
		out[i] = Result{ID: int(n.ID), Time: times[n.ID], Dist: n.Dist}
	}
	return out
}
