// Package bsbf implements the paper's first baseline, Binary Search and
// Brute-Force (Algorithm 1): keep the timestamped vectors sorted by
// timestamp, binary-search the query window to a contiguous range, and
// brute-force scan that range with a bounded max-heap.
//
// BSBF is exact within the window, O(log n + m log k) per query for a
// window of m vectors — excellent for short windows and hopeless for long
// ones, which is precisely the asymmetry MBI exploits. The same scan also
// serves as MBI's handler for the open (non-full) leaf block and as the
// exact ground-truth oracle of the dataset package.
package bsbf

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/exec"
	"repro/internal/sq"
	"repro/internal/theap"
	"repro/internal/vec"
)

// Index is a timestamp-sorted database supporting exact TkNN queries.
// Appends must be in non-decreasing timestamp order (the time-accumulating
// setting of the paper); Append is single-writer, Search may run
// concurrently with other Searches.
type Index struct {
	store  *vec.Store
	times  []int64
	metric vec.Metric

	// Optional SQ8 compression (see compress.go): cfg selects it, codes[c]
	// quantizes chunk c's rows, sealed is the global row count covered by
	// codes — always a multiple of cfg.ChunkSize.
	cfg    Config
	codes  []*sq.Codes
	sealed int
}

// New returns an empty BSBF index over dim-dimensional vectors.
func New(dim int, metric vec.Metric) *Index {
	return &Index{store: vec.NewStore(dim), metric: metric}
}

// FromData adopts an existing store and timestamp slice. times must be
// sorted ascending and len(times) must equal store.Len().
func FromData(store *vec.Store, times []int64, metric vec.Metric) (*Index, error) {
	if store.Len() != len(times) {
		return nil, fmt.Errorf("bsbf: %d vectors but %d timestamps", store.Len(), len(times))
	}
	if !sort.SliceIsSorted(times, func(i, j int) bool { return times[i] < times[j] }) {
		return nil, fmt.Errorf("bsbf: timestamps not sorted")
	}
	return &Index{store: store, times: times, metric: metric}, nil
}

// Len returns the number of indexed vectors.
func (ix *Index) Len() int { return ix.store.Len() }

// TimesRef exposes the timestamp slice (read-only, aliases index memory).
func (ix *Index) TimesRef() []int64 { return ix.times }

// StoreRef exposes the backing store (read-only).
func (ix *Index) StoreRef() *vec.Store { return ix.store }

// Metric returns the index's distance metric.
func (ix *Index) Metric() vec.Metric { return ix.metric }

// Append adds a timestamped vector. The timestamp must be >= the last
// appended timestamp.
func (ix *Index) Append(v []float32, t int64) error {
	if n := len(ix.times); n > 0 && t < ix.times[n-1] {
		return fmt.Errorf("bsbf: timestamp %d precedes last timestamp %d", t, ix.times[n-1])
	}
	if _, err := ix.store.Append(v); err != nil {
		return err
	}
	ix.times = append(ix.times, t)
	ix.sealChunks()
	return nil
}

// Window returns the index range [lo, hi) of vectors with timestamps in
// [ts, te) — the BinarySearch step of Algorithm 1.
func (ix *Index) Window(ts, te int64) (lo, hi int) {
	return WindowOf(ix.times, ts, te)
}

// WindowOf binary-searches a sorted timestamp slice for the half-open
// window [ts, te), returning the corresponding index range [lo, hi). The
// search is hand-rolled rather than sort.Search so the hot path carries no
// closures.
//
//tknn:hotpath
func WindowOf(times []int64, ts, te int64) (lo, hi int) {
	return lowerBound(times, ts), lowerBound(times, te)
}

// lowerBound returns the index of the first timestamp >= t.
func lowerBound(times []int64, t int64) int {
	lo, hi := 0, len(times)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if times[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Search returns the exact k nearest neighbors to q among vectors with
// timestamps in [ts, te), ordered by ascending distance. Returned IDs are
// global insertion indices. Fewer than k results are returned when the
// window holds fewer than k vectors. It is Query on a pooled scratch with
// the results copied out.
func (ix *Index) Search(q []float32, k int, ts, te int64) []theap.Neighbor {
	return exec.Pooled(func(scr *exec.Scratch) []theap.Neighbor {
		res, _ := ix.Query(context.Background(), scr, q, k, ts, te)
		return res
	})
}

// Query is the one search body: it translates the query into the shared
// executor's shape — the binary-searched window split into fixed-size scan
// chunks (compressed where sealed), so a long window can be scanned by
// several of exec.Run's workers and merged; chunks cover disjoint id ranges,
// so the merged result is identical at every GOMAXPROCS — and runs it.
// Subtasks never start after ctx is done, and expiry yields partial
// results tagged in the outcome.
//
// The plan, heaps, and merge storage come from the caller-owned scr; the
// results and Outcome.Subtasks alias it and are valid until its next
// query. A warmed-up query at GOMAXPROCS 1 performs zero heap allocations.
//
//tknn:hotpath
func (ix *Index) Query(ctx context.Context, scr *exec.Scratch, q []float32, k int, ts, te int64) ([]theap.Neighbor, exec.Outcome) {
	planStart := time.Now()
	// No query can return more than Len() neighbors, and the heaps are
	// sized by k: an absurd k from the wire must not size an allocation.
	k = min(k, ix.store.Len())
	plan := exec.Plan{K: k, Query: q, Subtasks: scr.Subtasks[:0]}
	if k > 0 && ts < te {
		lo, hi := ix.Window(ts, te)
		if ix.sealed > 0 {
			ix.compressedPlanInto(&plan, k, lo, hi)
		} else {
			scanPlanInto(&plan, ix.store, ix.metric, ix.times, lo, hi)
		}
	}
	scr.Subtasks = plan.Subtasks[:0]
	planDur := time.Since(planStart)
	res, out := exec.Run(ctx, plan, scr)
	out.Select = planDur
	return res, out
}

// ScanChunk is the row count of one brute-scan subtask. Large enough that
// per-subtask overhead vanishes against ~thousands of distance
// evaluations, small enough that a window of a few chunks already
// parallelizes.
const ScanChunk = 8192

// scanPlanInto appends the window's scan chunks to plan as data-only
// subtasks (the executor's built-in scan kernel runs them).
func scanPlanInto(plan *exec.Plan, store *vec.Store, metric vec.Metric, times []int64, lo, hi int) {
	for start := lo; start < hi; start += ScanChunk {
		end := start + ScanChunk
		if end > hi {
			end = hi
		}
		st := exec.Subtask{Kind: exec.BruteScan, Lo: start, Hi: end,
			Store: store, Metric: metric, ScanLo: start, ScanHi: end}
		if len(times) >= end {
			st.WindowStart, st.WindowEnd = times[start], times[end-1]+1
		}
		plan.Subtasks = append(plan.Subtasks, st)
	}
}

// TailScanInto appends one brute-scan subtask over the in-window run of
// the tail [tailLo, len(times)) — how SF and IVF cover the vectors appended
// since their last build. The tail is in timestamp order, so its window is
// one contiguous run; nothing is appended when that run is empty.
func TailScanInto(plan *exec.Plan, store *vec.Store, metric vec.Metric, times []int64, tailLo int, ts, te int64) {
	lo, hi := WindowOf(times[tailLo:], ts, te)
	if lo, hi = tailLo+lo, tailLo+hi; lo < hi {
		plan.Subtasks = append(plan.Subtasks, exec.Subtask{
			Kind: exec.BruteScan, Lo: lo, Hi: hi,
			WindowStart: times[lo], WindowEnd: times[hi-1] + 1,
			Store: store, Metric: metric, ScanLo: lo, ScanHi: hi,
		})
	}
}

// ScanRange brute-force scans global rows [lo, hi) of store, returning the
// k nearest to q with global IDs. It is the BruteForce step of Algorithm 1,
// shared with MBI's open-leaf handling and the dataset oracle.
func ScanRange(store *vec.Store, metric vec.Metric, q []float32, k int, lo, hi int) []theap.Neighbor {
	return ScanRangeContext(context.Background(), store, metric, q, k, lo, hi)
}

// ScanRangeContext is ScanRange with cancellation, delegating to the
// executor's scan kernel: when the context fires mid-scan it returns the
// best neighbors found in the prefix scanned so far — a truncated answer,
// never an error. The executor tags the outcome Partial whenever the
// context fired mid-plan, so truncation is always reported.
func ScanRangeContext(ctx context.Context, store *vec.Store, metric vec.Metric, q []float32, k int, lo, hi int) []theap.Neighbor {
	if k <= 0 || lo >= hi {
		return nil
	}
	top := theap.NewTopK(k)
	exec.ScanInto(ctx, top, store, metric, q, lo, hi)
	return top.Items()
}
