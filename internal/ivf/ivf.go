// Package ivf implements an inverted-file (IVF-Flat) index with native
// time-window support — the quantization-family comparator for this
// repository's graph-based methods (the paper's related work covers both
// families, §2.1).
//
// Vectors are coarse-quantized to their nearest k-means centroid; each
// centroid owns an inverted list of member ids. Because ids are assigned
// in timestamp order, every inverted list is itself sorted by time, so a
// TkNN query (1) ranks centroids by distance to the query, (2) probes the
// closest nprobe lists, and (3) within each list binary-searches the time
// window and scans only in-window members exactly. Unlike graph
// search-and-filter, the time restriction makes IVF *faster*, not slower
// — but its recall ceiling is set by how many lists are probed.
package ivf

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/bsbf"
	"repro/internal/exec"
	"repro/internal/kmeans"
	"repro/internal/theap"
	"repro/internal/vec"
)

// Config holds IVF build parameters.
type Config struct {
	// Lists is the number of inverted lists (k-means centroids). A
	// common rule of thumb is ~sqrt(n). Zero lets Build pick sqrt(n).
	Lists int
	// KMeansIters caps the Lloyd iterations. Zero means the kmeans
	// default.
	KMeansIters int
}

// Index is a built IVF-Flat index over a timestamped database.
// Like the SF baseline it is built in one shot over appended data;
// vectors appended after the last Build are covered by a brute-force
// tail scan.
type Index struct {
	store  *vec.Store
	times  []int64
	metric vec.Metric
	cfg    Config

	centroids *vec.Store
	lists     [][]int32 // member ids, ascending (= timestamp order)
	built     int
}

// New returns an empty IVF index.
func New(dim int, metric vec.Metric, cfg Config) *Index {
	return &Index{store: vec.NewStore(dim), metric: metric, cfg: cfg}
}

// Len returns the number of appended vectors.
func (ix *Index) Len() int { return ix.store.Len() }

// Built returns how many vectors the current lists cover.
func (ix *Index) Built() int { return ix.built }

// Metric returns the index metric.
func (ix *Index) Metric() vec.Metric { return ix.metric }

// Times exposes the timestamp slice. Read-only.
func (ix *Index) Times() []int64 { return ix.times }

// Lists returns the number of inverted lists (0 before the first Build).
func (ix *Index) Lists() int {
	if ix.centroids == nil {
		return 0
	}
	return ix.centroids.Len()
}

// Append adds a timestamped vector. Timestamps must be non-decreasing.
func (ix *Index) Append(v []float32, t int64) error {
	if n := len(ix.times); n > 0 && t < ix.times[n-1] {
		return fmt.Errorf("ivf: timestamp %d precedes last timestamp %d", t, ix.times[n-1])
	}
	if _, err := ix.store.Append(v); err != nil {
		return err
	}
	ix.times = append(ix.times, t)
	return nil
}

// Build (re)clusters all appended vectors into inverted lists.
func (ix *Index) Build(seed int64) error {
	n := ix.store.Len()
	if n == 0 {
		return fmt.Errorf("ivf: nothing to build")
	}
	k := ix.cfg.Lists
	if k == 0 {
		k = intSqrt(n)
	}
	if k > n {
		k = n
	}
	view := vec.View{Store: ix.store, Lo: 0, Hi: n, Metric: ix.metric}
	res, err := kmeans.Run(view, kmeans.Config{K: k, MaxIter: ix.cfg.KMeansIters}, seed)
	if err != nil {
		return err
	}
	lists := make([][]int32, res.Centroids.Len())
	for c, size := range res.Sizes {
		lists[c] = make([]int32, 0, size)
	}
	for i, c := range res.Assign {
		lists[c] = append(lists[c], int32(i)) // ascending ids = time order
	}
	ix.centroids = res.Centroids
	ix.lists = lists
	ix.built = n
	return nil
}

// Query is the one search body: it translates the query into the shared
// executor's shape and runs it. Centroid ranking and per-list window
// binary searches happen at plan time (the select stage); each probed
// list's in-window run then scans through the executor's id-list kernel
// (the inverted list's segment rides along as Subtask.List — no copying),
// and the unbuilt tail scans as a contiguous range. Lists partition the
// built ids and the tail is disjoint from them, so the merged result is
// identical at every GOMAXPROCS. Subtasks never start after ctx is
// done, and expiry yields partial results tagged in the outcome.
//
// Every buffer (centroid ranking and probe storage included) comes from
// the caller-owned scr; the results and Outcome.Subtasks alias it and are
// valid until its next query.
func (ix *Index) Query(ctx context.Context, scr *exec.Scratch, q []float32, k int, ts, te int64, nprobe int) ([]theap.Neighbor, exec.Outcome) {
	planStart := time.Now()
	k = min(k, ix.store.Len()) // heaps are sized by k; see bsbf.Index.Query
	plan := exec.Plan{K: k, Query: q, Subtasks: scr.Subtasks[:0]}
	scr.Entries = scr.Entries[:0]
	if k > 0 && ts < te {
		if ix.centroids != nil && ix.built > 0 {
			probes := ix.rankCentroidsInto(scr, q, nprobe)
			for _, c := range probes {
				list := ix.lists[c]
				lo := sort.Search(len(list), func(i int) bool { return ix.times[list[i]] >= ts })
				hi := sort.Search(len(list), func(i int) bool { return ix.times[list[i]] >= te })
				if lo >= hi {
					continue
				}
				seg := list[lo:hi]
				plan.Subtasks = append(plan.Subtasks, exec.Subtask{
					Kind: exec.BruteScan,
					Lo:   int(seg[0]), Hi: int(seg[len(seg)-1]) + 1,
					WindowStart: ix.times[seg[0]], WindowEnd: ix.times[seg[len(seg)-1]] + 1,
					Store: ix.store, Metric: ix.metric, List: seg,
				})
			}
		}
		// Unbuilt vectors; ids past built are in timestamp order.
		bsbf.TailScanInto(&plan, ix.store, ix.metric, ix.times, ix.built, ts, te)
	}
	scr.Subtasks = plan.Subtasks[:0]
	planDur := time.Since(planStart)
	res, out := exec.Run(ctx, plan, scr)
	out.Select = planDur
	return res, out
}

// rankCentroidsInto returns the indices of the nprobe centroids nearest to
// q, ranked through the scratch's plan-time heap and carved from its
// entry arena so steady-state planning allocates nothing.
func (ix *Index) rankCentroidsInto(scr *exec.Scratch, q []float32, nprobe int) []int32 {
	nc := ix.centroids.Len()
	if nprobe <= 0 {
		nprobe = 1
	}
	if nprobe > nc {
		nprobe = nc
	}
	scr.PlanTop.ResetK(nprobe)
	for c := 0; c < nc; c++ {
		scr.PlanTop.Push(theap.Neighbor{ID: int32(c), Dist: vec.Distance(ix.metric, q, ix.centroids.At(c))})
	}
	ranked := scr.PlanTop.Items()
	start := len(scr.Entries)
	for _, r := range ranked {
		scr.Entries = append(scr.Entries, r.ID)
	}
	return scr.Entries[start:len(scr.Entries):len(scr.Entries)]
}

// Stats describes the list-size distribution, for diagnostics and tests.
type Stats struct {
	Lists    int
	MinList  int
	MaxList  int
	MeanList float64
}

// Stats summarizes the inverted lists.
func (ix *Index) Stats() Stats {
	s := Stats{Lists: len(ix.lists)}
	if s.Lists == 0 {
		return s
	}
	s.MinList = len(ix.lists[0])
	for _, l := range ix.lists {
		if len(l) < s.MinList {
			s.MinList = len(l)
		}
		if len(l) > s.MaxList {
			s.MaxList = len(l)
		}
		s.MeanList += float64(len(l))
	}
	s.MeanList /= float64(s.Lists)
	return s
}

func intSqrt(n int) int {
	x := 1
	for x*x < n {
		x++
	}
	return x
}
