package tknn

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/ivf"
)

// IVFOptions configures an inverted-file (IVF-Flat) index.
type IVFOptions struct {
	// Dim is the vector dimension. Required.
	Dim int
	// Metric is the distance function. Default Euclidean.
	Metric Metric
	// Lists is the number of inverted lists (k-means centroids). Zero
	// picks sqrt(n) at Build time.
	Lists int
	// Probes is the default number of lists a Search scans. More probes
	// raise recall and cost. Default 8.
	Probes int
	// RebuildEvery triggers an automatic recluster once that many vectors
	// have been added since the last build; zero disables (call Build).
	RebuildEvery int
	// Seed drives k-means initialization. Default 1.
	Seed int64
}

// ApplyDefaults fills unset fields and validates.
func (o *IVFOptions) ApplyDefaults() error {
	if o.Dim <= 0 {
		return fmt.Errorf("tknn: IVFOptions.Dim must be positive, got %d", o.Dim)
	}
	if !o.Metric.valid() {
		return fmt.Errorf("tknn: invalid metric %d", o.Metric)
	}
	if o.Lists < 0 {
		return fmt.Errorf("tknn: negative Lists")
	}
	if o.Probes == 0 {
		o.Probes = 8
	}
	if o.Probes < 0 {
		return fmt.Errorf("tknn: negative Probes")
	}
	if o.RebuildEvery < 0 {
		return fmt.Errorf("tknn: negative RebuildEvery")
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return nil
}

// IVF is an inverted-file index with native time-window support: every
// inverted list is kept in timestamp order, so the window restriction is
// a binary search per probed list rather than a post-filter. It satisfies
// Index. IVF answers exactly within the probed lists; recall across the
// whole window is governed by Probes (all lists probed = exact).
//
// This is the quantization-family alternative to the paper's graph-based
// methods: a different trade-off (no graph build, cheap short windows,
// recall capped by probes) useful as a comparator and for workloads where
// its profile fits.
type IVF struct {
	opts       IVFOptions
	inner      *ivf.Index //tknn:guardedBy(mu)
	mu         sync.RWMutex
	sinceBuild int //tknn:guardedBy(mu)
	rebuilds   int //tknn:guardedBy(mu)
}

// NewIVF creates an empty IVF index.
func NewIVF(opts IVFOptions) (*IVF, error) {
	if err := opts.ApplyDefaults(); err != nil {
		return nil, err
	}
	return &IVF{
		opts:  opts,
		inner: ivf.New(opts.Dim, opts.Metric.internal(), ivf.Config{Lists: opts.Lists}),
	}, nil
}

// Options returns the effective (defaulted) options.
func (x *IVF) Options() IVFOptions { return x.opts }

// Add implements Index. Vectors added after the last Build are covered by
// a brute-force tail scan until the next rebuild.
func (x *IVF) Add(v []float32, t int64) error {
	if len(v) != x.opts.Dim {
		return fmt.Errorf("%w: got %d, index has %d", ErrDimension, len(v), x.opts.Dim)
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if err := x.inner.Append(v, t); err != nil {
		return addError(err)
	}
	x.sinceBuild++
	if x.opts.RebuildEvery > 0 && x.sinceBuild >= x.opts.RebuildEvery {
		return x.buildLocked()
	}
	return nil
}

// Build (re)clusters everything added so far into inverted lists.
func (x *IVF) Build() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.buildLocked()
}

func (x *IVF) buildLocked() error {
	x.rebuilds++
	if err := x.inner.Build(x.opts.Seed + int64(x.rebuilds)); err != nil {
		return err
	}
	x.sinceBuild = 0
	return nil
}

// Built returns how many vectors the current lists cover.
func (x *IVF) Built() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.inner.Built()
}

// Lists returns the number of inverted lists (0 before the first Build).
func (x *IVF) Lists() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.inner.Lists()
}

// Search implements Index, probing Options.Probes lists.
func (x *IVF) Search(q Query) ([]Result, error) {
	return x.SearchProbes(q, x.opts.Probes)
}

// SearchContext is Search through the shared executor: probed lists scan
// as independent subtasks across exec.Run's workers, and a done context
// yields the results of the probes that ran (a partial answer, not an
// error).
func (x *IVF) SearchContext(ctx context.Context, q Query) ([]Result, error) {
	res, _, err := x.SearchDetailed(ctx, q, x.opts.Probes)
	return res, err
}

// SearchProbes is Search with an explicit probe count; nprobe >= Lists()
// makes the answer exact within the window.
func (x *IVF) SearchProbes(q Query, nprobe int) ([]Result, error) {
	res, _, err := x.SearchDetailed(context.Background(), q, nprobe)
	return res, err
}

// SearchDetailed is SearchContext with an explicit probe count, plus stage
// timings and the Partial flag.
func (x *IVF) SearchDetailed(ctx context.Context, q Query, nprobe int) ([]Result, SearchInfo, error) {
	if nprobe <= 0 {
		return nil, SearchInfo{}, fmt.Errorf("%w: nprobe = %d", ErrBadQuery, nprobe)
	}
	if err := validateQuery(q, x.opts.Dim); err != nil {
		return nil, SearchInfo{}, err
	}
	scr := core.GetScratch()
	defer core.PutScratch(scr)
	x.mu.RLock()
	defer x.mu.RUnlock()
	ns, out := x.inner.Query(ctx, scr.Exec(), q.Vector, q.K, q.Start, q.End, nprobe)
	return toResults(ns, x.inner.Times()), infoFrom(out), nil
}

// SearchBatchContext fans queries across workers goroutines with the same
// batch semantics as MBI.SearchBatch: the first query error aborts, and a
// done context stops the batch with ctx.Err().
func (x *IVF) SearchBatchContext(ctx context.Context, queries []Query, workers int) ([][]Result, error) {
	return searchBatchCtx(ctx, queries, workers, x.SearchContext)
}

// Len implements Index.
func (x *IVF) Len() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.inner.Len()
}
