package tknn

import (
	"context"
	"fmt"
	"io"
	"sync"

	"repro/internal/bsbf"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/nndescent"
	"repro/internal/persist"
	"repro/internal/sf"
)

// BSBF is the Binary-Search-and-Brute-Force baseline (Algorithm 1).
// Queries are exact. It satisfies Index.
type BSBF struct {
	dim   int
	inner *bsbf.Index //tknn:guardedBy(mu)
	mu    sync.RWMutex
}

// NewBSBF creates an empty BSBF index.
func NewBSBF(dim int, metric Metric) (*BSBF, error) {
	return NewBSBFWithOptions(BSBFOptions{Dim: dim, Metric: metric})
}

// BSBFOptions configures a BSBF index beyond dimension and metric.
type BSBFOptions struct {
	// Dim is the vector dimension. Required.
	Dim int
	// Metric is the distance function. Default Euclidean.
	Metric Metric
	// Compression selects per-chunk vector compression: with
	// CompressionSQ8 each full run of ChunkSize appended rows is sealed
	// into a scalar quantizer, scans read 1-byte codes through an
	// asymmetric kernel, and an exact re-rank restores ordering. The
	// still-open tail is always scanned exactly.
	Compression Compression
	// RerankFactor is the compressed-scan over-fetch multiplier
	// (candidates = k·RerankFactor). 0 uses the executor default (4).
	RerankFactor int
	// ChunkSize is the row count sealed into one quantizer. 0 uses the
	// scan-subtask chunk size (8192).
	ChunkSize int
}

// NewBSBFWithOptions creates an empty BSBF index with explicit options.
func NewBSBFWithOptions(opts BSBFOptions) (*BSBF, error) {
	if opts.Dim <= 0 {
		return nil, fmt.Errorf("tknn: dimension must be positive, got %d", opts.Dim)
	}
	if !opts.Metric.valid() {
		return nil, fmt.Errorf("tknn: invalid metric %d", opts.Metric)
	}
	if !opts.Compression.valid() {
		return nil, fmt.Errorf("tknn: invalid compression %d", opts.Compression)
	}
	inner, err := bsbf.NewWithConfig(opts.Dim, opts.Metric.internal(), bsbf.Config{
		Compression:  opts.Compression.internal(),
		RerankFactor: opts.RerankFactor,
		ChunkSize:    opts.ChunkSize,
	})
	if err != nil {
		return nil, err
	}
	return &BSBF{dim: opts.Dim, inner: inner}, nil
}

// Add implements Index.
func (b *BSBF) Add(v []float32, t int64) error {
	if len(v) != b.dim {
		return fmt.Errorf("%w: got %d, index has %d", ErrDimension, len(v), b.dim)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.inner.Append(v, t); err != nil {
		return addError(err)
	}
	return nil
}

// Search implements Index. Results are exact.
func (b *BSBF) Search(q Query) ([]Result, error) {
	return b.SearchContext(context.Background(), q)
}

// SearchContext is Search through the shared executor: the window's scan
// chunks run across exec.Run's workers, and a done context yields the
// best neighbors of the chunks that ran (a partial answer, not an error).
func (b *BSBF) SearchContext(ctx context.Context, q Query) ([]Result, error) {
	res, _, err := b.SearchDetailed(ctx, q)
	return res, err
}

// SearchDetailed is SearchContext plus stage timings and the Partial flag.
func (b *BSBF) SearchDetailed(ctx context.Context, q Query) ([]Result, SearchInfo, error) {
	if err := validateQuery(q, b.dim); err != nil {
		return nil, SearchInfo{}, err
	}
	scr := core.GetScratch()
	defer core.PutScratch(scr)
	b.mu.RLock()
	defer b.mu.RUnlock()
	ns, out := b.inner.Query(ctx, scr.Exec(), q.Vector, q.K, q.Start, q.End)
	return toResults(ns, b.inner.TimesRef()), infoFrom(out), nil
}

// SearchBatchContext fans queries across workers goroutines with the same
// batch semantics as MBI.SearchBatch: the first query error aborts, and a
// done context stops the batch with ctx.Err().
func (b *BSBF) SearchBatchContext(ctx context.Context, queries []Query, workers int) ([][]Result, error) {
	return searchBatchCtx(ctx, queries, workers, b.SearchContext)
}

// Len implements Index.
func (b *BSBF) Len() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.inner.Len()
}

// SFOptions configures the Search-and-Filtering baseline.
type SFOptions struct {
	// Dim is the vector dimension. Required.
	Dim int
	// Metric is the distance function. Default Euclidean.
	Metric Metric
	// GraphDegree is the NNDescent graph's neighbor count K. Default 24.
	GraphDegree int
	// MaxCandidates is the search-time candidate cap M_C. Default
	// 2*GraphDegree.
	MaxCandidates int
	// Epsilon is the search range-extension factor ε >= 1. Default 1.1.
	Epsilon float64
	// RebuildEvery triggers an automatic full graph rebuild once that many
	// vectors have been added since the last build. Zero disables
	// automatic rebuilds (call Build explicitly). SF has no incremental
	// structure — this is the best it can do, and the contrast with MBI's
	// amortized insertion is the point of Figure 7a.
	RebuildEvery int
	// Seed drives graph-build randomization. Default 1.
	Seed int64
}

// ApplyDefaults fills unset fields with their defaults and validates.
func (o *SFOptions) ApplyDefaults() error {
	if o.Dim <= 0 {
		return fmt.Errorf("tknn: SFOptions.Dim must be positive, got %d", o.Dim)
	}
	if !o.Metric.valid() {
		return fmt.Errorf("tknn: invalid metric %d", o.Metric)
	}
	if o.GraphDegree == 0 {
		o.GraphDegree = 24
	}
	if o.MaxCandidates == 0 {
		o.MaxCandidates = 2 * o.GraphDegree
	}
	if o.Epsilon == 0 {
		o.Epsilon = 1.1
	}
	if o.Epsilon < 1 {
		return fmt.Errorf("tknn: Epsilon must be >= 1, got %g", o.Epsilon)
	}
	if o.RebuildEvery < 0 {
		return fmt.Errorf("tknn: RebuildEvery must be non-negative, got %d", o.RebuildEvery)
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return nil
}

// SF is the Search-and-Filtering baseline (§3.2.2): one proximity graph
// over the whole database, searched with time filtering. It satisfies
// Index.
type SF struct {
	opts       SFOptions
	inner      *sf.Index //tknn:guardedBy(mu)
	mu         sync.RWMutex
	sinceBuild int //tknn:guardedBy(mu)
	rebuilds   int //tknn:guardedBy(mu)
	// entrySalt seeds per-query entry-point randomness: each query hashes
	// (entrySalt, vector) into a plan-local entropy source, so concurrent
	// searches share no state — unlike the old mutex-guarded rand.Rand —
	// and the same query deterministically walks from the same entry.
	entrySalt uint64
}

// NewSF creates an empty SF index.
func NewSF(opts SFOptions) (*SF, error) {
	if err := opts.ApplyDefaults(); err != nil {
		return nil, err
	}
	builder, err := nndescent.New(nndescent.DefaultConfig(opts.GraphDegree))
	if err != nil {
		return nil, err
	}
	return &SF{
		opts:      opts,
		inner:     sf.New(opts.Dim, opts.Metric.internal(), builder),
		entrySalt: uint64(opts.Seed) ^ 0x7366,
	}, nil
}

// Options returns the effective (defaulted) options.
func (s *SF) Options() SFOptions { return s.opts }

// Add implements Index. Vectors added after the last Build are covered by
// a brute-force tail scan until the next rebuild.
func (s *SF) Add(v []float32, t int64) error {
	if len(v) != s.opts.Dim {
		return fmt.Errorf("%w: got %d, index has %d", ErrDimension, len(v), s.opts.Dim)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.inner.Append(v, t); err != nil {
		return addError(err)
	}
	s.sinceBuild++
	if s.opts.RebuildEvery > 0 && s.sinceBuild >= s.opts.RebuildEvery {
		s.buildLocked()
	}
	return nil
}

// Build (re)constructs the proximity graph over everything added so far.
func (s *SF) Build() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buildLocked()
}

func (s *SF) buildLocked() {
	s.rebuilds++
	s.inner.BuildGraph(s.opts.Seed + int64(s.rebuilds))
	s.sinceBuild = 0
}

// Built returns how many vectors the current graph covers.
func (s *SF) Built() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.inner.Built()
}

// Search implements Index.
func (s *SF) Search(q Query) ([]Result, error) {
	return s.SearchContext(context.Background(), q)
}

// SearchContext is Search through the shared executor: the graph walk and
// the unbuilt-tail scan run as independent subtasks, and a done context
// yields the results of the subtasks that ran (a partial answer, not an
// error).
func (s *SF) SearchContext(ctx context.Context, q Query) ([]Result, error) {
	res, _, err := s.SearchDetailed(ctx, q)
	return res, err
}

// SearchDetailed is SearchContext plus stage timings and the Partial flag.
func (s *SF) SearchDetailed(ctx context.Context, q Query) ([]Result, SearchInfo, error) {
	if err := validateQuery(q, s.opts.Dim); err != nil {
		return nil, SearchInfo{}, err
	}
	scr := core.GetScratch()
	defer core.PutScratch(scr)
	s.mu.RLock()
	defer s.mu.RUnlock()
	var entry int32
	if built := s.inner.Built(); built > 0 && s.inner.Graph() != nil {
		ent := exec.NewEntropy(int64(exec.QueryHash(s.entrySalt, q.Vector)))
		entry = int32(ent.Intn(built))
	}
	p := graph.SearchParams{MC: s.opts.MaxCandidates, Eps: float32(s.opts.Epsilon)}
	ns, out := s.inner.Query(ctx, scr.Exec(), q.Vector, q.K, q.Start, q.End, p, entry)
	return toResults(ns, s.inner.Times()), infoFrom(out), nil
}

// SearchBatchContext fans queries across workers goroutines with the same
// batch semantics as MBI.SearchBatch: the first query error aborts, and a
// done context stops the batch with ctx.Err().
func (s *SF) SearchBatchContext(ctx context.Context, queries []Query, workers int) ([][]Result, error) {
	return searchBatchCtx(ctx, queries, workers, s.SearchContext)
}

// Len implements Index.
func (s *SF) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.inner.Len()
}

// Save serializes the index to w; LoadSF restores it.
func (s *SF) Save(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return persist.SaveSF(w, s.inner)
}

// LoadSF restores an index saved with SF.Save. opts must carry the same
// Dim and Metric; graph construction settings may differ (they only apply
// to future rebuilds).
func LoadSF(r io.Reader, opts SFOptions) (*SF, error) {
	if err := opts.ApplyDefaults(); err != nil {
		return nil, err
	}
	builder, err := nndescent.New(nndescent.DefaultConfig(opts.GraphDegree))
	if err != nil {
		return nil, err
	}
	inner, err := persist.LoadSF(r, builder)
	if err != nil {
		return nil, err
	}
	if inner.Metric() != opts.Metric.internal() {
		return nil, fmt.Errorf("tknn: file has metric %v, options say %v", inner.Metric(), opts.Metric)
	}
	return &SF{
		opts:      opts,
		inner:     inner,
		entrySalt: uint64(opts.Seed) ^ 0x7366,
	}, nil
}
