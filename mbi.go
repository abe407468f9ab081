package tknn

import (
	"context"
	"fmt"
	"io"

	"repro/internal/blockcache"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/nndescent"
	"repro/internal/persist"
	"repro/internal/sq"
)

// Compression selects how sealed blocks store their vectors for search.
type Compression int

const (
	// CompressionNone keeps sealed blocks fully float32 (the default).
	CompressionNone Compression = iota
	// CompressionSQ8 trains a per-block scalar quantizer at seal time and
	// searches sealed blocks through 1-byte codes with an asymmetric
	// distance kernel, then re-ranks the best candidates against the
	// float32 store. ~4x less search-path memory traffic per block at a
	// small recall cost that the re-rank largely recovers.
	CompressionSQ8
)

// String returns the compression mode's name.
func (c Compression) String() string {
	if c == CompressionSQ8 {
		return "sq8"
	}
	return "none"
}

func (c Compression) valid() bool { return c == CompressionNone || c == CompressionSQ8 }

func (c Compression) internal() sq.Kind {
	if c == CompressionSQ8 {
		return sq.SQ8
	}
	return sq.None
}

// MBIOptions configures an MBI index. Zero values get sensible defaults
// from ApplyDefaults; only Dim is mandatory.
type MBIOptions struct {
	// Dim is the vector dimension. Required.
	Dim int
	// Metric is the distance function. Default Euclidean.
	Metric Metric
	// LeafSize is S_L, the number of vectors per leaf block. New data
	// is brute-force scanned until a leaf fills, so the leaf size bounds
	// the unindexed tail. Default 1024.
	LeafSize int
	// Tau is the block-selection threshold τ ∈ (0, 1]. At most two blocks
	// are searched per query when Tau <= 0.5. Default 0.5, the paper's
	// recommendation when no tuning data is available.
	Tau float64
	// GraphDegree is the neighbor count K of each block's NNDescent
	// graph. Default 24.
	GraphDegree int
	// MaxCandidates is the search-time candidate cap M_C. Default
	// 2*GraphDegree.
	MaxCandidates int
	// Epsilon is the default search range-extension factor ε >= 1.
	// Default 1.1. Larger values raise recall and lower throughput.
	Epsilon float64
	// Workers bounds the goroutines used to build block graphs during a
	// merge cascade. Default 1 (sequential).
	Workers int
	// AsyncMerge moves block-graph building from the Add that fills a
	// leaf to a background worker, so Add never waits on graph
	// construction. Either way searches never wait on it: vectors whose
	// blocks are still building are answered exactly by brute force.
	// Call Flush to wait for the builder and Close when done with the
	// index.
	AsyncMerge bool
	// Seed makes index construction reproducible. Default 1.
	Seed int64
	// Compression selects per-block vector compression for sealed blocks.
	// Default CompressionNone.
	Compression Compression
	// CompressMinHeight only compresses sealed blocks of at least this
	// tree height, keeping small low blocks exact while the large
	// high blocks — where the memory is — use codes. 0 compresses every
	// sealed block. Ignored without Compression.
	CompressMinHeight int
	// RerankFactor is the compressed-block over-fetch multiplier: the
	// approximate search keeps k·RerankFactor candidates for the exact
	// re-rank. 0 uses the executor default (4). Ignored without
	// Compression.
	RerankFactor int
	// SpillDir, when set, enables tiered storage: SpillCold writes
	// sealed blocks at or below SpillMaxHeight into per-block segment
	// files under this directory and releases their RAM payloads;
	// queries page spilled blocks back through a bounded LRU block
	// cache. Empty (the default) keeps the whole index RAM-resident.
	SpillDir string
	// CacheBytes bounds the block cache's resident payload bytes.
	// Default 256 MiB. Blocks pinned by in-flight queries may push the
	// cache past the bound transiently; it drains back as they finish.
	// Ignored without SpillDir.
	CacheBytes int64
	// SpillMaxHeight is the tallest block height SpillCold moves to
	// disk; taller blocks (and the open leaf) always stay in RAM.
	// Default 8. Ignored without SpillDir.
	SpillMaxHeight int
}

// ApplyDefaults fills unset fields with their defaults and validates the
// result.
func (o *MBIOptions) ApplyDefaults() error {
	if o.Dim <= 0 {
		return fmt.Errorf("tknn: MBIOptions.Dim must be positive, got %d", o.Dim)
	}
	if !o.Metric.valid() {
		return fmt.Errorf("tknn: invalid metric %d", o.Metric)
	}
	if o.LeafSize == 0 {
		o.LeafSize = 1024
	}
	if o.Tau == 0 {
		o.Tau = 0.5
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
	if o.Workers == 0 {
		o.Workers = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if !o.Compression.valid() {
		return fmt.Errorf("tknn: invalid compression %d", o.Compression)
	}
	if o.CompressMinHeight < 0 {
		return fmt.Errorf("tknn: CompressMinHeight must be non-negative, got %d", o.CompressMinHeight)
	}
	if o.RerankFactor < 0 {
		return fmt.Errorf("tknn: RerankFactor must be non-negative, got %d", o.RerankFactor)
	}
	if o.SpillMaxHeight < 0 {
		return fmt.Errorf("tknn: SpillMaxHeight must be non-negative, got %d", o.SpillMaxHeight)
	}
	if o.CacheBytes < 0 {
		return fmt.Errorf("tknn: CacheBytes must be non-negative, got %d", o.CacheBytes)
	}
	if o.SpillDir != "" {
		if o.CacheBytes == 0 {
			o.CacheBytes = 256 << 20
		}
		if o.SpillMaxHeight == 0 {
			o.SpillMaxHeight = 8
		}
	}
	return nil
}

// spillConfig wires the core index's tiered storage to persist's
// per-block segment files under SpillDir. Nil without SpillDir.
func (o MBIOptions) spillConfig() *core.SpillConfig {
	if o.SpillDir == "" {
		return nil
	}
	dir, dim := o.SpillDir, o.Dim
	return &core.SpillConfig{
		Write: func(id, lo, hi, height int, g *graph.CSR, c *sq.Codes) (int64, error) {
			return persist.WriteSegmentFile(dir, id, lo, hi, height, dim, g, c)
		},
		Load: func(ctx context.Context, key uint64) (blockcache.Value, error) {
			g, c, _, _, err := persist.ReadSegmentFile(dir, int(key), dim)
			if err != nil {
				return blockcache.Value{}, err
			}
			return blockcache.Value{Graph: g, Codes: c}, nil
		},
		MaxHeight:  o.SpillMaxHeight,
		CacheBytes: o.CacheBytes,
	}
}

func (o MBIOptions) coreOptions() (core.Options, error) {
	b, err := nndescent.New(nndescent.DefaultConfig(o.GraphDegree))
	if err != nil {
		return core.Options{}, err
	}
	return core.Options{
		Dim:               o.Dim,
		Metric:            o.Metric.internal(),
		LeafSize:          o.LeafSize,
		Tau:               o.Tau,
		Builder:           b,
		Search:            graph.SearchParams{MC: o.MaxCandidates, Eps: float32(o.Epsilon)},
		Workers:           o.Workers,
		AsyncMerge:        o.AsyncMerge,
		Seed:              o.Seed,
		Compression:       o.Compression.internal(),
		CompressMinHeight: o.CompressMinHeight,
		RerankFactor:      o.RerankFactor,
		Spill:             o.spillConfig(),
	}, nil
}

// MBI is the paper's Multi-level Block Index. It satisfies Index.
type MBI struct {
	opts  MBIOptions
	inner *core.Index
}

// NewMBI creates an empty MBI index. opts is copied; unset fields default
// per MBIOptions.
func NewMBI(opts MBIOptions) (*MBI, error) {
	if err := opts.ApplyDefaults(); err != nil {
		return nil, err
	}
	co, err := opts.coreOptions()
	if err != nil {
		return nil, err
	}
	inner, err := core.New(co)
	if err != nil {
		return nil, err
	}
	return &MBI{opts: opts, inner: inner}, nil
}

// Options returns the effective (defaulted) options.
func (m *MBI) Options() MBIOptions { return m.opts }

// Add implements Index. When an Add fills a leaf block, it additionally
// builds the graph indexes for the leaf and any newly completed ancestor
// blocks before returning (unless AsyncMerge hands that to the background
// worker), so individual Add calls occasionally take much longer than the
// average — the amortized cost is O(n^0.14 log n) per vector (§4.4.2).
// Concurrent searches do not wait for the build; they brute-force the
// filled leaf until its blocks install.
func (m *MBI) Add(v []float32, t int64) error {
	if len(v) != m.opts.Dim {
		return fmt.Errorf("%w: got %d, index has %d", ErrDimension, len(v), m.opts.Dim)
	}
	if err := m.inner.Append(v, t); err != nil {
		return addError(err)
	}
	return nil
}

// Search implements Index. Block selection uses the threshold
// Options.Tau.
func (m *MBI) Search(q Query) ([]Result, error) {
	res, _, err := m.SearchDetailed(context.Background(), q)
	return res, err
}

// SearchDetailed is Search with cancellation/deadline semantics and
// execution details: block subtasks never start after ctx is done, and on
// expiry the merged results of the blocks that did run are returned — a
// partial answer, not an error — with SearchInfo.Partial set, beside the
// per-stage durations.
func (m *MBI) SearchDetailed(ctx context.Context, q Query) ([]Result, SearchInfo, error) {
	return m.search(ctx, q, nil)
}

// search runs q through the core index's one query body; a non-nil
// explain receives the executed plan.
func (m *MBI) search(ctx context.Context, q Query, explain *core.Plan) ([]Result, SearchInfo, error) {
	if err := validateQuery(q, m.opts.Dim); err != nil {
		return nil, SearchInfo{}, err
	}
	scr := core.GetScratch()
	defer core.PutScratch(scr)
	ns, out := m.inner.Query(ctx, scr, core.Request{Q: q.Vector, K: q.K, Ts: q.Start, Te: q.End, Explain: explain})
	return toResults(ns, m.inner.Times()), infoFrom(out), nil
}

// Len implements Index.
func (m *MBI) Len() int { return m.inner.Len() }

// BlockCount returns the number of sealed blocks (each carrying a graph).
func (m *MBI) BlockCount() int { return m.inner.Stats().NumBlocks }

// TreeHeight returns the height of the tallest complete subtree.
func (m *MBI) TreeHeight() int { return m.inner.Stats().TreeHeight }

// Flush waits until every filled leaf has its blocks built and installed.
// Without AsyncMerge that already holds whenever no Add is in progress.
func (m *MBI) Flush() { m.inner.Flush() }

// Close flushes outstanding asynchronous builds and stops the background
// worker; further Adds fail, searches keep working. A no-op without
// AsyncMerge. Close is idempotent.
func (m *MBI) Close() error { return m.inner.Close() }

// PendingBuilds reports how many vectors are sealed but not yet covered
// by built blocks. Without AsyncMerge it is non-zero only while an Add is
// building.
func (m *MBI) PendingBuilds() int { return m.inner.PendingBuilds() }

// Explain reports which blocks a query window would search, without
// searching — block ranges, heights, overlap ratios, and in-window
// counts, like an EXPLAIN plan.
func (m *MBI) Explain(start, end int64) core.Plan { return m.inner.Explain(start, end) }

// SearchExplain answers the query and returns the executed plan: the
// Explain statics annotated with per-block durations, skip flags, found
// counts, stage timings, and the Partial flag — EXPLAIN ANALYZE for a
// TkNN query. It explains exactly the query Search runs.
func (m *MBI) SearchExplain(ctx context.Context, q Query) ([]Result, core.Plan, error) {
	var plan core.Plan
	res, _, err := m.search(ctx, q, &plan)
	return res, plan, err
}

// SpillCold writes sealed blocks at or below SpillMaxHeight into their
// segment files under SpillDir and releases their RAM payloads,
// returning blocks spilled and segment bytes written. Every released
// block's segment is durable (fsynced and renamed into place) before
// the RAM copy is dropped. A no-op (0, 0, nil) without SpillDir.
// SpillCold implements wal.Spiller, so a WAL-managed tiered index
// spills automatically on every checkpoint.
func (m *MBI) SpillCold() (int, int64, error) {
	if m.opts.SpillDir == "" {
		return 0, 0, nil
	}
	return m.inner.SpillCold()
}

// CacheStats reports the block cache's counters. ok is false without
// SpillDir (there is no cache).
func (m *MBI) CacheStats() (stats blockcache.Stats, ok bool) {
	return m.inner.CacheStats()
}

// SetCacheBytes rebounds the block cache at runtime (benchmarks sweep
// it). It panics without SpillDir.
func (m *MBI) SetCacheBytes(n int64) { m.inner.SetCacheBytes(n) }

// Save serializes the index to w; LoadMBI restores it. Save must not run
// concurrently with Add (it shares Add's single-writer role); it flushes
// asynchronous builds first so the file is always complete.
func (m *MBI) Save(w io.Writer) error { return persist.SaveMBI(w, m.inner) }

// LoadMBI restores an index saved with Save. opts must carry the same
// Dim, Metric, and LeafSize the saved index had; graph construction
// settings may differ (they only affect future inserts).
func LoadMBI(r io.Reader, opts MBIOptions) (*MBI, error) {
	if err := opts.ApplyDefaults(); err != nil {
		return nil, err
	}
	co, err := opts.coreOptions()
	if err != nil {
		return nil, err
	}
	inner, err := persist.LoadMBI(r, co)
	if err != nil {
		return nil, err
	}
	return &MBI{opts: opts, inner: inner}, nil
}

// Internal exposes the underlying core index for the experiment harness.
// Not part of the stable API.
func (m *MBI) Internal() *core.Index { return m.inner }
