package oracle

import (
	"context"
	"os"

	tknn "repro"
	"repro/internal/core"
)

// system is one index under differential test.
type system struct {
	name   string
	add    func(v []float32, t int64) error
	search func(q tknn.Query) ([]tknn.Result, error)
	// exact reports whether, in the system's current state, its answer to
	// q is guaranteed to equal the brute-force answer.
	exact func(q tknn.Query) bool
	// floor is the aggregate recall bound applied to the system's
	// approximate queries.
	floor func(cfg Config) float64
}

func (s *system) recallFloor(cfg Config) float64 { return s.floor(cfg) }

func graphFloor(cfg Config) float64 { return cfg.RecallFloor }
func alwaysExact(tknn.Query) bool   { return true }

// sq8RecallFloor is the aggregate recall bound for the SQ8-compressed MBI
// variant. The default rerank factor (4) recovers most quantization loss,
// but the walk itself routes on approximate distances, so the floor sits
// below the flat-graph floor on purpose.
const sq8RecallFloor = 0.80

// newSystems builds one instance of every index variant the oracle
// exercises. closeAll must be called when the replay finishes.
func newSystems(cfg Config) ([]*system, func(), error) {
	var systems []*system
	var closers []func()
	closeAll := func() {
		for _, c := range closers {
			c()
		}
	}

	// MBI, synchronous merges, queried through the shared executor at the
	// host's GOMAXPROCS: on a multi-core host the oracle continuously
	// re-checks that parallel per-block execution answers exactly (plan-time
	// entry draws + disjoint ranges make results width-independent), under
	// GOMAXPROCS=1 that the inline loop does. Exact exactly when block
	// selection chose only brute-forced regions — Explain reports the plan
	// without searching, so the classification can't drift from the real
	// query path.
	mbiSync, err := tknn.NewMBI(tknn.MBIOptions{
		Dim: cfg.Dim, Metric: cfg.Metric, LeafSize: cfg.LeafSize, Seed: cfg.Seed + 1,
	})
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	systems = append(systems, &system{
		name: "mbi-sync",
		add:  mbiSync.Add,
		search: func(q tknn.Query) ([]tknn.Result, error) {
			return mbiSync.SearchContext(context.Background(), q)
		},
		exact: func(q tknn.Query) bool { return planIsBruteForce(mbiSync.Explain(q.Start, q.End)) },
		floor: graphFloor,
	})

	// MBI with asynchronous merging. Flushing before every query makes
	// the visible state deterministic (all queued builds installed), so
	// replays and shrinks reproduce; the paper's equivalence claim — the
	// async tree is bit-identical to the sync one — is then tested for
	// free, because both variants face the same exactness checks.
	mbiAsync, err := tknn.NewMBI(tknn.MBIOptions{
		Dim: cfg.Dim, Metric: cfg.Metric, LeafSize: cfg.LeafSize, Seed: cfg.Seed + 1,
		AsyncMerge: true, Workers: 2,
	})
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	closers = append(closers, func() { _ = mbiAsync.Close() })
	systems = append(systems, &system{
		name: "mbi-async",
		add:  mbiAsync.Add,
		search: func(q tknn.Query) ([]tknn.Result, error) {
			mbiAsync.Flush()
			return mbiAsync.Search(q)
		},
		exact: func(q tknn.Query) bool {
			mbiAsync.Flush()
			return planIsBruteForce(mbiAsync.Explain(q.Start, q.End))
		},
		floor: graphFloor,
	})

	// MBI with SQ8-compressed blocks: graph walks read quantized codes and
	// re-rank exactly. Quantization loses information, so this system gets
	// an explicit floor below the graph floor — it guards against the
	// compressed path collapsing (wrong code kernel, broken re-rank), not against
	// the inherent quantization cost the paper's §4.1 modularity argument
	// accepts.
	mbiSQ8, err := tknn.NewMBI(tknn.MBIOptions{
		Dim: cfg.Dim, Metric: cfg.Metric, LeafSize: cfg.LeafSize, Seed: cfg.Seed + 1,
		Compression: tknn.CompressionSQ8,
	})
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	systems = append(systems, &system{
		name: "mbi-sq8",
		add:  mbiSQ8.Add,
		search: func(q tknn.Query) ([]tknn.Result, error) {
			return mbiSQ8.SearchContext(context.Background(), q)
		},
		exact: func(q tknn.Query) bool { return planIsBruteForce(mbiSQ8.Explain(q.Start, q.End)) },
		floor: func(Config) float64 { return sq8RecallFloor },
	})

	// MBI with tiered storage: cold blocks spilled to segment files
	// before every search, paged back through a deliberately tiny block
	// cache so queries constantly cross the fetch path. Cold execution
	// draws entry seeds at plan time in selection order, so its answers
	// are bit-identical to the RAM-resident index's — the plain graph
	// floor applies, and any divergence (torn segment accepted, stale
	// payload, fetch reordering) surfaces as a recall or exactness
	// violation.
	tierDir, err := os.MkdirTemp("", "tknn-oracle-tier-")
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	closers = append(closers, func() { _ = os.RemoveAll(tierDir) })
	mbiTiered, err := tknn.NewMBI(tknn.MBIOptions{
		Dim: cfg.Dim, Metric: cfg.Metric, LeafSize: cfg.LeafSize, Seed: cfg.Seed + 1,
		SpillDir: tierDir, CacheBytes: 1 << 16, SpillMaxHeight: 64,
	})
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	systems = append(systems, &system{
		name: "mbi-tiered",
		add:  mbiTiered.Add,
		search: func(q tknn.Query) ([]tknn.Result, error) {
			// Spill before searching so newly sealed blocks go cold as the
			// replay grows the index; already-spilled blocks are no-ops.
			if _, _, err := mbiTiered.SpillCold(); err != nil {
				return nil, err
			}
			return mbiTiered.SearchContext(context.Background(), q)
		},
		exact: func(q tknn.Query) bool { return planIsBruteForce(mbiTiered.Explain(q.Start, q.End)) },
		floor: graphFloor,
	})

	// SF with no graph build: every query falls through to the exact
	// brute-force tail scan, making it a second independent reference.
	sfFrozen, err := tknn.NewSF(tknn.SFOptions{Dim: cfg.Dim, Metric: cfg.Metric, Seed: cfg.Seed + 2})
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	systems = append(systems, &system{
		name:   "sf-frozen",
		add:    sfFrozen.Add,
		search: sfFrozen.Search,
		exact:  alwaysExact,
		floor:  graphFloor,
	})

	// SF with periodic rebuilds: exact until the first build, then a
	// graph search with a brute-forced tail — the approximate regime the
	// recall floor governs.
	sfRebuild, err := tknn.NewSF(tknn.SFOptions{
		Dim: cfg.Dim, Metric: cfg.Metric, Seed: cfg.Seed + 3, RebuildEvery: 2 * cfg.LeafSize,
	})
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	systems = append(systems, &system{
		name:   "sf-rebuild",
		add:    sfRebuild.Add,
		search: sfRebuild.Search,
		exact:  func(tknn.Query) bool { return sfRebuild.Built() == 0 },
		floor:  graphFloor,
	})

	// IVF probing every list: exact within the window by construction
	// (probed lists cover the database; the unclustered tail is scanned).
	ivfFull, err := tknn.NewIVF(tknn.IVFOptions{
		Dim: cfg.Dim, Metric: cfg.Metric, Seed: cfg.Seed + 4, RebuildEvery: 3 * cfg.LeafSize,
	})
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	systems = append(systems, &system{
		name: "ivf-full",
		add:  ivfFull.Add,
		search: func(q tknn.Query) ([]tknn.Result, error) {
			nprobe := ivfFull.Lists()
			if nprobe < 1 {
				nprobe = 1
			}
			// Through the executor path: probed lists run as parallel
			// subtasks, and the oracle checks the merged answer is still
			// exact.
			res, _, err := ivfFull.SearchDetailed(context.Background(), q, nprobe)
			return res, err
		},
		exact: alwaysExact,
		floor: graphFloor,
	})

	// IVF probing a fixed couple of lists: deliberately lossy; the floor
	// only guards against total collapse, not graph-level recall.
	ivfProbe, err := tknn.NewIVF(tknn.IVFOptions{
		Dim: cfg.Dim, Metric: cfg.Metric, Seed: cfg.Seed + 5, RebuildEvery: 3 * cfg.LeafSize, Probes: 2,
	})
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	systems = append(systems, &system{
		name:   "ivf-probe2",
		add:    ivfProbe.Add,
		search: ivfProbe.Search,
		exact:  func(tknn.Query) bool { return ivfProbe.Built() == 0 },
		floor:  func(Config) float64 { return 0.10 },
	})

	return systems, closeAll, nil
}

// planIsBruteForce reports whether every selected block of an MBI plan is
// answered by brute force — the condition under which MBI's result is
// exact.
func planIsBruteForce(p core.Plan) bool {
	for _, b := range p.Blocks {
		if !b.BruteForce {
			return false
		}
	}
	return true
}
