//go:build !race

package core

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/sq"
	"repro/internal/theap"
)

// TestQueryZeroAllocs is the allocation gate on the MBI query path: after
// warmup, an inline Query — block selection, entry seeding, graph
// search, brute scan, and merge — must not touch the heap. Every buffer
// comes from the caller-owned Scratch, so any regression here means a
// per-query allocation crept back into the hot path.
//
// testing.AllocsPerRun measures at GOMAXPROCS 1, so the gate is on the
// inline schedule: the claim workers spawn goroutines, whose stacks the
// accounting would charge to the query. The file is
// excluded from race builds for the same reason — the race runtime
// instruments allocations of its own.
func TestQueryZeroAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant assertions allocate inside guarded blocks")
	}
	ix, err := New(testOptions(16))
	if err != nil {
		t.Fatal(err)
	}
	vecs := fill(t, ix, 7, 320)

	ctx := context.Background()
	scr := NewScratch()
	var res []theap.Neighbor
	// multi-block window: graph + leaf scan subtasks
	req := Request{Q: vecs[17], K: 10, Ts: 40, Te: 280, Params: graph.SearchParams{MC: 32, Eps: 1.2}}

	// Warmup grows scr to its steady-state capacities.
	for i := 0; i < 8; i++ {
		res, _ = ix.Query(ctx, scr, req)
	}
	if len(res) != req.K {
		t.Fatalf("warmup query returned %d results, want %d", len(res), req.K)
	}

	allocs := testing.AllocsPerRun(100, func() {
		res, _ = ix.Query(ctx, scr, req)
	})
	if allocs != 0 {
		t.Errorf("Query allocates %.1f times per query, want 0", allocs)
	}
}

// TestQueryCompressedZeroAllocs extends the gate to the SQ8 path:
// with compression on, the same query runs the code-space graph search,
// LUT fill, and exact re-rank — all from Scratch arenas — and must stay
// off the heap just like the flat path. The plan is checked to actually
// contain compressed blocks so the gate cannot silently measure a flat
// fallback.
func TestQueryCompressedZeroAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant assertions allocate inside guarded blocks")
	}
	opts := testOptions(16)
	opts.Compression = sq.SQ8
	opts.RerankFactor = 4
	ix, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	vecs := fill(t, ix, 7, 320)

	ctx := context.Background()
	scr := NewScratch()
	var res []theap.Neighbor
	req := Request{Q: vecs[17], K: 10, Ts: 40, Te: 280, Params: graph.SearchParams{MC: 32, Eps: 1.2}}

	plan := ix.ExplainTau(req.Ts, req.Te, opts.Tau)
	compressed := 0
	for _, b := range plan.Blocks {
		if b.Compressed {
			compressed++
		}
	}
	if compressed == 0 {
		t.Fatalf("plan selected no compressed blocks; gate would measure the flat path\n%s", plan)
	}

	for i := 0; i < 8; i++ {
		res, _ = ix.Query(ctx, scr, req)
	}
	if len(res) != req.K {
		t.Fatalf("warmup query returned %d results, want %d", len(res), req.K)
	}

	allocs := testing.AllocsPerRun(100, func() {
		res, _ = ix.Query(ctx, scr, req)
	})
	if allocs != 0 {
		t.Errorf("compressed Query allocates %.1f times per query, want 0", allocs)
	}
}
