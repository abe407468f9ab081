package core

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/blockcache"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/sq"
	"repro/internal/theap"
)

// memSpill is tiered storage without a disk: segments are the payloads
// themselves, kept in a map.
func memSpill(maxHeight int) *SpillConfig {
	var mu sync.Mutex
	segs := map[uint64]blockcache.Value{}
	return &SpillConfig{
		Write: func(id, lo, hi, height int, g *graph.CSR, c *sq.Codes) (int64, error) {
			mu.Lock()
			defer mu.Unlock()
			segs[uint64(id)] = blockcache.Value{Graph: g, Codes: c}
			return 1, nil
		},
		Load: func(_ context.Context, key uint64) (blockcache.Value, error) {
			mu.Lock()
			defer mu.Unlock()
			return segs[key], nil
		},
		MaxHeight: maxHeight,
	}
}

// TestQueryIsTheOneBody: Query replaced ten Search* variants that differed
// only in which parameters they took and who owned the buffers. Every way
// of spelling the same query through Request — a default left zero or
// written out, τ given, Explain set or not, a warm shared scratch or a
// fresh one — must return bit-identical
// neighbors, for sequential and parallel execution alike, on an index
// with flat, SQ8, and spilled blocks plus an open leaf.
func TestQueryIsTheOneBody(t *testing.T) {
	opts := testOptions(16)
	opts.Compression = sq.SQ8
	opts.CompressMinHeight = 1 // leaves stay flat, taller blocks get codes
	opts.Spill = memSpill(1)   // leaves and their parents go cold
	ix, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	vs := fill(t, ix, 21, 325) // 20 leaves and a 5-vector open leaf
	if n, _, err := ix.SpillCold(); err != nil || n == 0 {
		t.Fatalf("SpillCold spilled %d blocks, err %v", n, err)
	}
	p := graph.SearchParams{MC: 24, Eps: 1.3}
	const k = 7

	warm := NewScratch() // shared by every spelling: stale state must not leak between queries
	run := func(req Request) []theap.Neighbor {
		res, out := ix.Query(context.Background(), warm, req)
		if out.Partial {
			t.Fatalf("partial outcome without cancellation: %+v", req)
		}
		return slices.Clone(res)
	}
	same := func(name string, want, got []theap.Neighbor) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %v\nwant %v", name, got, want)
		}
	}

	var kinds [3]int // exec.Kind → blocks executed, to prove the index is as mixed as claimed
	cold := 0
	for _, win := range [][2]int64{{0, 325}, {5, 300}, {40, 170}, {150, 165}, {310, 325}} {
		ts, te := win[0], win[1]
		for qi := 0; qi < 6; qi++ {
			base := Request{Q: vs[(qi*53+int(ts))%len(vs)], K: k, Ts: ts, Te: te}
			var wantDefault, wantSeeded []theap.Neighbor
			for _, workers := range []int{1, 4} {
				setProcs(t, workers)

				// Every default, left zero or written out.
				def := run(base)
				if wantDefault == nil {
					wantDefault = def
				}
				same("workers 4 vs 1", wantDefault, def)
				fresh, _ := queryCtx(context.Background(), ix, base)
				same("fresh scratch", wantDefault, fresh)
				spelled := base
				spelled.Tau, spelled.Params = opts.Tau, opts.Search
				same("defaults written out", wantDefault, run(spelled))
				var plan Plan
				explained := base
				explained.Explain = &plan
				same("Explain set", wantDefault, run(explained))
				if !plan.Executed || plan.Tau != opts.Tau || len(plan.Blocks) == 0 {
					t.Errorf("executed plan not filled in: %+v", plan)
				}
				for _, b := range plan.Blocks {
					if b.Cold {
						cold++
					}
				}

				// Explicit τ and Params with a seeded Rng: same seed, same
				// answer, and Explain draws nothing extra from the Rng.
				seeded := base
				seeded.Tau, seeded.Params = 0.2, p
				rngA, rngB := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
				seeded.Rng = rngA
				sa := run(seeded)
				if wantSeeded == nil {
					wantSeeded = sa
				}
				same("seeded, workers 4 vs 1", wantSeeded, sa)
				seeded.Rng, seeded.Explain = rngB, &plan
				same("seeded with Explain", wantSeeded, run(seeded))
				if plan.Tau != 0.2 {
					t.Errorf("explicit τ: plan.Tau = %g, want 0.2", plan.Tau)
				}
				if a, b := rngA.Int63(), rngB.Int63(); a != b {
					t.Errorf("Rng consumed differently with Explain set: next draws %d vs %d", a, b)
				}
			}
			_, out := ix.Query(context.Background(), warm, base)
			for _, sr := range out.Subtasks {
				kinds[sr.Kind]++
			}
		}
	}
	if kinds[exec.GraphSearch] == 0 || kinds[exec.CompressedGraph] == 0 || kinds[exec.BruteScan] == 0 || cold == 0 {
		t.Errorf("index not mixed: kinds %v (graph, scan, sq8-graph), %d cold blocks", kinds, cold)
	}
}
