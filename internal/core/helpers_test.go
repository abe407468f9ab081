package core

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/bsbf"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/theap"
)

// setProcs pins GOMAXPROCS — all that exec.Run's width depends on besides
// the plan — until the test ends. The setting is process-wide: never call
// it under t.Parallel.
func setProcs(t testing.TB, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// queryCtx runs req through the one search body on a fresh scratch, so the
// returned neighbors and Outcome.Subtasks stay valid for the rest of the
// test.
func queryCtx(ctx context.Context, ix *Index, req Request) ([]theap.Neighbor, exec.Outcome) {
	return ix.Query(ctx, NewScratch(), req)
}

// search is a query with every per-query parameter at the index default.
func search(ix *Index, q []float32, k int, ts, te int64) []theap.Neighbor {
	res, _ := queryCtx(context.Background(), ix, Request{Q: q, K: k, Ts: ts, Te: te})
	return res
}

// exactSearch answers q exactly through BSBF's one query body on a fresh
// scratch.
func exactSearch(ix *bsbf.Index, q []float32, k int, ts, te int64) []theap.Neighbor {
	res, _ := ix.Query(context.Background(), exec.NewScratch(), q, k, ts, te)
	return res
}

// queryWith is a query with explicit Algorithm 2 parameters and an
// explicit source of entry-point randomness, τ at the index default.
func queryWith(ix *Index, q []float32, k int, ts, te int64, p graph.SearchParams, rng *rand.Rand) []theap.Neighbor {
	res, _ := queryCtx(context.Background(), ix, Request{Q: q, K: k, Ts: ts, Te: te, Params: p, Rng: rng})
	return res
}

// graphParamsExhaustive returns search parameters that make Algorithm 2
// visit every reachable node: an effectively infinite frontier and bound.
func graphParamsExhaustive() graph.SearchParams {
	return graph.SearchParams{MC: 1 << 30, Eps: 1e9}
}

// bruteForce computes the exact TkNN answer against an index's data.
func bruteForce(ix *Index, q []float32, k int, ts, te int64) []theap.Neighbor {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	lo, hi := bsbf.WindowOf(ix.times, ts, te)
	return bsbf.ScanRange(ix.store, ix.opts.Metric, q, k, lo, hi)
}

// requireSameBlocks fails unless a and b hold bit-identical block lists:
// same ranges and heights in the same creation order, same graphs, same
// codes.
func requireSameBlocks(t testing.TB, a, b *Index) {
	t.Helper()
	ba, bb := a.Blocks(), b.Blocks()
	if len(ba) != len(bb) {
		t.Fatalf("block counts differ: %d vs %d", len(ba), len(bb))
	}
	for i := range ba {
		if !reflect.DeepEqual(ba[i], bb[i]) {
			t.Fatalf("block %d [%d,%d) h%d differs from [%d,%d) h%d or its payload",
				i, ba[i].Lo, ba[i].Hi, ba[i].Height, bb[i].Lo, bb[i].Hi, bb[i].Height)
		}
	}
}
