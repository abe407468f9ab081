package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/nndescent"
	"repro/internal/vec"
)

// execTestIndex builds a small multi-block index: leaf 32 over 300
// clustered vectors gives a forest of sealed graph blocks plus an open
// leaf.
func execTestIndex(t *testing.T) (*Index, [][]float32) {
	t.Helper()
	ix, err := New(Options{
		Dim: 8, Metric: vec.Euclidean, LeafSize: 32, Tau: 0.5,
		Builder: nndescent.MustNew(nndescent.DefaultConfig(8)),
		Search:  graph.SearchParams{MC: 16, Eps: 1.4},
		Workers: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	vs := make([][]float32, 300)
	for i := range vs {
		v := make([]float32, 8)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		vs[i] = v
		if err := ix.Append(v, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return ix, vs
}

// TestSearchEquivalentAcrossWorkerCounts is the plan/execute split's core
// promise: entry seeds are drawn at plan time and subtasks cover disjoint
// id ranges, so the merged result is identical at every GOMAXPROCS.
func TestSearchEquivalentAcrossWorkerCounts(t *testing.T) {
	ix, vs := execTestIndex(t)
	windows := [][2]int64{{0, 300}, {10, 290}, {64, 200}, {250, 300}, {0, 40}}
	type key struct {
		q int
		w int
	}
	want := map[key][]int32{}
	for _, workers := range []int{1, 2, 4, 16} {
		setProcs(t, workers)
		for qi := 0; qi < 20; qi++ {
			q := vs[qi*13]
			for wi, win := range windows {
				res, out := queryCtx(context.Background(), ix, Request{Q: q, K: 5, Ts: win[0], Te: win[1]})
				if out.Partial {
					t.Fatalf("workers=%d q=%d win=%v: partial without cancellation", workers, qi, win)
				}
				ids := make([]int32, len(res))
				for i, n := range res {
					ids[i] = n.ID
				}
				k := key{qi, wi}
				if prev, ok := want[k]; !ok {
					want[k] = ids
				} else if !reflect.DeepEqual(ids, prev) {
					t.Fatalf("workers=%d q=%d win=%v: ids %v, want %v (workers=1)", workers, qi, win, ids, prev)
				}
			}
		}
	}
}

// TestSearchContextCancel: a dead context yields no results and a partial
// outcome, and re-running with a live context works (nothing leaked or
// wedged).
func TestSearchContextCancel(t *testing.T) {
	ix, vs := execTestIndex(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, out := queryCtx(ctx, ix, Request{Q: vs[0], K: 3, Ts: 0, Te: 300})
	if len(res) != 0 {
		t.Fatalf("canceled search returned %v", res)
	}
	if !out.Partial {
		t.Fatal("canceled search not marked partial")
	}
	res, out = queryCtx(context.Background(), ix, Request{Q: vs[0], K: 3, Ts: 0, Te: 300})
	if out.Partial || len(res) == 0 {
		t.Fatalf("follow-up search broken: partial=%v res=%v", out.Partial, res)
	}
}

// TestSearchDeterministicPerQuery: with no explicit rng, a query's result
// depends only on the query (entry seeds hash from the vector), not on
// call order or interleaving with other queries.
func TestSearchDeterministicPerQuery(t *testing.T) {
	ix, vs := execTestIndex(t)
	first := search(ix, vs[7], 4, 0, 300)
	for i := 0; i < 5; i++ {
		search(ix, vs[i*31], 2, 0, 300) // interleave other queries
		if got := search(ix, vs[7], 4, 0, 300); !reflect.DeepEqual(got, first) {
			t.Fatalf("repeat %d: %v, want %v", i, got, first)
		}
	}
}
