package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bsbf"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/nndescent"
	"repro/internal/vec"
)

// TestDefaultTauIsWithinTenPercentOfFewestEvals pins the answer to §5.4.2's
// closing suggestion (pre-compute τ per window size): at the library
// defaults, τ = 0.5 costs at most 10 % more distance evaluations per query
// than the cheapest τ of the paper's grid whose recall@10 is at least its
// own, in every window-size bucket but one. In the 30 % bucket, at this
// size, τ ≤ 0.3 answers from larger blocks at the same recall and τ = 0.5
// costs 11–14 % more evals than they do (five window seeds); at 16 times
// the data τ = 0.5 is the cheapest there and τ ≤ 0.3 costs 54 % more. That
// bucket's bound is 1.15, just above the 1.138 it measures. The cost is
// counted, not timed, so the verdict is the same at every GOMAXPROCS and on
// either distance kernel. A change that moves the walk's work (admission,
// entry seeds, block selection) re-checks the default here.
func TestDefaultTauIsWithinTenPercentOfFewestEvals(t *testing.T) {
	const (
		n       = 8*512 + 256 // eight sealed leaves and a half-full open one
		queries = 100
		k       = 10
	)
	// The benchmark harness's generator and seed.
	profile := dataset.Profile{
		Name: "tau", Dim: 128, Metric: vec.Euclidean, TrainN: n, TestN: queries,
		Clusters: 64, ClusterStd: 1.0, Background: 0.1,
	}
	d := dataset.GenerateDrifting(profile, dataset.DriftConfig{Rate: 5e-4}, 3)
	ix, err := New(Options{
		Dim: profile.Dim, Metric: profile.Metric, LeafSize: 512, Tau: 0.5,
		Builder: nndescent.MustNew(nndescent.DefaultConfig(24)),
		Search:  graph.SearchParams{MC: 48, Eps: 1.1},
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := ix.Append(d.Train.At(i), d.Times[i]); err != nil {
			t.Fatal(err)
		}
	}
	exact, err := bsbf.FromData(d.Train, d.Times, profile.Metric)
	if err != nil {
		t.Fatal(err)
	}

	taus := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	const def = 2 // taus[def] is the default
	scr := NewScratch()
	rng := rand.New(rand.NewSource(3))
	for _, bucket := range []struct{ frac, bound float64 }{
		{0.02, 1.10}, {0.1, 1.10}, {0.3, 1.15}, {0.6, 1.10}, {1.0, 1.10},
	} {
		frac := bucket.frac
		// Fixed-length windows at uniform offsets; every τ answers the same
		// queries.
		length := int(frac * n)
		starts := make([]int, queries)
		for i := range starts {
			starts[i] = rng.Intn(n - length + 1)
		}
		evals := make([]int, len(taus))
		recall := make([]float64, len(taus))
		for i, q := range d.Test {
			ts, te := d.Times[starts[i]], d.Times[starts[i]+length-1]+1
			want := exactSearch(exact, q, k, ts, te)
			for j, tau := range taus {
				got, out := ix.Query(context.Background(), scr, Request{Q: q, K: k, Ts: ts, Te: te, Tau: tau})
				recall[j] += dataset.Recall(got, want, k)
				evals[j] += out.DistEvals
			}
		}
		fewest := evals[def]
		for j := range taus {
			if recall[j] >= recall[def] {
				fewest = min(fewest, evals[j])
			}
		}
		ratio := float64(evals[def]) / float64(fewest)
		t.Logf("window %3.0f%%: evals/query %.0f, recall@10 %.3f, τ = 0.5 at %.3f × the fewest",
			frac*100, perQuery(evals, queries), perQuery(recall, queries), ratio)
		if ratio > bucket.bound {
			t.Errorf("window %.0f%%: τ = 0.5 costs %d evals, %.3f × the fewest (%d) at recall ≥ its %.3f; bound %.2f",
				frac*100, evals[def], ratio, fewest, recall[def]/queries, bucket.bound)
		}
	}
}

// perQuery divides each total by the query count.
func perQuery[T int | float64](totals []T, queries int) []float64 {
	out := make([]float64, len(totals))
	for i, v := range totals {
		out[i] = float64(v) / float64(queries)
	}
	return out
}
