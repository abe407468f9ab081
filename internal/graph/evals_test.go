package graph_test

import (
	"math/rand"
	"testing"

	tknn "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/theap"
	"repro/internal/vec"
)

// BenchmarkServeLongEvals counts the distance evaluations of the graph
// walks of a serve-long-shaped query set: the benchmark harness's data
// (128-d drifting clusters, 8 leaves of 512 plus a half-full open leaf)
// indexed by MBI at the library defaults, 2 000 queries whose windows
// cover 30-95 % of the span. Every selected graph block is walked from
// four seeds by the Searcher and by RefWalk, the walk without the
// per-query distance memo; the answers must agree, and the two counts
// are reported per query:
//
//	go test -run '^$' -bench ServeLongEvals -benchtime 1x ./internal/graph/
func BenchmarkServeLongEvals(b *testing.B) {
	const dim, leaf, n0, queries, probes, k = 128, 512, 8*512 + 256, 2000, 4, 10
	data := dataset.GenerateDrifting(dataset.Profile{
		Name: "serve-long", Dim: dim, Metric: vec.Euclidean,
		TrainN: n0, TestN: queries, Clusters: 64, ClusterStd: 1.0, Background: 0.1,
	}, dataset.DriftConfig{Rate: 5e-4}, 1)
	opts := tknn.MBIOptions{Dim: dim, LeafSize: leaf}
	ix, err := tknn.NewMBI(opts)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < data.Train.Len(); i++ {
		if err := ix.Add(data.Train.At(i), int64(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := opts.ApplyDefaults(); err != nil {
		b.Fatal(err)
	}
	inner := ix.Internal()
	blocks := map[[2]int]core.Block{}
	for _, blk := range inner.Blocks() {
		blocks[[2]int{blk.Lo, blk.Hi}] = blk
	}
	store, times := inner.Store(), inner.Times()
	p := graph.SearchParams{MC: opts.MaxCandidates, Eps: float32(opts.Epsilon)}
	s := graph.NewSearcher(0)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		var before, after int
		for qi := 0; qi < queries; qi++ {
			q := data.Test[qi]
			length := int64(0.30*n0 + rng.Float64()*0.65*n0)
			ts := rng.Int63n(n0 - length + 1)
			te := ts + length
			for _, r := range inner.SelectedRanges(ts, te, opts.Tau) {
				blk, sealed := blocks[r]
				if !sealed {
					continue // the open leaf: a brute scan, the same before and after
				}
				view := vec.View{Store: store, Lo: blk.Lo, Hi: blk.Hi, Metric: vec.Euclidean}
				entries := make([]int32, probes)
				for i := range entries {
					entries[i] = graph.RandomEntry(rng, blk.Len())
				}
				bt := times[blk.Lo:blk.Hi]
				var top theap.TopK
				s.SearchInto(&top, blk.Graph, view, q, bt, ts, te, p, entries, k)
				got := top.Items()
				qsq := vec.SquaredNorm(q)
				dist := func(i int32) float32 { return view.DistToCached(q, qsq, int(i)) }
				want, evals, _ := graph.RefWalk(blk.Graph, dist, vec.Euclidean, bt, ts, te, p, entries, k)
				if len(got) != len(want) {
					b.Fatalf("query %d block [%d,%d): %d results, reference %d", qi, blk.Lo, blk.Hi, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						b.Fatalf("query %d block [%d,%d): result %d = %v, reference %v", qi, blk.Lo, blk.Hi, i, got[i], want[i])
					}
				}
				before += evals
				after += s.DistEvals()
			}
		}
		b.ReportMetric(float64(before)/queries, "ref-evals/query")
		b.ReportMetric(float64(after)/queries, "evals/query")
	}
}
