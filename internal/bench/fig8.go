package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/nndescent"

	"repro/internal/core"
)

// Fig8Point is one checkpoint of the incremental-insertion experiment.
type Fig8Point struct {
	LeafSize int
	Inserted int
	// Cumulative is the total insertion time up to this checkpoint
	// (Figure 8a's y-axis).
	Cumulative time.Duration
	// QPS is the query throughput at this index state with windows
	// covering 5–95% of the data inserted so far (Figure 8b's y-axis).
	QPS float64
}

// Fig8 reproduces Figure 8: the effect of the leaf size S_L on
// incremental indexing time (a) and query speed (b) on the MovieLens
// profile. Vectors are inserted one at a time; at each checkpoint the
// cumulative insertion time and the query throughput are recorded.
func Fig8(c Config, w io.Writer) []Fig8Point {
	p, err := dataset.ProfileByName("MovieLens")
	if err != nil {
		panic(err)
	}
	header(w, "Figure 8 — effect of leaf size S_L (MovieLens)",
		"cumulative insert time and QPS vs inserted count, for an S_L sweep")

	d := genData(c, p)
	scaled := d.Profile
	n := d.Train.Len()

	// S_L sweep around the profile default, mirroring the paper's
	// 450/900/1800/3550/7100 geometric ladder.
	minSL := scaled.LeafSizeScaledMin()
	var leafSizes []int
	for _, mult := range []float64{0.25, 0.5, 1, 2, 4} {
		sl := int(float64(scaled.LeafSize) * mult)
		if sl < minSL {
			sl = minSL
		}
		if len(leafSizes) == 0 || leafSizes[len(leafSizes)-1] != sl {
			leafSizes = append(leafSizes, sl)
		}
	}

	const checkpoints = 10
	const k = 10
	var out []Fig8Point
	for _, sl := range leafSizes {
		ix, err := core.New(core.Options{
			Dim:      scaled.Dim,
			Metric:   scaled.Metric,
			LeafSize: sl,
			Tau:      scaled.Tau,
			Builder:  nndescent.MustNew(nndescent.DefaultConfig(scaled.GraphK)),
			Search:   graph.SearchParams{MC: scaled.MC, Eps: 1.2},
			Workers:  c.Workers,
			Seed:     c.Seed,
		})
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(w, "S_L = %d\n%10s %14s %12s\n", sl, "inserted", "cumulative", "qps")
		var cumulative time.Duration
		inserted := 0
		for cp := 1; cp <= checkpoints; cp++ {
			target := n * cp / checkpoints
			start := time.Now()
			for ; inserted < target; inserted++ {
				if err := ix.Append(d.Train.At(inserted), d.Times[inserted]); err != nil {
					panic(err)
				}
			}
			cumulative += time.Since(start)

			qps := measureIncrementalQPS(c, ix, d, k, inserted)
			pt := Fig8Point{LeafSize: sl, Inserted: inserted, Cumulative: cumulative, QPS: qps}
			out = append(out, pt)
			fmt.Fprintf(w, "%10d %14s %12.0f\n", inserted, cumulative.Round(time.Millisecond), qps)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "expected shape: cumulative time ~ n^1.14 log n; QPS dips as the tree")
	fmt.Fprintln(w, "deepens and jumps when a merge cascade completes the tree (the paper's zigzag)")
	return out
}

// measureIncrementalQPS measures throughput against the current prefix
// with window sizes drawn from 5–95% of the inserted data (§5.4.1).
func measureIncrementalQPS(c Config, ix *core.Index, d *dataset.Data, k, inserted int) float64 {
	rng := rand.New(rand.NewSource(c.Seed + int64(inserted)))
	nq := c.QueriesPerPoint / 2
	if nq < 10 {
		nq = 10
	}
	if nq > len(d.Test) {
		nq = len(d.Test)
	}
	p := graph.SearchParams{MC: d.Profile.MC, Eps: 1.2}
	times := d.Times[:inserted]
	scr := core.NewScratch()
	start := time.Now()
	for i := 0; i < nq; i++ {
		f := 0.05 + 0.9*rng.Float64()
		ts, te := dataset.WindowForFraction(rng, times, f)
		ix.Query(context.Background(), scr, core.Request{Q: d.Test[i], K: k, Ts: ts, Te: te, Params: p, Rng: rng})
	}
	return float64(nq) / time.Since(start).Seconds()
}
