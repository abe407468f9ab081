package sf

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bsbf"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/nndescent"
	"repro/internal/theap"
	"repro/internal/vec"
)

// search runs Query on a fresh scratch, which its results alias, walking
// the graph (when there is one) from an entry vertex drawn from rng.
func search(ix *Index, q []float32, k int, ts, te int64, p graph.SearchParams, rng *rand.Rand) []theap.Neighbor {
	var entry int32
	if ix.Graph() != nil && ix.Built() > 0 {
		entry = graph.RandomEntry(rng, ix.Built())
	}
	res, _ := ix.Query(context.Background(), exec.NewScratch(), q, k, ts, te, p, entry)
	return res
}

func clusteredVectors(seed int64, n, dim, clusters int) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float32, clusters)
	for c := range centers {
		v := make([]float32, dim)
		for i := range v {
			v[i] = float32(rng.NormFloat64())
		}
		centers[c] = v
	}
	out := make([][]float32, n)
	for i := range out {
		c := centers[rng.Intn(clusters)]
		v := make([]float32, dim)
		for j := range v {
			v[j] = c[j] + float32(rng.NormFloat64()*0.15)
		}
		out[i] = v
	}
	return out
}

func newTestIndex(t *testing.T, vs [][]float32) *Index {
	t.Helper()
	ix := New(len(vs[0]), vec.Euclidean, nndescent.MustNew(nndescent.DefaultConfig(16)))
	for i, v := range vs {
		if err := ix.Append(v, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return ix
}

func TestAppendValidation(t *testing.T) {
	ix := New(3, vec.Euclidean, nndescent.MustNew(nndescent.DefaultConfig(4)))
	if err := ix.Append([]float32{1, 2, 3}, 5); err != nil {
		t.Fatal(err)
	}
	if err := ix.Append([]float32{1, 2, 3}, 4); err == nil {
		t.Error("decreasing timestamp accepted")
	}
	if err := ix.Append([]float32{1, 2}, 6); err == nil {
		t.Error("wrong dimension accepted")
	}
}

func TestSearchBeforeBuildUsesTailScan(t *testing.T) {
	vs := clusteredVectors(1, 100, 8, 4)
	ix := newTestIndex(t, vs)
	// No BuildGraph: everything is in the tail, search must still be
	// exact within the window.
	rng := rand.New(rand.NewSource(2))
	p := graph.SearchParams{MC: 32, Eps: 1.1}
	res := search(ix, vs[42], 1, 0, 100, p, rng)
	if len(res) != 1 || res[0].ID != 42 || res[0].Dist != 0 {
		t.Fatalf("unbuilt-index exact search = %v", res)
	}
	res = search(ix, vs[42], 5, 10, 20, p, rng)
	for _, r := range res {
		if r.ID < 10 || r.ID >= 20 {
			t.Fatalf("tail scan leaked out-of-window id %d", r.ID)
		}
	}
}

func TestSearchRecallAfterBuild(t *testing.T) {
	vs := clusteredVectors(3, 3000, 16, 8)
	ix := newTestIndex(t, vs)
	ix.BuildGraph(7)
	if ix.Built() != 3000 {
		t.Fatalf("Built = %d", ix.Built())
	}

	exact, err := bsbf.FromData(ix.Store(), ix.Times(), vec.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	p := graph.SearchParams{MC: 48, Eps: 1.25}
	const trials, k = 40, 10
	var recall float64
	for i := 0; i < trials; i++ {
		q := vs[rng.Intn(len(vs))]
		// Long window: SF's favorable regime.
		res := search(ix, q, k, 0, 3000, p, rng)
		want, _ := exact.Query(context.Background(), exec.NewScratch(), q, k, 0, 3000)
		threshold := want[len(want)-1].Dist * 1.00001
		hits := 0
		for _, r := range res {
			if r.Dist <= threshold {
				hits++
			}
		}
		recall += float64(hits) / float64(k)
	}
	recall /= trials
	if recall < 0.85 {
		t.Errorf("long-window recall@%d = %.3f, want >= 0.85", k, recall)
	}
}

func TestSearchShortWindowStaysInWindow(t *testing.T) {
	vs := clusteredVectors(4, 2000, 8, 4)
	ix := newTestIndex(t, vs)
	ix.BuildGraph(5)
	rng := rand.New(rand.NewSource(9))
	p := graph.SearchParams{MC: 64, Eps: 1.4}
	for trial := 0; trial < 20; trial++ {
		ts := int64(rng.Intn(1900))
		te := ts + 50
		res := search(ix, vs[rng.Intn(len(vs))], 10, ts, te, p, rng)
		for _, r := range res {
			if int64(r.ID) < ts || int64(r.ID) >= te {
				t.Fatalf("result id %d outside window [%d, %d)", r.ID, ts, te)
			}
		}
	}
}

func TestSearchMixedGraphAndTail(t *testing.T) {
	vs := clusteredVectors(5, 1200, 8, 4)
	ix := newTestIndex(t, vs[:1000])
	ix.BuildGraph(3)
	for i := 1000; i < 1200; i++ {
		if err := ix.Append(vs[i], int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(10))
	p := graph.SearchParams{MC: 64, Eps: 1.4}
	// A query targeting a tail vector must find it exactly (tail is
	// scanned brute force).
	res := search(ix, vs[1100], 1, 1050, 1200, p, rng)
	if len(res) != 1 || res[0].ID != 1100 || res[0].Dist != 0 {
		t.Fatalf("tail-targeted search = %v", res)
	}
	// A window spanning both regions returns results from both.
	res = search(ix, vs[990], 20, 900, 1100, p, rng)
	var graphSide, tailSide bool
	for _, r := range res {
		if r.ID < 1000 {
			graphSide = true
		} else {
			tailSide = true
		}
		if r.ID < 900 || r.ID >= 1100 {
			t.Fatalf("out-of-window id %d", r.ID)
		}
	}
	if !graphSide || !tailSide {
		t.Errorf("span query used graph=%v tail=%v, want both", graphSide, tailSide)
	}
}

func TestRestoreValidation(t *testing.T) {
	vs := clusteredVectors(6, 50, 4, 2)
	ix := newTestIndex(t, vs)
	bad := &graph.CSR{Off: []int32{0}}
	if err := ix.Restore(bad, 50); err == nil {
		t.Error("node-count mismatch accepted")
	}
	if err := ix.Restore(bad, 100); err == nil {
		t.Error("built > len accepted")
	}
	if err := ix.Restore(bad, 0); err != nil {
		t.Errorf("empty restore rejected: %v", err)
	}
}
