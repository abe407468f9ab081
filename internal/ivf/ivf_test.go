package ivf

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bsbf"
	"repro/internal/exec"
	"repro/internal/theap"
	"repro/internal/vec"
)

// search runs Query on a fresh scratch, which its results alias.
func search(ix *Index, q []float32, k int, ts, te int64, nprobe int) []theap.Neighbor {
	res, _ := ix.Query(context.Background(), exec.NewScratch(), q, k, ts, te, nprobe)
	return res
}

// exactSearch is the same through BSBF's exact query body.
func exactSearch(ix *bsbf.Index, q []float32, k int, ts, te int64) []theap.Neighbor {
	res, _ := ix.Query(context.Background(), exec.NewScratch(), q, k, ts, te)
	return res
}

func clusteredData(seed int64, n, dim, clusters int) [][]float32 {
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
			v[j] = c[j] + float32(rng.NormFloat64()*0.3)
		}
		out[i] = v
	}
	return out
}

func buildIVF(t *testing.T, vs [][]float32, cfg Config) *Index {
	t.Helper()
	ix := New(len(vs[0]), vec.Euclidean, cfg)
	for i, v := range vs {
		if err := ix.Append(v, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Build(3); err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestAppendValidation(t *testing.T) {
	ix := New(2, vec.Euclidean, Config{})
	if err := ix.Append([]float32{1, 2}, 5); err != nil {
		t.Fatal(err)
	}
	if err := ix.Append([]float32{1, 2}, 4); err == nil {
		t.Error("decreasing timestamp accepted")
	}
	if err := ix.Append([]float32{1}, 6); err == nil {
		t.Error("wrong dimension accepted")
	}
	if err := New(2, vec.Euclidean, Config{}).Build(1); err == nil {
		t.Error("empty build accepted")
	}
}

func TestBuildShape(t *testing.T) {
	vs := clusteredData(1, 900, 8, 6)
	ix := buildIVF(t, vs, Config{}) // default sqrt(900)=30 lists
	if ix.Lists() != 30 {
		t.Errorf("%d lists, want 30", ix.Lists())
	}
	st := ix.Stats()
	if st.Lists != 30 || st.MeanList < 29 || st.MeanList > 31 {
		t.Errorf("stats %+v", st)
	}
	// Inverted lists are in ascending id (time) order.
	for c, l := range ix.lists {
		for i := 1; i < len(l); i++ {
			if l[i] <= l[i-1] {
				t.Fatalf("list %d not ascending", c)
			}
		}
	}
}

func TestSearchExactWithAllProbes(t *testing.T) {
	vs := clusteredData(2, 600, 8, 5)
	ix := buildIVF(t, vs, Config{Lists: 20})
	exact, err := bsbf.FromData(ix.store, ix.times, vec.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		a := rng.Intn(600)
		b := a + 1 + rng.Intn(600-a)
		q := vs[rng.Intn(len(vs))]
		got := search(ix, q, 5, int64(a), int64(b), 20) // probe everything
		want := exactSearch(exact, q, 5, int64(a), int64(b))
		if len(got) != len(want) {
			t.Fatalf("[%d,%d): %d results, want %d", a, b, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("[%d,%d): result %d = %v, want %v", a, b, i, got[i], want[i])
			}
		}
	}
}

func TestSearchRecallGrowsWithProbes(t *testing.T) {
	vs := clusteredData(3, 2000, 16, 10)
	ix := buildIVF(t, vs, Config{Lists: 40})
	exact, err := bsbf.FromData(ix.store, ix.times, vec.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	recallAt := func(nprobe int) float64 {
		var sum float64
		const trials = 40
		r := rand.New(rand.NewSource(6)) // same queries for each probe level
		_ = rng
		for trial := 0; trial < trials; trial++ {
			q := vs[r.Intn(len(vs))]
			got := search(ix, q, 10, 0, 2000, nprobe)
			want := exactSearch(exact, q, 10, 0, 2000)
			thr := want[len(want)-1].Dist * 1.00001
			hits := 0
			for _, g := range got {
				if g.Dist <= thr {
					hits++
				}
			}
			sum += float64(hits) / float64(len(want))
		}
		return sum / trials
	}
	r1, r4, rAll := recallAt(1), recallAt(4), recallAt(40)
	if !(r1 <= r4+0.05 && r4 <= rAll+1e-9) {
		t.Errorf("recall not increasing with probes: %g, %g, %g", r1, r4, rAll)
	}
	if rAll < 0.999 {
		t.Errorf("full-probe recall %g, want 1.0", rAll)
	}
	if r4 < 0.5 {
		t.Errorf("4-probe recall %g suspiciously low", r4)
	}
}

func TestSearchWindowRestriction(t *testing.T) {
	vs := clusteredData(7, 500, 8, 4)
	ix := buildIVF(t, vs, Config{Lists: 10})
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		a := rng.Intn(500)
		b := a + 1 + rng.Intn(500-a)
		got := search(ix, vs[rng.Intn(len(vs))], 8, int64(a), int64(b), 10)
		for _, g := range got {
			if int(g.ID) < a || int(g.ID) >= b {
				t.Fatalf("result %d outside [%d, %d)", g.ID, a, b)
			}
		}
	}
	if got := search(ix, vs[0], 3, 5, 5, 10); got != nil {
		t.Errorf("empty window returned %v", got)
	}
	if got := search(ix, vs[0], 0, 0, 10, 10); got != nil {
		t.Errorf("k=0 returned %v", got)
	}
}

func TestSearchTailScan(t *testing.T) {
	vs := clusteredData(9, 300, 8, 4)
	ix := New(8, vec.Euclidean, Config{Lists: 10})
	for i, v := range vs[:200] {
		if err := ix.Append(v, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Build(1); err != nil {
		t.Fatal(err)
	}
	for i := 200; i < 300; i++ {
		if err := ix.Append(vs[i], int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// A query targeting a tail vector must find it exactly.
	got := search(ix, vs[250], 1, 200, 300, 1)
	if len(got) != 1 || got[0].ID != 250 || got[0].Dist != 0 {
		t.Fatalf("tail search = %v", got)
	}
	// Unbuilt index still answers via pure tail scan.
	fresh := New(8, vec.Euclidean, Config{})
	for i, v := range vs[:50] {
		if err := fresh.Append(v, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	got = search(fresh, vs[25], 1, 0, 50, 1)
	if len(got) != 1 || got[0].ID != 25 {
		t.Fatalf("unbuilt search = %v", got)
	}
}
