package tknn_test

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	tknn "repro"
)

// compile-time interface checks.
var (
	_ tknn.Index = (*tknn.MBI)(nil)
	_ tknn.Index = (*tknn.BSBF)(nil)
	_ tknn.Index = (*tknn.SF)(nil)
)

func randClustered(seed int64, n, dim int) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float32, 5)
	for c := range centers {
		v := make([]float32, dim)
		for i := range v {
			v[i] = float32(rng.NormFloat64())
		}
		centers[c] = v
	}
	out := make([][]float32, n)
	for i := range out {
		c := centers[rng.Intn(len(centers))]
		v := make([]float32, dim)
		for j := range v {
			v[j] = c[j] + float32(rng.NormFloat64()*0.6)
		}
		out[i] = v
	}
	return out
}

func TestMBIOptionsDefaults(t *testing.T) {
	o := tknn.MBIOptions{Dim: 16}
	if err := o.ApplyDefaults(); err != nil {
		t.Fatal(err)
	}
	if o.LeafSize != 1024 || o.Tau != 0.5 || o.GraphDegree != 24 ||
		o.MaxCandidates != 48 || o.Epsilon != 1.1 || o.Workers != 1 || o.Seed != 1 {
		t.Errorf("defaults = %+v", o)
	}
	bad := tknn.MBIOptions{}
	if err := bad.ApplyDefaults(); err == nil {
		t.Error("Dim=0 accepted")
	}
	badEps := tknn.MBIOptions{Dim: 4, Epsilon: 0.5}
	if err := badEps.ApplyDefaults(); err == nil {
		t.Error("Epsilon < 1 accepted")
	}
}

func TestMBIEndToEnd(t *testing.T) {
	ix, err := tknn.NewMBI(tknn.MBIOptions{Dim: 12, LeafSize: 32, GraphDegree: 8, MaxCandidates: 64, Epsilon: 1.4})
	if err != nil {
		t.Fatal(err)
	}
	vs := randClustered(1, 300, 12)
	for i, v := range vs {
		if err := ix.Add(v, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Len() != 300 {
		t.Fatalf("Len = %d", ix.Len())
	}
	if ix.BlockCount() == 0 || ix.TreeHeight() == 0 {
		t.Errorf("tree not growing: %d blocks height %d", ix.BlockCount(), ix.TreeHeight())
	}
	res, err := ix.Search(tknn.Query{Vector: vs[123], K: 5, Start: 100, End: 200})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("%d results", len(res))
	}
	if res[0].ID != 123 || res[0].Dist != 0 || res[0].Time != 123 {
		t.Errorf("self-query first result = %+v", res[0])
	}
	for i, r := range res {
		if r.Time < 100 || r.Time >= 200 {
			t.Errorf("result %d time %d outside window", i, r.Time)
		}
	}
}

func TestMBIErrorPaths(t *testing.T) {
	ix, err := tknn.NewMBI(tknn.MBIOptions{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Add([]float32{1, 2}, 0); !errors.Is(err, tknn.ErrDimension) {
		t.Errorf("wrong-dim Add error = %v", err)
	}
	if err := ix.Add([]float32{1, 2, 3, 4}, 10); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add([]float32{1, 2, 3, 4}, 5); !errors.Is(err, tknn.ErrTimestampOrder) {
		t.Errorf("out-of-order Add error = %v", err)
	}
	if _, err := ix.Search(tknn.Query{Vector: []float32{1}, K: 1, Start: 0, End: 1}); !errors.Is(err, tknn.ErrBadQuery) {
		t.Errorf("bad-dim query error = %v", err)
	}
	if _, err := ix.Search(tknn.Query{Vector: []float32{1, 2, 3, 4}, K: 0, Start: 0, End: 1}); !errors.Is(err, tknn.ErrBadQuery) {
		t.Errorf("k=0 query error = %v", err)
	}
	if _, err := ix.Search(tknn.Query{Vector: []float32{1, 2, 3, 4}, K: 1, Start: 5, End: 5}); !errors.Is(err, tknn.ErrBadQuery) {
		t.Errorf("empty-window query error = %v", err)
	}
}

func TestMBISaveLoad(t *testing.T) {
	opts := tknn.MBIOptions{Dim: 8, LeafSize: 16, GraphDegree: 6}
	ix, err := tknn.NewMBI(opts)
	if err != nil {
		t.Fatal(err)
	}
	vs := randClustered(2, 100, 8)
	for i, v := range vs {
		if err := ix.Add(v, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := tknn.LoadMBI(&buf, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 100 || got.BlockCount() != ix.BlockCount() {
		t.Fatalf("loaded: len %d blocks %d", got.Len(), got.BlockCount())
	}
	res, err := got.Search(tknn.Query{Vector: vs[50], K: 1, Start: 0, End: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != 50 {
		t.Errorf("post-load search = %v", res)
	}
}

func TestBSBFExactness(t *testing.T) {
	ix, err := tknn.NewBSBF(6, tknn.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	vs := randClustered(3, 200, 6)
	for i, v := range vs {
		if err := ix.Add(v, int64(i*2)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := ix.Search(tknn.Query{Vector: vs[77], K: 3, Start: 0, End: 400})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].ID != 77 || res[0].Dist != 0 || res[0].Time != 154 {
		t.Errorf("first result = %+v", res[0])
	}
	if _, err := tknn.NewBSBF(0, tknn.Euclidean); err == nil {
		t.Error("dim 0 accepted")
	}
	if _, err := tknn.NewBSBF(4, tknn.Metric(9)); err == nil {
		t.Error("bad metric accepted")
	}
}

func TestSFLifecycle(t *testing.T) {
	ix, err := tknn.NewSF(tknn.SFOptions{Dim: 10, GraphDegree: 8, Epsilon: 1.3, RebuildEvery: 150})
	if err != nil {
		t.Fatal(err)
	}
	vs := randClustered(4, 400, 10)
	for i, v := range vs {
		if err := ix.Add(v, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// RebuildEvery=150 should have triggered at least two automatic builds.
	if ix.Built() < 300 {
		t.Errorf("Built = %d, want >= 300 after automatic rebuilds", ix.Built())
	}
	ix.Build()
	if ix.Built() != 400 {
		t.Errorf("Built = %d after explicit Build", ix.Built())
	}
	res, err := ix.Search(tknn.Query{Vector: vs[321], K: 4, Start: 0, End: 400})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 || res[0].ID != 321 {
		t.Errorf("search = %v", res)
	}

	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := tknn.LoadSF(&buf, tknn.SFOptions{Dim: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 400 || got.Built() != 400 {
		t.Fatalf("loaded len %d built %d", got.Len(), got.Built())
	}
}

func TestSFOptionsValidation(t *testing.T) {
	if _, err := tknn.NewSF(tknn.SFOptions{}); err == nil {
		t.Error("Dim 0 accepted")
	}
	if _, err := tknn.NewSF(tknn.SFOptions{Dim: 4, Epsilon: 0.9}); err == nil {
		t.Error("Epsilon < 1 accepted")
	}
	if _, err := tknn.NewSF(tknn.SFOptions{Dim: 4, RebuildEvery: -1}); err == nil {
		t.Error("negative RebuildEvery accepted")
	}
}

// TestCrossIndexAgreement: on the same data, all three indexes agree on
// the (unambiguous) nearest neighbor.
func TestCrossIndexAgreement(t *testing.T) {
	vs := randClustered(6, 256, 8)
	mbi, err := tknn.NewMBI(tknn.MBIOptions{Dim: 8, LeafSize: 32, GraphDegree: 8, Epsilon: 1.4})
	if err != nil {
		t.Fatal(err)
	}
	bs, err := tknn.NewBSBF(8, tknn.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	sfIx, err := tknn.NewSF(tknn.SFOptions{Dim: 8, GraphDegree: 8, Epsilon: 1.4})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vs {
		for _, ix := range []tknn.Index{mbi, bs, sfIx} {
			if err := ix.Add(v, int64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	sfIx.Build()
	q := tknn.Query{Vector: vs[200], K: 1, Start: 150, End: 256}
	for name, ix := range map[string]tknn.Index{"mbi": mbi, "bsbf": bs, "sf": sfIx} {
		res, err := ix.Search(q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res) != 1 || res[0].ID != 200 {
			t.Errorf("%s: self-query = %v", name, res)
		}
	}
}

func TestMetricString(t *testing.T) {
	if tknn.Euclidean.String() != "euclidean" || tknn.Angular.String() != "angular" {
		t.Error("metric names wrong")
	}
}

// TestHugeKClampedToLen: K sizes the result heaps, so an absurd K must be
// clamped to the index's vector count before it reaches an allocation
// (math.MaxInt used to panic in makeslice). The clamp cannot change an
// answer — no query returns more than Len() neighbors — so every facade
// answers exactly as it does for K = Len().
func TestHugeKClampedToLen(t *testing.T) {
	const n, dim = 200, 8
	vs := randClustered(9, n, dim)
	mbi, err := tknn.NewMBI(tknn.MBIOptions{Dim: dim, LeafSize: 32, GraphDegree: 8, Epsilon: 1.4})
	if err != nil {
		t.Fatal(err)
	}
	bs, err := tknn.NewBSBF(dim, tknn.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	sfIx, err := tknn.NewSF(tknn.SFOptions{Dim: dim, GraphDegree: 8, Epsilon: 1.4})
	if err != nil {
		t.Fatal(err)
	}
	ivfIx, err := tknn.NewIVF(tknn.IVFOptions{Dim: dim, Lists: 8, Probes: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vs {
		for _, ix := range []tknn.Index{mbi, bs, sfIx, ivfIx} {
			if err := ix.Add(v, int64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	sfIx.Build()
	if err := ivfIx.Build(); err != nil {
		t.Fatal(err)
	}
	const start, end = 30, 170
	for _, c := range []struct {
		name  string
		ix    tknn.Index
		exact bool // answers the whole window when K allows
	}{{"mbi", mbi, false}, {"bsbf", bs, true}, {"sf", sfIx, false}, {"ivf", ivfIx, true}} {
		want, err := c.ix.Search(tknn.Query{Vector: vs[77], K: n, Start: start, End: end})
		if err != nil {
			t.Fatalf("%s K=Len: %v", c.name, err)
		}
		got, err := c.ix.Search(tknn.Query{Vector: vs[77], K: math.MaxInt, Start: start, End: end})
		if err != nil {
			t.Fatalf("%s K=MaxInt: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: K=MaxInt answer differs from K=Len()", c.name)
		}
		if len(got) == 0 || len(got) > end-start || (c.exact && len(got) != end-start) {
			t.Errorf("%s: %d results for a %d-vector window", c.name, len(got), end-start)
		}
	}
}
