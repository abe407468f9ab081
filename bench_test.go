// Benchmarks regenerating every table and figure of the paper's
// evaluation, one testing.B function per artifact. They run the bench
// harness at QuickConfig scale so that `go test -bench=.` finishes in
// minutes; use cmd/mbibench for full-scale runs (and EXPERIMENTS.md for
// recorded results).
package tknn_test

import (
	"io"
	"math/rand"
	"testing"

	tknn "repro"
	"repro/internal/bench"
	"repro/internal/dataset"
)

func quickProfiles(b *testing.B, names ...string) []dataset.Profile {
	b.Helper()
	var out []dataset.Profile
	for _, n := range names {
		p, err := dataset.ProfileByName(n)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

func Benchmark_Table2_Datasets(b *testing.B) {
	c := bench.QuickConfig()
	for i := 0; i < b.N; i++ {
		bench.Table2(c, dataset.Profiles(), io.Discard)
	}
}

func Benchmark_Table3_Parameters(b *testing.B) {
	c := bench.QuickConfig()
	for i := 0; i < b.N; i++ {
		bench.Table3(c, dataset.Profiles(), io.Discard)
	}
}

func Benchmark_Table4_IndexSizes(b *testing.B) {
	c := bench.QuickConfig()
	ps := quickProfiles(b, "MovieLens", "COMS")
	for i := 0; i < b.N; i++ {
		bench.Table4(c, ps, io.Discard)
	}
}

func Benchmark_Fig5_SearchPerformance(b *testing.B) {
	c := bench.QuickConfig()
	ps := quickProfiles(b, "MovieLens")
	for i := 0; i < b.N; i++ {
		bench.Fig5(c, ps, io.Discard)
	}
}

func Benchmark_Fig6_RecallQPS(b *testing.B) {
	c := bench.QuickConfig()
	for i := 0; i < b.N; i++ {
		bench.Fig6(c, io.Discard)
	}
}

func Benchmark_Fig7_Scalability(b *testing.B) {
	c := bench.QuickConfig()
	for i := 0; i < b.N; i++ {
		bench.Fig7(c, io.Discard)
	}
}

func Benchmark_Fig8_LeafSize(b *testing.B) {
	c := bench.QuickConfig()
	for i := 0; i < b.N; i++ {
		bench.Fig8(c, io.Discard)
	}
}

func Benchmark_Fig9_Tau(b *testing.B) {
	c := bench.QuickConfig()
	ps := quickProfiles(b, "MovieLens")
	for i := 0; i < b.N; i++ {
		bench.Fig9(c, ps, io.Discard)
	}
}

// --- public-API micro-benchmarks ----------------------------------------

// benchData builds a small clustered workload once per benchmark.
func benchData(b *testing.B, n, dim int) [][]float32 {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	centers := make([][]float32, 8)
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

func BenchmarkMBI_Add(b *testing.B) {
	vs := benchData(b, 4096, 64)
	ix, err := tknn.NewMBI(tknn.MBIOptions{Dim: 64, LeafSize: 512, GraphDegree: 12})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ix.Add(vs[i%len(vs)], int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMBI_Search(b *testing.B) {
	vs := benchData(b, 8192, 64)
	ix, err := tknn.NewMBI(tknn.MBIOptions{Dim: 64, LeafSize: 512, GraphDegree: 12, Epsilon: 1.2})
	if err != nil {
		b.Fatal(err)
	}
	for i, v := range vs {
		if err := ix.Add(v, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := rng.Intn(len(vs) / 2)
		q := tknn.Query{Vector: vs[rng.Intn(len(vs))], K: 10, Start: int64(a), End: int64(a + len(vs)/2)}
		if _, err := ix.Search(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBSBF_Search(b *testing.B) {
	vs := benchData(b, 8192, 64)
	ix, err := tknn.NewBSBF(64, tknn.Euclidean)
	if err != nil {
		b.Fatal(err)
	}
	for i, v := range vs {
		if err := ix.Add(v, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := rng.Intn(len(vs) / 2)
		q := tknn.Query{Vector: vs[rng.Intn(len(vs))], K: 10, Start: int64(a), End: int64(a + len(vs)/2)}
		if _, err := ix.Search(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSF_Search(b *testing.B) {
	vs := benchData(b, 8192, 64)
	ix, err := tknn.NewSF(tknn.SFOptions{Dim: 64, GraphDegree: 12, Epsilon: 1.2})
	if err != nil {
		b.Fatal(err)
	}
	for i, v := range vs {
		if err := ix.Add(v, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
	ix.Build()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := rng.Intn(len(vs) / 2)
		q := tknn.Query{Vector: vs[rng.Intn(len(vs))], K: 10, Start: int64(a), End: int64(a + len(vs)/2)}
		if _, err := ix.Search(q); err != nil {
			b.Fatal(err)
		}
	}
}

func Benchmark_Extension_IVF(b *testing.B) {
	c := bench.QuickConfig()
	ps := quickProfiles(b, "MovieLens")
	for i := 0; i < b.N; i++ {
		bench.IVFExperiment(c, ps, io.Discard)
	}
}

func Benchmark_Extension_AsyncMerge(b *testing.B) {
	c := bench.QuickConfig()
	for i := 0; i < b.N; i++ {
		bench.AsyncMergeExperiment(c, io.Discard)
	}
}
