package tknn_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	tknn "repro"
	"repro/internal/bsbf"
	"repro/internal/graph"
	"repro/internal/ivf"
	"repro/internal/nndescent"
	"repro/internal/sf"
	"repro/internal/theap"
	"repro/internal/vec"
)

// setProcs pins GOMAXPROCS — all that the width of a query depends on
// besides its plan — until the test ends. The setting is process-wide:
// never call it under t.Parallel.
func setProcs(t testing.TB, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestNonFiniteRejected: a NaN or ±Inf coordinate poisons every distance
// computed against it, so all four facades refuse it — ErrNonFinite and an
// unchanged Len on the stored side, ErrBadQuery on the query side.
func TestNonFiniteRejected(t *testing.T) {
	const dim = 4
	mbi, err := tknn.NewMBI(tknn.MBIOptions{Dim: dim, LeafSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	bs, err := tknn.NewBSBF(dim, tknn.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	sfIx, err := tknn.NewSF(tknn.SFOptions{Dim: dim})
	if err != nil {
		t.Fatal(err)
	}
	ivfIx, err := tknn.NewIVF(tknn.IVFOptions{Dim: dim})
	if err != nil {
		t.Fatal(err)
	}
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	bad := map[string][]float32{
		"NaN":  {1, nan, 3, 4},
		"+Inf": {inf, 2, 3, 4},
		"-Inf": {1, 2, 3, -inf},
	}
	for name, ix := range map[string]tknn.Index{"mbi": mbi, "bsbf": bs, "sf": sfIx, "ivf": ivfIx} {
		if err := ix.Add([]float32{1, 2, 3, 4}, 1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for what, v := range bad {
			if err := ix.Add(v, 2); !errors.Is(err, tknn.ErrNonFinite) {
				t.Errorf("%s: Add(%s) error = %v, want ErrNonFinite", name, what, err)
			}
			if ix.Len() != 1 {
				t.Fatalf("%s: Len = %d after refused Add(%s), want 1", name, ix.Len(), what)
			}
			res, err := ix.Search(tknn.Query{Vector: v, K: 1, Start: 0, End: 10})
			if !errors.Is(err, tknn.ErrBadQuery) {
				t.Errorf("%s: Search(%s) = %v, %v, want ErrBadQuery", name, what, res, err)
			}
		}
		// Finite coordinates whose squares overflow are not the refused case.
		if err := ix.Add([]float32{3e38, -3e38, 1, 1}, 2); err != nil || ix.Len() != 2 {
			t.Errorf("%s: Add(finite, norm overflows) = %v, Len %d; want accepted", name, err, ix.Len())
		}
	}
}

// answers is one system's replies to the test's queries, in order.
type answers [][]tknn.Result

// sameBits reports whether two answer sets agree on every id, timestamp and
// distance bit pattern.
func sameBits(a, b answers) error {
	for qi := range a {
		if len(a[qi]) != len(b[qi]) {
			return fmt.Errorf("query %d: %d results vs %d", qi, len(a[qi]), len(b[qi]))
		}
		for i, ra := range a[qi] {
			rb := b[qi][i]
			if ra.ID != rb.ID || ra.Time != rb.Time || math.Float32bits(ra.Dist) != math.Float32bits(rb.Dist) {
				return fmt.Errorf("query %d result %d: %+v vs %+v", qi, i, ra, rb)
			}
		}
	}
	return nil
}

// TestOneRuleFourIndexes: exec.Run's width comes from GOMAXPROCS alone, for
// every index alike — the facades and the inner pooled Search of bsbf, sf
// and ivf (pinned to one worker before the knob went) — and it never
// changes an answer: ids, times and distance bits are identical at 1, 2 and
// 4 procs, i.e. on the inline loop, on runSeqCold (the spilled MBI) and on
// the claim workers.
func TestOneRuleFourIndexes(t *testing.T) {
	const dim, n, k = 8, 600, 7
	vs := randClustered(31, n, dim)

	mbiOpts := tknn.MBIOptions{Dim: dim, LeafSize: 32, GraphDegree: 8, Epsilon: 1.3}
	flat, err := tknn.NewMBI(mbiOpts)
	if err != nil {
		t.Fatal(err)
	}
	sq8Opts := mbiOpts
	sq8Opts.Compression = tknn.CompressionSQ8
	sq8, err := tknn.NewMBI(sq8Opts)
	if err != nil {
		t.Fatal(err)
	}
	coldOpts := sq8Opts
	coldOpts.SpillDir, coldOpts.CacheBytes, coldOpts.SpillMaxHeight = t.TempDir(), 1<<14, 64
	cold, err := tknn.NewMBI(coldOpts)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := tknn.NewBSBFWithOptions(tknn.BSBFOptions{Dim: dim, Compression: tknn.CompressionSQ8, ChunkSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	sfIx, err := tknn.NewSF(tknn.SFOptions{Dim: dim, GraphDegree: 8, Epsilon: 1.3})
	if err != nil {
		t.Fatal(err)
	}
	ivfIx, err := tknn.NewIVF(tknn.IVFOptions{Dim: dim, Lists: 8, Probes: 5})
	if err != nil {
		t.Fatal(err)
	}
	builder := nndescent.MustNew(nndescent.DefaultConfig(8))
	innerSF := sf.New(dim, vec.Euclidean, builder)
	innerIVF := ivf.New(dim, vec.Euclidean, ivf.Config{Lists: 8})
	// The flat scan only splits past bsbf.ScanChunk rows, so the inner BSBF
	// gets a long cheap dataset of its own.
	innerBSBF := bsbf.New(dim, vec.Euclidean)
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 2*bsbf.ScanChunk+300; i++ {
		v := vs[rng.Intn(n)]
		if err := innerBSBF.Append(v, int64(i)); err != nil {
			t.Fatal(err)
		}
	}

	const built = n - 90 // SF and IVF keep an unbuilt tail
	for i, v := range vs {
		for _, ix := range []tknn.Index{flat, sq8, cold, bs, sfIx, ivfIx} {
			if err := ix.Add(v, int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := innerSF.Append(v, int64(i)); err != nil {
			t.Fatal(err)
		}
		if err := innerIVF.Append(v, int64(i)); err != nil {
			t.Fatal(err)
		}
		if i == built-1 {
			sfIx.Build()
			innerSF.BuildGraph(3)
			if err := ivfIx.Build(); err != nil {
				t.Fatal(err)
			}
			if err := innerIVF.Build(3); err != nil {
				t.Fatal(err)
			}
		}
	}
	if blocks, _, err := cold.SpillCold(); err != nil || blocks == 0 {
		t.Fatalf("SpillCold = %d blocks, %v; the spilled MBI has no cold plans", blocks, err)
	}

	type window struct{ start, end int64 }
	windows := []window{{0, n}, {20, 500}, {100, 260}, {built - 40, n}, {n - 20, n}}
	queries := make([]tknn.Query, 0, 4*len(windows))
	for qi := 0; qi < 4; qi++ {
		for _, w := range windows {
			queries = append(queries, tknn.Query{Vector: vs[rng.Intn(n)], K: k, Start: w.start, End: w.end})
		}
	}
	fromNeighbors := func(ns []theap.Neighbor) []tknn.Result {
		out := make([]tknn.Result, len(ns))
		for i, nb := range ns {
			out[i] = tknn.Result{ID: int(nb.ID), Dist: nb.Dist}
		}
		return out
	}
	sp := graph.SearchParams{MC: 16, Eps: 1.3}
	systems := []struct {
		name   string
		search func(q tknn.Query) ([]tknn.Result, error)
	}{
		{"mbi-flat", flat.Search},
		{"mbi-sq8", sq8.Search},
		{"mbi-spilled", func(q tknn.Query) ([]tknn.Result, error) {
			res, info, err := cold.SearchDetailed(context.Background(), q)
			if err == nil && info.Partial {
				err = errors.New("partial answer: a cold fetch failed")
			}
			return res, err
		}},
		{"bsbf", bs.Search},
		{"sf", sfIx.Search},
		{"ivf", ivfIx.Search},
		{"inner-bsbf", func(q tknn.Query) ([]tknn.Result, error) {
			// Stretch the window over the long dataset's several chunks.
			scale := int64(innerBSBF.Len() / n)
			return fromNeighbors(innerBSBF.Search(q.Vector, q.K, q.Start*scale, q.End*scale)), nil
		}},
		{"inner-sf", func(q tknn.Query) ([]tknn.Result, error) {
			return fromNeighbors(innerSF.Search(q.Vector, q.K, q.Start, q.End, sp, rand.New(rand.NewSource(9)))), nil
		}},
		{"inner-ivf", func(q tknn.Query) ([]tknn.Result, error) {
			return fromNeighbors(innerIVF.Search(q.Vector, q.K, q.Start, q.End, 5)), nil
		}},
	}

	want := map[string]answers{}
	for _, procs := range []int{1, 2, 4} {
		setProcs(t, procs)
		for _, sys := range systems {
			got := make(answers, len(queries))
			for qi, q := range queries {
				res, err := sys.search(q)
				if err != nil || len(res) == 0 {
					t.Fatalf("%s procs=%d query %d: %d results, %v", sys.name, procs, qi, len(res), err)
				}
				got[qi] = res
			}
			if procs == 1 {
				want[sys.name] = got
				continue
			}
			if err := sameBits(want[sys.name], got); err != nil {
				t.Errorf("%s: procs=%d differs from procs=1: %v", sys.name, procs, err)
			}
		}
	}
}

// TestCancelledContextReachesEveryIndex: a query's context must reach the
// executor of every index, so an already-cancelled one runs no subtask —
// the answer is Partial and not an error. An index that replaced the
// caller's context with a fresh one would answer in full.
func TestCancelledContextReachesEveryIndex(t *testing.T) {
	const dim, n = 8, 400
	vs := randClustered(41, n, dim)
	mbi, err := tknn.NewMBI(tknn.MBIOptions{Dim: dim, LeafSize: 32, GraphDegree: 8})
	if err != nil {
		t.Fatal(err)
	}
	bs, err := tknn.NewBSBF(dim, tknn.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	sfIx, err := tknn.NewSF(tknn.SFOptions{Dim: dim, GraphDegree: 8})
	if err != nil {
		t.Fatal(err)
	}
	ivfIx, err := tknn.NewIVF(tknn.IVFOptions{Dim: dim, Lists: 8})
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

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := tknn.Query{Vector: vs[7], K: 5, Start: 0, End: n}
	for _, c := range []struct {
		name   string
		search func() ([]tknn.Result, tknn.SearchInfo, error)
	}{
		{"mbi", func() ([]tknn.Result, tknn.SearchInfo, error) { return mbi.SearchDetailed(ctx, q) }},
		{"bsbf", func() ([]tknn.Result, tknn.SearchInfo, error) { return bs.SearchDetailed(ctx, q) }},
		{"sf", func() ([]tknn.Result, tknn.SearchInfo, error) { return sfIx.SearchDetailed(ctx, q) }},
		{"ivf", func() ([]tknn.Result, tknn.SearchInfo, error) { return ivfIx.SearchDetailed(ctx, q, 4) }},
	} {
		res, info, err := c.search()
		if err != nil || !info.Partial {
			t.Errorf("%s: cancelled query = %d results, Partial %v, err %v; want Partial and no error",
				c.name, len(res), info.Partial, err)
		}
	}
}
