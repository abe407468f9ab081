package core

import (
	"math/rand"
	"testing"

	"repro/internal/bsbf"
	"repro/internal/graph"
	"repro/internal/nndescent"
	"repro/internal/theap"
	"repro/internal/vec"
)

// testOptions returns small, fast options for structural tests.
func testOptions(leafSize int) Options {
	return Options{
		Dim:      8,
		Metric:   vec.Euclidean,
		LeafSize: leafSize,
		Tau:      0.5,
		Builder:  nndescent.MustNew(nndescent.DefaultConfig(8)),
		Search:   graph.SearchParams{MC: 32, Eps: 1.2},
		Seed:     1,
	}
}

// fill inserts n clustered vectors with timestamps 0..n-1.
func fill(t testing.TB, ix *Index, seed int64, n int) [][]float32 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dim := ix.Options().Dim
	centers := make([][]float32, 6)
	for c := range centers {
		v := make([]float32, dim)
		for i := range v {
			v[i] = float32(rng.NormFloat64())
		}
		centers[c] = v
	}
	out := make([][]float32, n)
	for i := 0; i < n; i++ {
		c := centers[rng.Intn(len(centers))]
		v := make([]float32, dim)
		// Overlapping clusters (noise comparable to center separation):
		// the geometry of real embedding clouds, and the regime where
		// single-entry graph search is reliable.
		for j := range v {
			v[j] = c[j] + float32(rng.NormFloat64()*0.6)
		}
		out[i] = v
		if err := ix.Append(v, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestOptionsValidation(t *testing.T) {
	good := testOptions(16)
	bad := []func(*Options){
		func(o *Options) { o.Dim = 0 },
		func(o *Options) { o.Metric = vec.Metric(9) },
		func(o *Options) { o.LeafSize = 0 },
		func(o *Options) { o.Tau = 0 },
		func(o *Options) { o.Tau = 1.5 },
		func(o *Options) { o.Builder = nil },
		func(o *Options) { o.Workers = -1 },
	}
	for i, mutate := range bad {
		o := good
		mutate(&o)
		if _, err := New(o); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if _, err := New(good); err != nil {
		t.Errorf("good options rejected: %v", err)
	}
}

func TestAppendValidation(t *testing.T) {
	ix, err := New(testOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	v := make([]float32, 8)
	if err := ix.Append(v, 10); err != nil {
		t.Fatal(err)
	}
	if err := ix.Append(v, 9); err == nil {
		t.Error("decreasing timestamp accepted")
	}
	if err := ix.Append(v, 10); err != nil {
		t.Errorf("equal timestamp rejected: %v", err)
	}
	if err := ix.Append(make([]float32, 3), 11); err == nil {
		t.Error("wrong dimension accepted")
	}
}

// TestTreeGrowth walks insertion through several leaf fills and checks the
// block/forest structure against the paper's figures at each step.
func TestTreeGrowth(t *testing.T) {
	const sl = 4
	ix, err := New(testOptions(sl))
	if err != nil {
		t.Fatal(err)
	}
	fill(t, ix, 1, 16) // Figure 1's scenario: 16 vectors, S_L = 4

	st := ix.Stats()
	// Perfect tree over 16 vectors with S_L=4: 4 leaves + 2 + 1 = 7 blocks.
	if st.NumBlocks != 7 {
		t.Errorf("blocks = %d, want 7", st.NumBlocks)
	}
	if st.TreeHeight != 2 {
		t.Errorf("height = %d, want 2", st.TreeHeight)
	}
	if len(st.ForestHeights) != 1 || st.ForestHeights[0] != 2 {
		t.Errorf("forest heights = %v, want [2]", st.ForestHeights)
	}
	if st.OpenLeafFill != 0 {
		t.Errorf("open leaf fill = %d, want 0", st.OpenLeafFill)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Error(err)
	}

	// Postorder numbering per Figure 1: blocks 0,1 are leaves, block 2
	// their parent, 3,4 leaves, 5 their parent, 6 the root.
	blocks := ix.Blocks()
	wantHeights := []int{0, 0, 1, 0, 0, 1, 2}
	for i, h := range wantHeights {
		if blocks[i].Height != h {
			t.Errorf("block %d height = %d, want %d", i, blocks[i].Height, h)
		}
	}
	if blocks[6].Lo != 0 || blocks[6].Hi != 16 {
		t.Errorf("root covers [%d, %d), want [0, 16)", blocks[6].Lo, blocks[6].Hi)
	}
}

// TestIncrementalGrowthInvariants drives many different insert counts and
// leaf sizes through the invariant checker.
func TestIncrementalGrowthInvariants(t *testing.T) {
	for _, sl := range []int{1, 2, 3, 5, 8} {
		ix, err := New(testOptions(sl))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(sl)))
		total := sl*16 + rng.Intn(sl*4)
		v := make([]float32, 8)
		for i := 0; i < total; i++ {
			for j := range v {
				v[j] = float32(rng.NormFloat64())
			}
			if err := ix.Append(v, int64(i)); err != nil {
				t.Fatal(err)
			}
			if i%7 == 0 {
				if err := ix.CheckInvariants(); err != nil {
					t.Fatalf("S_L=%d after %d inserts: %v", sl, i+1, err)
				}
			}
		}
		if err := ix.CheckInvariants(); err != nil {
			t.Fatalf("S_L=%d final: %v", sl, err)
		}
		// Block count: every sealed leaf creates exactly one leaf block,
		// and a perfect forest over L leaves has 2L - popcount-ish blocks;
		// cheaper check: count equals sum over forest of (2^(h+1) - 1)
		// per root.
		st := ix.Stats()
		want := 0
		for _, h := range st.ForestHeights {
			want += 1<<(uint(h)+1) - 1
		}
		if st.NumBlocks != want {
			t.Errorf("S_L=%d: %d blocks, want %d (forest %v)", sl, st.NumBlocks, want, st.ForestHeights)
		}
	}
}

func TestAppendBatchEquivalence(t *testing.T) {
	a, err := New(testOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(testOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	vs := fill(t, a, 3, 37)
	ts := make([]int64, len(vs))
	for i := range ts {
		ts[i] = int64(i)
	}
	if err := b.AppendBatch(vs, ts); err != nil {
		t.Fatal(err)
	}
	sa, sb := a.Stats(), b.Stats()
	if sa.NumBlocks != sb.NumBlocks || sa.OpenLeafFill != sb.OpenLeafFill || sa.GraphEdges != sb.GraphEdges {
		t.Errorf("batch and loop insert diverge: %+v vs %+v", sa, sb)
	}
	requireSameBlocks(t, a, b) // 37 vectors at S_L = 4: the one batch seals nine leaves in order
	if err := b.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestAppendBatchValidation(t *testing.T) {
	ix, err := New(testOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.AppendBatch([][]float32{make([]float32, 8)}, []int64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := ix.AppendBatch([][]float32{make([]float32, 8), make([]float32, 8)}, []int64{5, 3}); err == nil {
		t.Error("decreasing timestamps accepted")
	}
}

// TestSelectionCoverProperty: the selected blocks must tile the query
// window — disjoint ranges whose union contains exactly the in-window
// vectors, possibly with extra out-of-window vectors at the edges (graph
// search filters those).
func TestSelectionCoverProperty(t *testing.T) {
	ix, err := New(testOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	fill(t, ix, 5, 71) // forest with several roots and a partial open leaf
	times := ix.Times()
	n := len(times)
	rng := rand.New(rand.NewSource(6))
	for _, tau := range []float64{0.1, 0.3, 0.5, 0.7, 0.9, 1.0} {
		for trial := 0; trial < 200; trial++ {
			a := rng.Intn(n)
			b := a + 1 + rng.Intn(n-a)
			ts, te := int64(a), int64(b) // timestamps are 0..n-1
			ranges := ix.SelectedRanges(ts, te, tau)
			// Disjoint and ordered.
			for i := 1; i < len(ranges); i++ {
				if ranges[i][0] < ranges[i-1][1] {
					t.Fatalf("tau=%g window [%d,%d): overlapping ranges %v", tau, ts, te, ranges)
				}
			}
			// Cover: every in-window vector is inside some selected range.
			covered := func(idx int) bool {
				for _, r := range ranges {
					if idx >= r[0] && idx < r[1] {
						return true
					}
				}
				return false
			}
			wlo, whi := bsbf.WindowOf(times, ts, te)
			for idx := wlo; idx < whi; idx++ {
				if !covered(idx) {
					t.Fatalf("tau=%g window [%d,%d): vector %d not covered by %v", tau, ts, te, idx, ranges)
				}
			}
		}
	}
}

// TestLemma41 verifies Lemma 4.1: on a complete tree (no open leaf, single
// forest root), at most two blocks are selected when τ <= 0.5.
func TestLemma41(t *testing.T) {
	const sl = 4
	ix, err := New(testOptions(sl))
	if err != nil {
		t.Fatal(err)
	}
	fill(t, ix, 7, 64) // 64 = 4 * 2^4: perfect tree
	st := ix.Stats()
	if len(st.ForestHeights) != 1 || st.OpenLeafFill != 0 {
		t.Fatalf("setup: tree not complete (forest %v, open %d)", st.ForestHeights, st.OpenLeafFill)
	}
	rng := rand.New(rand.NewSource(8))
	for _, tau := range []float64{0.1, 0.25, 0.5} {
		for trial := 0; trial < 500; trial++ {
			a := rng.Intn(64)
			b := a + 1 + rng.Intn(64-a)
			if got := ix.SelectedBlockCount(int64(a), int64(b), tau); got > 2 {
				t.Fatalf("tau=%g window [%d,%d): %d blocks selected, lemma bounds 2", tau, a, b, got)
			}
		}
	}
	// Sanity: for some window, selection is not always a single block.
	multi := false
	for trial := 0; trial < 200; trial++ {
		a := rng.Intn(64)
		b := a + 1 + rng.Intn(64-a)
		if ix.SelectedBlockCount(int64(a), int64(b), 0.5) == 2 {
			multi = true
			break
		}
	}
	if !multi {
		t.Error("selection never used 2 blocks at tau=0.5; test is vacuous")
	}
}

// TestTauExtremes checks Figure 4's intuition: τ→0 selects blocks near the
// root (few), τ→1 selects leaves (many).
func TestTauExtremes(t *testing.T) {
	ix, err := New(testOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	fill(t, ix, 9, 64)
	// A window covering half the data, misaligned with block boundaries.
	ts, te := int64(13), int64(45)
	lo := ix.SelectedBlockCount(ts, te, 0.01)
	hi := ix.SelectedBlockCount(ts, te, 1.0)
	if lo > 2 {
		t.Errorf("tau=0.01 selected %d blocks, want <= 2", lo)
	}
	if hi <= lo {
		t.Errorf("tau=1.0 selected %d blocks, not more than tau=0.01's %d", hi, lo)
	}
	// With tau=1, internal blocks require r_o > 1 which is impossible, so
	// every selected block is a leaf.
	ranges := ix.SelectedRanges(ts, te, 1.0)
	for _, r := range ranges {
		if r[1]-r[0] != 4 {
			t.Errorf("tau=1.0 selected non-leaf range %v", r)
		}
	}
}

// TestSearchExactOnTinyWindows: windows that resolve to brute-force-sized
// sets must return exact answers (they hit leaf blocks or the open leaf).
func TestSearchExactWithinOpenLeaf(t *testing.T) {
	ix, err := New(testOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	vs := fill(t, ix, 11, 20) // 2 sealed leaves + 4 in the open leaf
	// Window entirely inside the open leaf (timestamps 16..19).
	res := ix.Search(vs[18], 2, 16, 20)
	if len(res) != 2 || res[0].ID != 18 || res[0].Dist != 0 {
		t.Fatalf("open-leaf search = %v, want id 18 first", res)
	}
}

func TestSearchEmptyAndDegenerate(t *testing.T) {
	ix, err := New(testOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Search(make([]float32, 8), 3, 0, 10); got != nil {
		t.Errorf("empty index search = %v", got)
	}
	vs := fill(t, ix, 13, 10)
	if got := ix.Search(vs[0], 0, 0, 10); got != nil {
		t.Errorf("k=0 search = %v", got)
	}
	if got := ix.Search(vs[0], 3, 7, 7); got != nil {
		t.Errorf("empty window search = %v", got)
	}
	if got := ix.Search(vs[0], 3, 100, 200); len(got) != 0 {
		t.Errorf("out-of-range window = %v", got)
	}
}

// TestSearchResultsRespectWindow fuzzes windows and checks every result
// lies inside, has correct distances, and is sorted.
func TestSearchResultsRespectWindow(t *testing.T) {
	ix, err := New(testOptions(16))
	if err != nil {
		t.Fatal(err)
	}
	vs := fill(t, ix, 15, 200)
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 100; trial++ {
		a := rng.Intn(200)
		b := a + 1 + rng.Intn(200-a)
		q := vs[rng.Intn(len(vs))]
		res := queryWith(ix, q, 5, int64(a), int64(b), graph.SearchParams{MC: 32, Eps: 1.3}, rng)
		for i, r := range res {
			if int(r.ID) < a || int(r.ID) >= b {
				t.Fatalf("result id %d outside window [%d, %d)", r.ID, a, b)
			}
			want := vec.SquaredL2(q, vs[r.ID])
			if r.Dist != want {
				t.Fatalf("result dist %g, recomputed %g", r.Dist, want)
			}
			if i > 0 && theap.Less(r, res[i-1]) {
				t.Fatal("results not sorted")
			}
		}
	}
}

// TestRecallAgainstExact is the core end-to-end quality gate: MBI must
// achieve high recall across short, medium, and long windows.
func TestRecallAgainstExact(t *testing.T) {
	opts := testOptions(64)
	opts.Builder = nndescent.MustNew(nndescent.DefaultConfig(12))
	ix, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	vs := fill(t, ix, 17, 2000)
	exact, err := bsbf.FromData(ix.Store(), ix.Times(), vec.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(18))
	p := graph.SearchParams{MC: 48, Eps: 1.3}
	const k = 10
	for _, frac := range []float64{0.02, 0.1, 0.3, 0.8, 1.0} {
		var recall float64
		const trials = 30
		for trial := 0; trial < trials; trial++ {
			wlen := int(frac * 2000)
			if wlen < 1 {
				wlen = 1
			}
			a := rng.Intn(2000 - wlen + 1)
			ts, te := int64(a), int64(a+wlen)
			q := vs[rng.Intn(len(vs))]
			got := queryWith(ix, q, k, ts, te, p, rng)
			want := exact.Search(q, k, ts, te)
			if len(want) == 0 {
				recall++
				continue
			}
			kk := k
			if len(want) < kk {
				kk = len(want)
			}
			threshold := want[kk-1].Dist * 1.00001
			hits := 0
			for i, r := range got {
				if i >= kk {
					break
				}
				if r.Dist <= threshold {
					hits++
				}
			}
			recall += float64(hits) / float64(kk)
		}
		recall /= trials
		if recall < 0.85 {
			t.Errorf("window fraction %.2f: recall@%d = %.3f, want >= 0.85", frac, k, recall)
		}
	}
}

// TestParallelBuildEquivalence: Workers > 1 must produce exactly the same
// index as sequential building (same seeds per block).
func TestParallelBuildEquivalence(t *testing.T) {
	seq := testOptions(4)
	par := testOptions(4)
	par.Workers = 4
	a, err := New(seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(par)
	if err != nil {
		t.Fatal(err)
	}
	vs := fill(t, a, 19, 64)
	for i, v := range vs {
		if err := b.Append(v, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	requireSameBlocks(t, a, b)
	if err := b.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestConcurrentSearches hammers Query from several goroutines while
// results are checked for window containment. Heavier mixed
// append/search/seal workloads live in stress_race_test.go and run under
// `go test -race` (the `make race` target).
func TestConcurrentSearches(t *testing.T) {
	ix, err := New(testOptions(16))
	if err != nil {
		t.Fatal(err)
	}
	vs := fill(t, ix, 21, 300)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				a := rng.Intn(300)
				b := a + 1 + rng.Intn(300-a)
				res := queryWith(ix, vs[rng.Intn(len(vs))], 5, int64(a), int64(b),
					graph.SearchParams{MC: 32, Eps: 1.2}, rng)
				for _, r := range res {
					if int(r.ID) < a || int(r.ID) >= b {
						done <- errOutOfWindow
						return
					}
				}
			}
			done <- nil
		}(int64(g))
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errOutOfWindow = errorString("result outside window")

type errorString string

func (e errorString) Error() string { return string(e) }

// TestSearchDuringAppends interleaves appends and searches; appends block
// searches via the write lock. The race-gated stress tests in
// stress_race_test.go scale this pattern up under the detector.
func TestSearchDuringAppends(t *testing.T) {
	ix, err := New(testOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	fill(t, ix, 23, 50)
	stop := make(chan struct{})
	searchErr := make(chan error, 1)
	go func() {
		rng := rand.New(rand.NewSource(24))
		q := make([]float32, 8)
		for {
			select {
			case <-stop:
				searchErr <- nil
				return
			default:
			}
			queryWith(ix, q, 3, 0, 1<<40, graph.SearchParams{MC: 16, Eps: 1.1}, rng)
		}
	}()
	rng := rand.New(rand.NewSource(25))
	v := make([]float32, 8)
	for i := 0; i < 200; i++ {
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		if err := ix.Append(v, int64(50+i)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if err := <-searchErr; err != nil {
		t.Fatal(err)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestRestoreRoundTripState(t *testing.T) {
	ix, err := New(testOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	vs := fill(t, ix, 27, 37)
	restored, err := Restore(ix.Options(), ix.Store(), ix.Times(), ix.Blocks(), ix.Forest(), ix.OpenLo())
	if err != nil {
		t.Fatal(err)
	}
	rng1 := rand.New(rand.NewSource(30))
	rng2 := rand.New(rand.NewSource(30))
	p := graph.SearchParams{MC: 32, Eps: 1.2}
	for trial := 0; trial < 20; trial++ {
		q := vs[trial%len(vs)]
		a := queryWith(ix, q, 5, 0, 37, p, rng1)
		b := queryWith(restored, q, 5, 0, 37, p, rng2)
		if len(a) != len(b) {
			t.Fatalf("result lengths differ: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("results differ at %d: %v vs %v", i, a[i], b[i])
			}
		}
	}
}

func TestRestoreRejectsCorruptState(t *testing.T) {
	ix, err := New(testOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	fill(t, ix, 31, 16)
	blocks := ix.Blocks()
	blocks[0].Hi++ // corrupt a range
	if _, err := Restore(ix.Options(), ix.Store(), ix.Times(), blocks, ix.Forest(), ix.OpenLo()); err == nil {
		t.Error("corrupt block range accepted")
	}
	forest := ix.Forest()
	forest[0] = 999
	if _, err := Restore(ix.Options(), ix.Store(), ix.Times(), ix.Blocks(), forest, ix.OpenLo()); err == nil {
		t.Error("corrupt forest accepted")
	}
}
