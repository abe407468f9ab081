package bsbf

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/exec"
	"repro/internal/sq"
	"repro/internal/theap"
	"repro/internal/vec"
)

// buildIndex creates an index with n random 4-d vectors at timestamps
// 0, 2, 4, ... (gaps let tests probe window boundaries between points).
func buildIndex(t *testing.T, seed int64, n int) *Index {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ix := New(4, vec.Euclidean)
	for i := 0; i < n; i++ {
		v := []float32{float32(rng.NormFloat64()), float32(rng.NormFloat64()), float32(rng.NormFloat64()), float32(rng.NormFloat64())}
		if err := ix.Append(v, int64(2*i)); err != nil {
			t.Fatal(err)
		}
	}
	return ix
}

func TestAppendRejectsOutOfOrder(t *testing.T) {
	ix := New(2, vec.Euclidean)
	if err := ix.Append([]float32{1, 1}, 10); err != nil {
		t.Fatal(err)
	}
	if err := ix.Append([]float32{2, 2}, 9); err == nil {
		t.Error("decreasing timestamp accepted")
	}
	// Equal timestamps are fine (the paper assigns arbitrary order).
	if err := ix.Append([]float32{3, 3}, 10); err != nil {
		t.Errorf("equal timestamp rejected: %v", err)
	}
}

func TestAppendRejectsWrongDim(t *testing.T) {
	ix := New(3, vec.Euclidean)
	if err := ix.Append([]float32{1, 2}, 0); err == nil {
		t.Error("wrong-dimension vector accepted")
	}
	if ix.Len() != 0 {
		t.Error("failed append grew the index")
	}
}

func TestWindowBoundaries(t *testing.T) {
	ix := buildIndex(t, 1, 10) // timestamps 0, 2, ..., 18
	cases := []struct {
		ts, te int64
		lo, hi int
	}{
		{0, 20, 0, 10},    // everything
		{0, 1, 0, 1},      // first only
		{18, 19, 9, 10},   // last only
		{5, 9, 3, 5},      // interior, boundaries between points
		{4, 9, 2, 5},      // ts exactly on a point (inclusive)
		{4, 8, 2, 4},      // te exactly on a point (exclusive)
		{-5, 0, 0, 0},     // before everything (te exclusive)
		{19, 100, 10, 10}, // after everything
		{-10, 100, 0, 10},
	}
	for _, c := range cases {
		lo, hi := ix.Window(c.ts, c.te)
		if lo != c.lo || hi != c.hi {
			t.Errorf("Window(%d, %d) = [%d, %d), want [%d, %d)", c.ts, c.te, lo, hi, c.lo, c.hi)
		}
	}
}

// exactTkNN is an independent reference implementation.
func exactTkNN(ix *Index, q []float32, k int, ts, te int64) []theap.Neighbor {
	var all []theap.Neighbor
	times := ix.TimesRef()
	for i := 0; i < ix.Len(); i++ {
		if times[i] >= ts && times[i] < te {
			all = append(all, theap.Neighbor{ID: int32(i), Dist: vec.Distance(ix.Metric(), q, ix.StoreRef().At(i))})
		}
	}
	sort.Slice(all, func(i, j int) bool { return theap.Less(all[i], all[j]) })
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func TestSearchMatchesReference(t *testing.T) {
	ix := buildIndex(t, 2, 300)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		q := []float32{float32(rng.NormFloat64()), float32(rng.NormFloat64()), float32(rng.NormFloat64()), float32(rng.NormFloat64())}
		k := 1 + rng.Intn(15)
		ts := int64(rng.Intn(650)) - 20
		te := ts + int64(rng.Intn(400))
		got := ix.Search(q, k, ts, te)
		want := exactTkNN(ix, q, k, ts, te)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: result %d = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestSearchProperty(t *testing.T) {
	ix := buildIndex(t, 4, 200)
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		q := []float32{float32(rng.NormFloat64()), float32(rng.NormFloat64()), float32(rng.NormFloat64()), float32(rng.NormFloat64())}
		k := int(kRaw)%20 + 1
		ts := int64(rng.Intn(450)) - 20
		te := ts + int64(rng.Intn(300))
		got := ix.Search(q, k, ts, te)
		// Every result in window, sorted ascending, no duplicates, and no
		// in-window vector closer than the worst result is missing.
		times := ix.TimesRef()
		seen := map[int32]bool{}
		for i, r := range got {
			if times[r.ID] < ts || times[r.ID] >= te {
				return false
			}
			if seen[r.ID] {
				return false
			}
			seen[r.ID] = true
			if i > 0 && theap.Less(r, got[i-1]) {
				return false
			}
		}
		want := exactTkNN(ix, q, k, ts, te)
		return len(got) == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestSearchEmptyWindowAndEmptyIndex(t *testing.T) {
	ix := New(2, vec.Euclidean)
	if got := ix.Search([]float32{0, 0}, 5, 0, 100); got != nil {
		t.Errorf("empty index search = %v", got)
	}
	if err := ix.Append([]float32{1, 1}, 5); err != nil {
		t.Fatal(err)
	}
	if got := ix.Search([]float32{0, 0}, 5, 10, 20); len(got) != 0 {
		t.Errorf("out-of-window search = %v", got)
	}
	if got := ix.Search([]float32{0, 0}, 0, 0, 10); len(got) != 0 {
		t.Errorf("k=0 search = %v", got)
	}
}

func TestFromData(t *testing.T) {
	s := vec.NewStore(2)
	for i := 0; i < 3; i++ {
		if _, err := s.Append([]float32{float32(i), 0}); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := FromData(s, []int64{1, 2, 3}, vec.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 3 {
		t.Errorf("Len = %d", ix.Len())
	}
	if _, err := FromData(s, []int64{1, 2}, vec.Euclidean); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := FromData(s, []int64{3, 2, 1}, vec.Euclidean); err == nil {
		t.Error("unsorted timestamps accepted")
	}
}

func TestScanRangeEdges(t *testing.T) {
	s := vec.NewStore(1)
	for i := 0; i < 5; i++ {
		if _, err := s.Append([]float32{float32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := ScanRange(s, vec.Euclidean, []float32{0}, 3, 2, 2); got != nil {
		t.Errorf("empty range scan = %v", got)
	}
	if got := ScanRange(s, vec.Euclidean, []float32{0}, 0, 0, 5); got != nil {
		t.Errorf("k=0 scan = %v", got)
	}
	got := ScanRange(s, vec.Euclidean, []float32{10}, 2, 1, 4)
	if len(got) != 2 || got[0].ID != 3 || got[1].ID != 2 {
		t.Errorf("scan = %v, want ids 3, 2", got)
	}
}

func BenchmarkSearchWide(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ix := New(32, vec.Euclidean)
	for i := 0; i < 20000; i++ {
		v := make([]float32, 32)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		if err := ix.Append(v, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
	q := make([]float32, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Search(q, 10, 0, 20000)
	}
}

// setProcs pins GOMAXPROCS — all that exec.Run's width depends on besides
// the plan — until the test ends. The setting is process-wide: never call
// it under t.Parallel.
func setProcs(t testing.TB, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestQueryIsTheOneBody: the pooled Search and a caller-owned-scratch
// Query — warm or fresh, on one worker or four — are one body and return
// bit-identical neighbors, on a flat index whose windows span several scan
// chunks and on an SQ8 one with sealed chunks and an exact tail.
func TestQueryIsTheOneBody(t *testing.T) {
	flat := New(4, vec.Euclidean)
	comp, err := NewWithConfig(4, vec.Euclidean, Config{Compression: sq.SQ8, RerankFactor: 4, ChunkSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	const n = 2*ScanChunk + 500
	for i := 0; i < n; i++ {
		v := []float32{float32(rng.NormFloat64()), float32(rng.NormFloat64()), float32(rng.NormFloat64()), float32(rng.NormFloat64())}
		for _, ix := range []*Index{flat, comp} {
			if err := ix.Append(v, int64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	ctx := context.Background()
	for name, ix := range map[string]*Index{"flat": flat, "sq8": comp} {
		warm := exec.NewScratch()
		for _, win := range [][2]int64{{0, n}, {100, ScanChunk + 700}, {n - 300, n}, {40, 45}} {
			q := []float32{float32(rng.NormFloat64()), float32(rng.NormFloat64()), float32(rng.NormFloat64()), float32(rng.NormFloat64())}
			want := ix.Search(q, 10, win[0], win[1])
			if len(want) == 0 {
				t.Fatalf("%s %v: no results", name, win)
			}
			for _, workers := range []int{1, 4} {
				setProcs(t, workers)
				got, out := ix.Query(ctx, warm, q, 10, win[0], win[1])
				if out.Partial || !reflect.DeepEqual(got, want) {
					t.Errorf("%s %v workers=%d warm scratch: partial=%v\n got %v\nwant %v", name, win, workers, out.Partial, got, want)
				}
				got, _ = ix.Query(ctx, exec.NewScratch(), q, 10, win[0], win[1])
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %v workers=%d fresh scratch:\n got %v\nwant %v", name, win, workers, got, want)
				}
			}
		}
	}
}
