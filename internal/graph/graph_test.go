package graph

import (
	"math/rand"
	"testing"

	"repro/internal/theap"
	"repro/internal/vec"
)

func TestFromListsAndAccessors(t *testing.T) {
	g := FromLists([][]int32{{1, 2}, {0}, {}})
	if g.NumNodes() != 3 {
		t.Errorf("NumNodes = %d, want 3", g.NumNodes())
	}
	if g.NumEdges() != 3 {
		t.Errorf("NumEdges = %d, want 3", g.NumEdges())
	}
	if nb := g.Neighbors(0); len(nb) != 2 || nb[0] != 1 || nb[1] != 2 {
		t.Errorf("Neighbors(0) = %v", nb)
	}
	if nb := g.Neighbors(2); len(nb) != 0 {
		t.Errorf("Neighbors(2) = %v, want empty", nb)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("valid graph rejected: %v", err)
	}
}

func TestValidateRejectsCorruption(t *testing.T) {
	cases := []struct {
		name string
		g    *CSR
	}{
		{"out of range", &CSR{Off: []int32{0, 1}, Adj: []int32{5}}},
		{"negative", &CSR{Off: []int32{0, 1}, Adj: []int32{-1}}},
		{"self loop", &CSR{Off: []int32{0, 1}, Adj: []int32{0}}},
		{"non-monotone", &CSR{Off: []int32{0, 2, 1}, Adj: []int32{1, 0}}},
		{"bad first offset", &CSR{Off: []int32{1, 2}, Adj: []int32{0, 1}}},
		{"length mismatch", &CSR{Off: []int32{0, 1}, Adj: []int32{1, 0}}},
		{"edges without offsets", &CSR{Adj: []int32{0}}},
	}
	for _, c := range cases {
		if err := c.g.Validate(); err == nil {
			t.Errorf("%s: Validate accepted corrupt graph", c.name)
		}
	}
}

func TestValidateEmpty(t *testing.T) {
	if err := (&CSR{}).Validate(); err != nil {
		t.Errorf("empty graph rejected: %v", err)
	}
	if err := (&CSR{Off: []int32{0}}).Validate(); err != nil {
		t.Errorf("zero-node graph rejected: %v", err)
	}
}

// lineGraphView builds a 1-d dataset 0..n-1 at unit spacing with a path
// graph connecting consecutive points — searches on it have predictable
// exact answers.
func lineGraphView(t *testing.T, n int) (*CSR, vec.View) {
	t.Helper()
	s := vec.NewStore(1)
	lists := make([][]int32, n)
	for i := 0; i < n; i++ {
		if _, err := s.Append([]float32{float32(i)}); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			lists[i] = append(lists[i], int32(i-1))
		}
		if i < n-1 {
			lists[i] = append(lists[i], int32(i+1))
		}
	}
	return FromLists(lists), vec.View{Store: s, Lo: 0, Hi: n, Metric: vec.Euclidean}
}

// search runs one query through SearchInto and returns its answer in
// ascending order. times and the window [ts, te) filter as SearchInto
// does; nil times admits every node.
func search(s *Searcher, g *CSR, view vec.View, q []float32, k int, times []int64, ts, te int64, p SearchParams, entries ...int32) []theap.Neighbor {
	var top theap.TopK
	s.SearchInto(&top, g, view, q, times, ts, te, p, entries, k)
	return top.Items()
}

func TestSearchFindsExactOnPathGraph(t *testing.T) {
	g, view := lineGraphView(t, 100)
	s := NewSearcher(100)
	p := SearchParams{MC: 32, Eps: 1.2}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		target := float32(rng.Intn(100))
		res := search(s, g, view, []float32{target}, 3, nil, 0, 0, p, RandomEntry(rng, 100))
		if len(res) != 3 {
			t.Fatalf("got %d results, want 3", len(res))
		}
		if res[0].ID != int32(target) || res[0].Dist != 0 {
			t.Fatalf("nearest to %g = %v", target, res[0])
		}
	}
}

func TestSearchHonorsFilter(t *testing.T) {
	g, view := lineGraphView(t, 100)
	s := NewSearcher(100)
	p := SearchParams{MC: 64, Eps: 1.4}
	// Only even ids may be results: they alone carry a timestamp in [0, 1).
	times := make([]int64, 100)
	for i := range times {
		times[i] = int64(i % 2)
	}
	res := search(s, g, view, []float32{50}, 5, times, 0, 1, p, 0)
	if len(res) != 5 {
		t.Fatalf("got %d results, want 5", len(res))
	}
	for _, r := range res {
		if r.ID%2 != 0 {
			t.Errorf("filtered-out id %d in results", r.ID)
		}
	}
	if res[0].ID != 50 {
		t.Errorf("nearest even to 50 = %v, want id 50", res[0])
	}
}

func TestSearchResultsSortedAscending(t *testing.T) {
	g, view := lineGraphView(t, 64)
	s := NewSearcher(64)
	res := search(s, g, view, []float32{10.4}, 8, nil, 0, 0, SearchParams{MC: 32, Eps: 1.3}, 63)
	for i := 1; i < len(res); i++ {
		if res[i].Dist < res[i-1].Dist {
			t.Fatalf("results not sorted: %v", res)
		}
	}
}

func TestSearchEmptyGraphAndBadK(t *testing.T) {
	s := NewSearcher(0)
	var view vec.View
	if got := search(s, &CSR{Off: []int32{0}}, view, []float32{1}, 3, nil, 0, 0, SearchParams{MC: 8, Eps: 1.1}, 0); got != nil {
		t.Errorf("search on empty graph = %v, want nil", got)
	}
	g, v := lineGraphView(t, 4)
	if got := search(s, g, v, []float32{1}, 0, nil, 0, 0, SearchParams{MC: 8, Eps: 1.1}, 0); got != nil {
		t.Errorf("search with k=0 = %v, want nil", got)
	}
}

func TestSearchFewerMatchesThanK(t *testing.T) {
	g, view := lineGraphView(t, 20)
	s := NewSearcher(20)
	// Only ids 3 and 7 pass the filter; eps generous so the whole graph
	// is explored.
	times := make([]int64, 20)
	times[3], times[7] = 1, 1
	res := search(s, g, view, []float32{5}, 10, times, 1, 2, SearchParams{MC: 64, Eps: 100}, 0)
	if len(res) != 2 {
		t.Fatalf("got %d results, want 2", len(res))
	}
}

func TestSearcherEpochReuse(t *testing.T) {
	g, view := lineGraphView(t, 30)
	s := NewSearcher(0) // starts empty, must grow
	for i := 0; i < 5; i++ {
		res := search(s, g, view, []float32{float32(i * 5)}, 1, nil, 0, 0, SearchParams{MC: 16, Eps: 1.2}, 0)
		if len(res) != 1 || res[0].ID != int32(i*5) {
			t.Fatalf("query %d: got %v", i, res)
		}
	}
}

// TestSearcherEpochWraparound: the walk epoch and the query epoch (which
// stamps both the admitted set and the distance memo) wrap, and the wrap
// clears their stamps: every array is poisoned with the stamp the epochs
// restart at, so a stale entry would drop a node from a walk, keep it out
// of the result, or hand it a bogus distance.
func TestSearcherEpochWraparound(t *testing.T) {
	g, view := lineGraphView(t, 10)
	s := NewSearcher(10)
	for i := range s.memo {
		s.visited[i] = 1
		s.admitted[i] = 1
		s.memo[i] = memoEntry{stamp: 1, dist: -1}
	}
	s.epoch = ^uint32(0) - 1 // wraps at the query's second walk
	s.qEpoch = ^uint32(0)    // wraps at the first query
	for i := 0; i < 3; i++ {
		q := []float32{float32(4 + i%2)}
		res := search(s, g, view, q, 1, nil, 0, 0, SearchParams{MC: 16, Eps: 1.2}, 0, 9, 0)
		if len(res) != 1 || res[0].ID != int32(4+i%2) || res[0].Dist != 0 {
			t.Fatalf("post-wrap query %d: got %v", i, res)
		}
		if ev := s.DistEvals(); ev != 10 {
			t.Fatalf("post-wrap query %d: %d distance evaluations, want one per node (10)", i, ev)
		}
	}
}

func TestSearchMCTrimStillFindsNearWithGoodEntry(t *testing.T) {
	// With a tiny MC the frontier is trimmed aggressively; starting at the
	// target's own node must still return it.
	g, view := lineGraphView(t, 200)
	s := NewSearcher(200)
	res := search(s, g, view, []float32{123}, 1, nil, 0, 0, SearchParams{MC: 2, Eps: 1.01}, 123)
	if len(res) != 1 || res[0].ID != 123 {
		t.Fatalf("got %v, want id 123", res)
	}
}

func TestRandomEntryInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		e := RandomEntry(rng, 7)
		if e < 0 || e >= 7 {
			t.Fatalf("entry %d out of range", e)
		}
	}
}

// TestSearchNeverReturnsDuplicates guards the seen-set logic.
func TestSearchNeverReturnsDuplicates(t *testing.T) {
	g, view := lineGraphView(t, 80)
	s := NewSearcher(80)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		res := search(s, g, view, []float32{float32(rng.Intn(80))}, 10, nil, 0, 0,
			SearchParams{MC: 16, Eps: 1.3}, RandomEntry(rng, 80), RandomEntry(rng, 80))
		seen := map[int32]bool{}
		for _, r := range res {
			if seen[r.ID] {
				t.Fatalf("duplicate id %d in %v", r.ID, res)
			}
			seen[r.ID] = true
		}
	}
}

var sinkNeighbors []theap.Neighbor

func BenchmarkSearchPathGraph(b *testing.B) {
	s := vec.NewStore(1)
	n := 10000
	lists := make([][]int32, n)
	for i := 0; i < n; i++ {
		if _, err := s.Append([]float32{float32(i)}); err != nil {
			b.Fatal(err)
		}
		if i > 0 {
			lists[i] = append(lists[i], int32(i-1))
		}
		if i < n-1 {
			lists[i] = append(lists[i], int32(i+1))
		}
	}
	g := FromLists(lists)
	view := vec.View{Store: s, Lo: 0, Hi: n, Metric: vec.Euclidean}
	sr := NewSearcher(n)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkNeighbors = search(sr, g, view, []float32{float32(rng.Intn(n))}, 10, nil, 0, 0,
			SearchParams{MC: 32, Eps: 1.1}, RandomEntry(rng, n))
	}
}
