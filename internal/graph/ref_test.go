package graph

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/sq"
	"repro/internal/theap"
	"repro/internal/vec"
)

// refWalk is the reference the Searcher must match bit for bit: the walks
// of one query as this package ran them before the per-query distance memo
// and the bounded frontier. Every walk scores each node it reaches afresh,
// the frontier is an unbounded binary min-heap, and after each expansion it
// is sorted and cut to its M_C nearest. dist scores local node i against
// the query. It returns the retained neighbors in ascending order, the
// number of distance evaluations it made, and how many distinct nodes they
// scored.
func refWalk(g *CSR, dist func(int32) float32, metric vec.Metric, times []int64, ts, te int64, p SearchParams, entries []int32, k int) (out []theap.Neighbor, evals, distinct int) {
	n := g.NumNodes()
	if n == 0 || len(entries) == 0 || k <= 0 {
		return nil, 0, 0
	}
	result := theap.NewTopK(k)
	eps := p.Eps
	if metric == vec.Euclidean {
		eps *= eps
	}
	admitted := make([]bool, n)
	scored := make([]bool, n)
	score := func(i int32) float32 {
		evals++
		if !scored[i] {
			scored[i] = true
			distinct++
		}
		return dist(i)
	}
	for w, entry := range entries {
		restart := w > 0
		seen := make([]bool, n)
		var frontier refHeap
		seen[entry] = true
		frontier.push(theap.Neighbor{ID: entry, Dist: score(entry)})
		for frontier.Len() > 0 {
			cur := heap.Pop(&frontier).(theap.Neighbor)
			var bound float32
			bounded := false
			if result.Full() {
				bound = eps * result.Worst()
				bounded = true
			}
			for _, nb := range g.Neighbors(cur.ID) {
				if seen[nb] {
					continue
				}
				seen[nb] = true
				d := score(nb)
				if bounded && d >= bound && !(restart && d < cur.Dist) {
					continue
				}
				frontier.push(theap.Neighbor{ID: nb, Dist: d})
			}
			inWindow := times == nil || (times[cur.ID] >= ts && times[cur.ID] < te)
			if inWindow && !admitted[cur.ID] {
				admitted[cur.ID] = true
				result.Push(cur)
			}
			if p.MC > 0 && frontier.Len() > p.MC {
				sort.Slice(frontier, func(i, j int) bool { return theap.Less(frontier[i], frontier[j]) })
				frontier = frontier[:p.MC] // a sorted prefix is a valid min-heap
			}
		}
	}
	return result.Items(), evals, distinct
}

// refHeap is refWalk's frontier: a min-heap on (Dist, ID) that drops NaN.
type refHeap []theap.Neighbor

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return theap.Less(h[i], h[j]) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(theap.Neighbor)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func (h *refHeap) push(nb theap.Neighbor) {
	if nb.Dist == nb.Dist {
		heap.Push(h, nb)
	}
}

// walkCase is one randomized query over a random graph: the inputs both
// the Searcher and refWalk receive.
type walkCase struct {
	g       *CSR
	view    vec.View
	codes   *sq.Codes // non-nil: score against SQ8 codes
	times   []int64
	ts, te  int64
	p       SearchParams
	entries []int32
	k       int
	q       []float32
}

func (c walkCase) String() string {
	return fmt.Sprintf("n=%d metric=%v codes=%v MC=%d eps=%g k=%d entries=%v window=[%d,%d) times=%v",
		c.g.NumNodes(), c.view.Metric, c.codes != nil, c.p.MC, c.p.Eps, c.k, c.entries, c.ts, c.te, c.times != nil)
}

// windowKind selects a walkCase's time window.
type windowKind int

const (
	windowPartial windowKind = iota // a random sub-range of the block
	windowEmpty                     // admits no node
	windowFull                      // admits every node (nil times)
)

// randomWalkCase draws a graph of n nodes over small-integer coordinates,
// so many distances tie and the (Dist, ID) order decides, and a query with
// 1-5 entry seeds that often repeat. The view sits at a non-zero offset of
// its store, like every block but the first.
func randomWalkCase(rng *rand.Rand, n, mc int, eps float32, k int, compressed bool, wk windowKind) walkCase {
	dim := 1 + rng.Intn(6)
	metric := vec.Euclidean
	if rng.Intn(3) == 0 {
		metric = vec.Angular
	}
	levels := 2 + rng.Intn(4)
	coord := func() float32 {
		if rng.Intn(8) == 0 {
			return float32(rng.NormFloat64())
		}
		return float32(rng.Intn(levels))
	}
	off := rng.Intn(5)
	store := vec.NewStore(dim)
	for i := 0; i < off+n; i++ {
		v := make([]float32, dim)
		for j := range v {
			v[j] = coord()
		}
		if _, err := store.Append(v); err != nil {
			panic(err)
		}
	}
	deg := rng.Intn(9)
	lists := make([][]int32, n)
	for i := range lists {
		if n == 1 {
			break
		}
		for _, j := range rng.Perm(n)[:min(deg, n)] {
			if j != i {
				lists[i] = append(lists[i], int32(j))
			}
		}
	}
	c := walkCase{
		g:    FromLists(lists),
		view: vec.View{Store: store, Lo: off, Hi: off + n, Metric: metric},
		p:    SearchParams{MC: mc, Eps: eps},
		k:    k,
		q:    make([]float32, dim),
	}
	for j := range c.q {
		c.q[j] = coord()
	}
	if compressed {
		c.codes = sq.Train(store, off, off+n, sq.TrainConfig{})
	}
	if wk != windowFull {
		c.times = make([]int64, n)
		t := int64(rng.Intn(10))
		for i := range c.times {
			c.times[i] = t
			t += int64(rng.Intn(3)) // repeated timestamps
		}
		if wk == windowEmpty {
			c.ts, c.te = t+1, t+5
		} else {
			c.ts = c.times[rng.Intn(n)]
			c.te = c.ts + 1 + int64(rng.Intn(2*n))
		}
	}
	for i := 1 + rng.Intn(5); i > 0; i-- {
		if len(c.entries) > 0 && rng.Intn(3) == 0 {
			c.entries = append(c.entries, c.entries[rng.Intn(len(c.entries))])
		} else {
			c.entries = append(c.entries, int32(rng.Intn(n)))
		}
	}
	return c
}

// checkAgainstRef runs c through s and through refWalk and fails unless
// both return the same ids with the same distance bits, and the Searcher
// scored each node refWalk reached exactly once.
func checkAgainstRef(t *testing.T, s *Searcher, c walkCase) {
	t.Helper()
	var top theap.TopK
	var dist func(int32) float32
	if c.codes != nil {
		qn := vec.Norm(c.q)
		s.SearchCodesInto(&top, c.g, c.codes, c.q, c.view.Metric, qn, c.times, c.ts, c.te, c.p, c.entries, c.k)
		dist = func(i int32) float32 { return c.codes.Dist(c.view.Metric, c.q, qn, int(i)) }
	} else {
		s.SearchInto(&top, c.g, c.view, c.q, c.times, c.ts, c.te, c.p, c.entries, c.k)
		qsq := vec.SquaredNorm(c.q)
		dist = func(i int32) float32 { return c.view.DistToCached(c.q, qsq, int(i)) }
	}
	got := top.Items()
	want, _, distinct := refWalk(c.g, dist, c.view.Metric, c.times, c.ts, c.te, c.p, c.entries, c.k)
	if len(got) != len(want) {
		t.Fatalf("%v: %d results, reference %d\ngot  %v\nwant %v", c, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Float32bits(got[i].Dist) != math.Float32bits(want[i].Dist) {
			t.Fatalf("%v: result %d = %v, reference %v\ngot  %v\nwant %v", c, i, got[i], want[i], got, want)
		}
	}
	if ev := s.DistEvals(); ev != distinct {
		t.Fatalf("%v: %d distance evaluations, reference reached %d distinct nodes", c, ev, distinct)
	}
}

// TestWalkMatchesReference sweeps the grid the walk's answers depend on —
// M_C (0 is unbounded), ε, the evaluator and the window — over random
// graphs with tied distances and repeated entry seeds. One Searcher serves
// every case, so its epochs, memo and frontier carry across graphs of
// different sizes as they do across a query's blocks.
func TestWalkMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := NewSearcher(0)
	for _, mc := range []int{0, 1, 2, 48} {
		for _, eps := range []float32{1, 1.2, 100} {
			for _, compressed := range []bool{false, true} {
				for _, wk := range []windowKind{windowPartial, windowEmpty, windowFull} {
					for trial := 0; trial < 6; trial++ {
						n := 1 + rng.Intn(200)
						k := 1 + rng.Intn(30)
						checkAgainstRef(t, s, randomWalkCase(rng, n, mc, eps, k, compressed, wk))
					}
				}
			}
		}
	}
}

// FuzzWalkMatchesReference: for any graph, query and parameters the
// Searcher returns exactly refWalk's answer.
func FuzzWalkMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(5), uint8(40), false, uint8(0))
	f.Add(int64(2), uint8(1), uint8(1), uint8(1), uint8(1), true, uint8(1))
	f.Add(int64(3), uint8(2), uint8(2), uint8(30), uint8(200), true, uint8(2))
	f.Add(int64(4), uint8(3), uint8(1), uint8(10), uint8(120), false, uint8(0))
	s := NewSearcher(0)
	f.Fuzz(func(t *testing.T, seed int64, mcSel, epsSel, k, n uint8, compressed bool, wk uint8) {
		if k == 0 || n == 0 {
			return
		}
		mc := []int{0, 1, 2, 48}[mcSel%4]
		eps := []float32{1, 1.2, 100}[epsSel%3]
		rng := rand.New(rand.NewSource(seed))
		checkAgainstRef(t, s, randomWalkCase(rng, int(n), mc, eps, int(k), compressed, windowKind(wk%3)))
	})
}
