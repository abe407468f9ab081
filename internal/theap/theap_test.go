package theap

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func randNeighbors(rng *rand.Rand, n int) []Neighbor {
	out := make([]Neighbor, n)
	for i := range out {
		out[i] = Neighbor{ID: int32(rng.Intn(n * 2)), Dist: float32(rng.NormFloat64())}
	}
	return out
}

// reference computes the expected k nearest by full sort.
func reference(items []Neighbor, k int) []Neighbor {
	cp := make([]Neighbor, len(items))
	copy(cp, items)
	sort.Slice(cp, func(i, j int) bool { return Less(cp[i], cp[j]) })
	if len(cp) > k {
		cp = cp[:k]
	}
	return cp
}

func TestTopKAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(200)
		k := 1 + rng.Intn(20)
		items := randNeighbors(rng, n+1)[:n]
		top := NewTopK(k)
		for _, it := range items {
			top.Push(it)
		}
		got := top.Items()
		want := reference(items, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d items, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: item %d = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestTopKProperty(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(kRaw)%20 + 1
		items := randNeighbors(rng, rng.Intn(100)+1)
		top := NewTopK(k)
		for _, it := range items {
			top.Push(it)
		}
		got := top.Items()
		want := reference(items, k)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTopKSnapshotKeepsContents(t *testing.T) {
	top := NewTopK(3)
	for _, d := range []float32{5, 1, 3, 2, 4} {
		top.Push(Neighbor{ID: int32(d), Dist: d})
	}
	snap := top.Snapshot()
	if len(snap) != 3 || snap[0].Dist != 1 || snap[2].Dist != 3 {
		t.Fatalf("snapshot = %v", snap)
	}
	if top.Len() != 3 {
		t.Errorf("snapshot consumed the heap: len %d", top.Len())
	}
	// Items after Snapshot still works and returns the same contents.
	items := top.Items()
	if len(items) != 3 || items[0].Dist != 1 {
		t.Fatalf("items = %v", items)
	}
	if top.Len() != 0 {
		t.Errorf("Items should consume: len %d", top.Len())
	}
}

func TestTopKWorstAndFull(t *testing.T) {
	top := NewTopK(2)
	if top.Full() {
		t.Error("empty TopK reports full")
	}
	top.Push(Neighbor{ID: 1, Dist: 10})
	top.Push(Neighbor{ID: 2, Dist: 5})
	if !top.Full() {
		t.Error("TopK with k items should be full")
	}
	if top.Worst() != 10 {
		t.Errorf("Worst = %g, want 10", top.Worst())
	}
	if w := top.WorstNeighbor(); w.ID != 1 {
		t.Errorf("WorstNeighbor = %v", w)
	}
	// Pushing something worse is rejected.
	if top.Push(Neighbor{ID: 3, Dist: 20}) {
		t.Error("push of worse neighbor should be rejected")
	}
	// Pushing something better evicts the worst.
	if !top.Push(Neighbor{ID: 4, Dist: 1}) {
		t.Error("push of better neighbor should be accepted")
	}
	if top.Worst() != 5 {
		t.Errorf("after eviction Worst = %g, want 5", top.Worst())
	}
}

func TestTopKTieBreaksByID(t *testing.T) {
	top := NewTopK(2)
	top.Push(Neighbor{ID: 9, Dist: 1})
	top.Push(Neighbor{ID: 3, Dist: 1})
	top.Push(Neighbor{ID: 6, Dist: 1})
	items := top.Items()
	if items[0].ID != 3 || items[1].ID != 6 {
		t.Errorf("tie-break order = %v, want IDs 3, 6", items)
	}
}

func TestTopKReset(t *testing.T) {
	top := NewTopK(4)
	top.Push(Neighbor{ID: 1, Dist: 1})
	top.Reset()
	if top.Len() != 0 {
		t.Errorf("after reset len = %d", top.Len())
	}
	top.Push(Neighbor{ID: 2, Dist: 2})
	if got := top.Items(); len(got) != 1 || got[0].ID != 2 {
		t.Errorf("after reuse items = %v", got)
	}
}

func TestNewTopKPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTopK(0) should panic")
		}
	}()
	NewTopK(0)
}

func TestMinQueueOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		items := randNeighbors(rng, rng.Intn(150)+1)
		var q MinQueue
		for _, it := range items {
			q.Push(it)
		}
		if q.Len() != len(items) {
			t.Fatalf("len %d, want %d", q.Len(), len(items))
		}
		for i, want := range reference(items, len(items)) {
			if got := q.Pop(); got != want {
				t.Fatalf("pop %d = %v, want %v", i, got, want)
			}
		}
	}
}

// TestMinQueueLimitKeepsNearest: pushing into a queue capped at m keeps
// exactly the m nearest, as sorting everything and cutting to m would.
func TestMinQueueLimitKeepsNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 100; trial++ {
		items := randNeighbors(rng, rng.Intn(100)+10)
		m := 1 + rng.Intn(len(items))
		var q MinQueue
		q.Reset(m)
		for _, it := range items {
			q.Push(it)
		}
		if q.Len() != m {
			t.Fatalf("limit %d: len = %d", m, q.Len())
		}
		want := reference(items, m)
		for i := 0; q.Len() > 0; i++ {
			if got := q.Pop(); got != want[i] {
				t.Fatalf("limit kept %v at %d, want %v", got, i, want[i])
			}
		}
	}
}

// TestMinQueueLimitAboveLen: a limit the pushes never reach drops nothing.
func TestMinQueueLimitAboveLen(t *testing.T) {
	var q MinQueue
	q.Reset(5)
	q.Push(Neighbor{ID: 1, Dist: 1})
	if q.Len() != 1 {
		t.Errorf("a limit above the pushed count dropped a neighbor, len = %d", q.Len())
	}
}

// queueModel is the bounded queue's specification: append, sort by Less,
// cut to the limit (0 is unbounded); NaN is never admitted.
type queueModel struct {
	items []Neighbor
	limit int
}

func (m *queueModel) push(n Neighbor) {
	if n.Dist != n.Dist {
		return
	}
	m.items = append(m.items, n)
	sort.Slice(m.items, func(i, j int) bool { return Less(m.items[i], m.items[j]) })
	if m.limit > 0 && len(m.items) > m.limit {
		m.items = m.items[:m.limit]
	}
}

func (m *queueModel) pop() Neighbor {
	n := m.items[0]
	m.items = m.items[1:]
	return n
}

// checkQueueOps replays ops against a MinQueue and the sort model: each
// byte either pops (when its low bits say so and the queue is non-empty)
// or pushes a neighbor drawn from a small id and distance alphabet, so
// ties on distance, equal pairs and NaN all occur.
func checkQueueOps(t *testing.T, limit int, ops []byte) {
	t.Helper()
	var q MinQueue
	q.Reset(limit)
	model := queueModel{limit: max(limit, 0)}
	dists := []float32{0, 1, 1, 2, 3, float32(math.NaN()), float32(math.Inf(1)), -1}
	for i, op := range ops {
		if op%4 == 0 && q.Len() > 0 {
			if got, want := q.Pop(), model.pop(); got != want {
				t.Fatalf("limit %d op %d: Pop = %v, model %v", limit, i, got, want)
			}
		} else {
			n := Neighbor{ID: int32(op>>5) % 6, Dist: dists[(op>>2)%8]}
			q.Push(n)
			model.push(n)
		}
		if q.Len() != len(model.items) {
			t.Fatalf("limit %d op %d: Len = %d, model %d", limit, i, q.Len(), len(model.items))
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("limit %d op %d: %v", limit, i, err)
		}
	}
	for q.Len() > 0 {
		if got, want := q.Pop(), model.pop(); got != want {
			t.Fatalf("limit %d drain: Pop = %v, model %v", limit, got, want)
		}
	}
}

// TestMinQueueMatchesSortModel: interleaved Push and Pop at limits 0
// (unbounded), 1, 2, 5 and 48 agree with the sort model on every Pop and
// every Len, through ties, NaN and Reset reuse.
func TestMinQueueMatchesSortModel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, limit := range []int{0, 1, 2, 5, 48} {
		for trial := 0; trial < 50; trial++ {
			ops := make([]byte, rng.Intn(300))
			rng.Read(ops)
			checkQueueOps(t, limit, ops)
		}
	}
}

// FuzzMinQueueMatchesSortModel is TestMinQueueMatchesSortModel over
// arbitrary operation sequences and limits.
func FuzzMinQueueMatchesSortModel(f *testing.F) {
	f.Add(uint8(0), []byte{1, 2, 3, 0, 5, 0, 0})
	f.Add(uint8(1), []byte{9, 17, 33, 0, 65, 129, 0, 4})
	f.Add(uint8(48), []byte{255, 254, 253, 0, 0, 252})
	f.Fuzz(func(t *testing.T, limit uint8, ops []byte) {
		checkQueueOps(t, int(limit%64), ops)
	})
}

func TestMergeDedupsAndRanks(t *testing.T) {
	a := []Neighbor{{ID: 1, Dist: 1}, {ID: 2, Dist: 3}}
	b := []Neighbor{{ID: 1, Dist: 1}, {ID: 3, Dist: 2}}
	got := Merge(2, a, b)
	if len(got) != 2 || got[0].ID != 1 || got[1].ID != 3 {
		t.Errorf("Merge = %v, want IDs 1, 3", got)
	}
}

func TestMergeEmpty(t *testing.T) {
	if got := Merge(3); len(got) != 0 {
		t.Errorf("Merge() = %v, want empty", got)
	}
	if got := Merge(3, nil, nil); len(got) != 0 {
		t.Errorf("Merge(nil, nil) = %v, want empty", got)
	}
}

func TestSortNeighborsLargeInputs(t *testing.T) {
	// Exercise the quicksort path (len >= 24) including duplicate-heavy
	// and pre-sorted inputs that would break a naive pivot choice.
	rng := rand.New(rand.NewSource(9))
	shapes := []func(n int) []Neighbor{
		func(n int) []Neighbor { return randNeighbors(rng, n) },
		func(n int) []Neighbor { // all equal distances
			out := make([]Neighbor, n)
			for i := range out {
				out[i] = Neighbor{ID: int32(n - i), Dist: 1}
			}
			return out
		},
		func(n int) []Neighbor { // already ascending
			out := make([]Neighbor, n)
			for i := range out {
				out[i] = Neighbor{ID: int32(i), Dist: float32(i)}
			}
			return out
		},
		func(n int) []Neighbor { // descending
			out := make([]Neighbor, n)
			for i := range out {
				out[i] = Neighbor{ID: int32(i), Dist: float32(n - i)}
			}
			return out
		},
	}
	for si, shape := range shapes {
		for _, n := range []int{24, 100, 1000} {
			items := shape(n)
			cp := make([]Neighbor, n)
			copy(cp, items)
			sortNeighbors(cp)
			want := reference(items, n)
			for i := range cp {
				if cp[i] != want[i] {
					t.Fatalf("shape %d n %d: index %d = %v, want %v", si, n, i, cp[i], want[i])
				}
			}
		}
	}
}
