// Package theap implements the two priority queues every search path in
// this repository needs:
//
//   - TopK, a bounded max-heap that retains the k nearest (id, distance)
//     pairs seen so far. It backs the brute-force scan of BSBF
//     (Algorithm 1), the result set R of the graph search (Algorithm 2),
//     and the cross-block merge of MBI queries (Algorithm 4 line 9).
//   - MinQueue, the candidate frontier C of the graph search: a sorted
//     window capped at the M_C nearest candidates.
//
// Both are hand-specialized for Neighbor values instead of going through
// container/heap: the interface indirection costs ~2x on these hot paths.
package theap

import "repro/internal/invariant"

// Neighbor is one candidate search result: a vector id and its distance to
// the query. IDs are local to whatever view the search runs over; callers
// translate to global ids when merging across blocks.
type Neighbor struct {
	ID   int32
	Dist float32
}

// Less orders neighbors by distance, breaking ties by id so that results
// are deterministic across runs and implementations.
func Less(a, b Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.ID < b.ID
}

// TopK keeps the k smallest-distance neighbors pushed into it.
// The zero value is unusable; construct with NewTopK.
type TopK struct {
	k    int
	heap []Neighbor // max-heap on (Dist, ID): heap[0] is the current worst
}

// NewTopK returns a collector for the k nearest neighbors.
// It panics if k <= 0.
func NewTopK(k int) *TopK {
	if k <= 0 {
		panic("theap: TopK needs k > 0")
	}
	return &TopK{k: k, heap: make([]Neighbor, 0, k)}
}

// K returns the capacity of the collector.
func (t *TopK) K() int { return t.k }

// Len returns how many neighbors are currently retained (≤ k).
func (t *TopK) Len() int { return len(t.heap) }

// Full reports whether k neighbors have been retained.
func (t *TopK) Full() bool { return len(t.heap) == t.k }

// Worst returns the largest retained distance. It must only be called when
// Len() > 0.
func (t *TopK) Worst() float32 { return t.heap[0].Dist }

// WorstNeighbor returns the retained neighbor with the largest distance.
// It must only be called when Len() > 0.
func (t *TopK) WorstNeighbor() Neighbor { return t.heap[0] }

// Push offers a neighbor. It returns true if the neighbor was retained
// (i.e. the collector was not full, or n beats the current worst).
// NaN distances are rejected outright: NaN does not participate in any
// strict weak ordering, so admitting one would silently corrupt the heap.
func (t *TopK) Push(n Neighbor) bool {
	if n.Dist != n.Dist {
		return false
	}
	if len(t.heap) < t.k {
		t.heap = append(t.heap, n)
		t.siftUp(len(t.heap) - 1)
		if invariant.Enabled {
			invariant.NoError(t.Validate(), "theap: TopK after growing Push")
		}
		return true
	}
	if !Less(n, t.heap[0]) {
		return false
	}
	t.heap[0] = n
	t.siftDown(0)
	if invariant.Enabled {
		invariant.NoError(t.Validate(), "theap: TopK after replacing Push")
	}
	return true
}

// Reset empties the collector, retaining its backing storage.
func (t *TopK) Reset() { t.heap = t.heap[:0] }

// ResetK re-initializes the collector for a k-result query, retaining the
// backing array across calls — the reuse primitive of the allocation-free
// query path: a zero TopK becomes usable on first ResetK and never
// allocates again for any k up to the largest seen. It panics if k <= 0,
// matching NewTopK.
func (t *TopK) ResetK(k int) {
	if k <= 0 {
		panic("theap: TopK needs k > 0")
	}
	t.k = k
	if cap(t.heap) < k {
		//lint:ignore hotpath-alloc cold-start growth; the backing array is retained for every later query
		t.heap = make([]Neighbor, 0, k)
		return
	}
	t.heap = t.heap[:0]
}

// Items returns the retained neighbors sorted by ascending distance.
// The collector is consumed: it is empty afterwards.
func (t *TopK) Items() []Neighbor {
	out := t.heap
	// Repeatedly swap the max to the end and shrink: heap-sort descending
	// by max-heap yields ascending order in place.
	for n := len(out) - 1; n > 0; n-- {
		out[0], out[n] = out[n], out[0]
		t.heap = out[:n]
		t.siftDown(0)
	}
	t.heap = out[:0]
	return out
}

// Snapshot returns a copy of the retained neighbors sorted by ascending
// distance, leaving the collector intact.
func (t *TopK) Snapshot() []Neighbor {
	cp := make([]Neighbor, len(t.heap))
	copy(cp, t.heap)
	sortNeighbors(cp)
	return cp
}

func (t *TopK) siftUp(i int) {
	h := t.heap
	for i > 0 {
		p := (i - 1) / 2
		if !Less(h[p], h[i]) { // parent >= child: heap property holds
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func (t *TopK) siftDown(i int) {
	h := t.heap
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		big := l
		if r := l + 1; r < n && Less(h[l], h[r]) {
			big = r
		}
		if !Less(h[i], h[big]) {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

// MinQueue is the candidate frontier C of the graph search: a window of
// neighbors kept sorted ascending by (Dist, ID) and, when a limit is set,
// capped at the limit nearest — lines 16-17 of Algorithm 2 done at push
// time. Pop advances an index; a push into a full window that does not
// beat its farthest member is rejected with one comparison, any other is
// inserted in order (evicting the farthest when full). The walk never pops
// between the pushes of one expansion, so evicting at push time keeps
// exactly the M_C nearest that sorting and cutting after the expansion
// would. An unbounded queue pays O(Len) per push; the walk always sets
// M_C. The zero value is an empty, unbounded queue.
type MinQueue struct {
	buf   []Neighbor // buf[head:] is the window, ascending by (Dist, ID)
	head  int
	limit int // maximum window size; 0 is unbounded
}

// Len returns the number of queued neighbors.
func (q *MinQueue) Len() int { return len(q.buf) - q.head }

// Reset empties the queue, retaining its backing storage, and caps it at
// the limit nearest neighbors; limit <= 0 leaves it unbounded.
func (q *MinQueue) Reset(limit int) {
	q.buf = q.buf[:0]
	q.head = 0
	q.limit = max(limit, 0)
}

// Push enqueues n unless the queue is full and n does not beat its
// farthest member under Less, in which case n is dropped; a full queue
// that admits n evicts its farthest. NaN distances are dropped for the
// same reason TopK rejects them: they have no place in the ordering.
func (q *MinQueue) Push(n Neighbor) {
	if n.Dist != n.Dist {
		return
	}
	if q.limit > 0 && len(q.buf)-q.head >= q.limit {
		if !Less(n, q.buf[len(q.buf)-1]) {
			return
		}
		q.buf = q.buf[:len(q.buf)-1]
	}
	if len(q.buf) == cap(q.buf) && q.head > 0 {
		// Reuse the popped prefix instead of growing.
		m := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:m]
		q.head = 0
	}
	lo, hi := q.head, len(q.buf)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if Less(q.buf[mid], n) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	q.buf = append(q.buf, Neighbor{})
	copy(q.buf[lo+1:], q.buf[lo:len(q.buf)-1])
	q.buf[lo] = n
	if invariant.Enabled {
		invariant.NoError(q.Validate(), "theap: MinQueue after Push")
	}
}

// Pop removes and returns the nearest queued neighbor.
// It must only be called when Len() > 0.
func (q *MinQueue) Pop() Neighbor {
	top := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return top
}

// sortNeighbors sorts by ascending (Dist, ID) with insertion sort for short
// slices and a simple quicksort otherwise. The slices here are small
// (bounded by M_C or k), so this beats the reflection cost of sort.Slice.
func sortNeighbors(a []Neighbor) {
	if len(a) < 24 {
		insertionSort(a)
		return
	}
	quickSort(a, 0)
}

func insertionSort(a []Neighbor) {
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i - 1
		for j >= 0 && Less(x, a[j]) {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = x
	}
}

func quickSort(a []Neighbor, depth int) {
	for len(a) >= 24 {
		if depth > 40 {
			heapSortAll(a)
			return
		}
		depth++
		p := partition(a)
		if p < len(a)-p {
			quickSort(a[:p], depth)
			a = a[p+1:]
		} else {
			quickSort(a[p+1:], depth)
			a = a[:p]
		}
	}
	insertionSort(a)
}

func partition(a []Neighbor) int {
	// Median-of-three pivot to avoid quadratic behavior on sorted input.
	m := len(a) / 2
	hi := len(a) - 1
	if Less(a[m], a[0]) {
		a[m], a[0] = a[0], a[m]
	}
	if Less(a[hi], a[0]) {
		a[hi], a[0] = a[0], a[hi]
	}
	if Less(a[hi], a[m]) {
		a[hi], a[m] = a[m], a[hi]
	}
	a[m], a[hi-1] = a[hi-1], a[m]
	pivot := a[hi-1]
	i := 0
	for j := 0; j < hi-1; j++ {
		if Less(a[j], pivot) {
			a[i], a[j] = a[j], a[i]
			i++
		}
	}
	a[i], a[hi-1] = a[hi-1], a[i]
	return i
}

func heapSortAll(a []Neighbor) {
	// Build a max-heap then repeatedly extract; fallback for pathological
	// quicksort inputs.
	for i := len(a)/2 - 1; i >= 0; i-- {
		siftDownRange(a, i, len(a))
	}
	for n := len(a) - 1; n > 0; n-- {
		a[0], a[n] = a[n], a[0]
		siftDownRange(a, 0, n)
	}
}

func siftDownRange(a []Neighbor, i, n int) {
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		big := l
		if r := l + 1; r < n && Less(a[l], a[r]) {
			big = r
		}
		if !Less(a[i], a[big]) {
			return
		}
		a[i], a[big] = a[big], a[i]
		i = big
	}
}

// Merge combines several ascending-sorted neighbor lists into the k nearest
// overall, deduplicating by ID. It is the final combine step of an MBI
// query (each block contributes a sorted list over global ids). Each call
// allocates a fresh heap and dedup set; steady-state paths use a Merger.
func Merge(k int, lists ...[]Neighbor) []Neighbor {
	var m Merger
	out := m.Merge(k, lists...)
	if out == nil {
		return nil
	}
	cp := make([]Neighbor, len(out))
	copy(cp, out)
	return cp
}

// Merger is the scratch-backed form of Merge: the result heap and the
// dedup set persist across calls, so a steady-state query performs no
// allocation in the final combine. The returned slice aliases the Merger's
// storage and is valid only until the next Merge call. A Merger is not safe
// for concurrent use; its zero value is ready.
type Merger struct {
	top  TopK
	seen map[int32]struct{}
}

// Merge combines several ascending-sorted neighbor lists into the k nearest
// overall, deduplicating by ID, exactly like the package-level Merge but
// into reused storage.
func (m *Merger) Merge(k int, lists ...[]Neighbor) []Neighbor {
	m.top.ResetK(k)
	if m.seen == nil {
		//lint:ignore hotpath-alloc cold-start; the dedup set is retained across queries
		m.seen = make(map[int32]struct{}, k)
	}
	clear(m.seen)
	for _, l := range lists {
		for _, n := range l {
			if _, dup := m.seen[n.ID]; dup {
				continue
			}
			m.seen[n.ID] = struct{}{}
			m.top.Push(n)
		}
	}
	if m.top.Len() == 0 {
		return nil
	}
	return m.top.Items()
}
