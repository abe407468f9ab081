package theap

import "fmt"

// Validate checks the two structural invariants of a TopK collector: the
// retained count never exceeds k, and the backing array satisfies the
// max-heap ordering on (Dist, ID). It returns an error rather than
// panicking so tests can use it unconditionally; hot paths wrap it in an
// invariant.Enabled guard.
func (t *TopK) Validate() error {
	if t.k <= 0 {
		return fmt.Errorf("theap: TopK has k=%d, want > 0", t.k)
	}
	if len(t.heap) > t.k {
		return fmt.Errorf("theap: TopK holds %d neighbors, bound is k=%d", len(t.heap), t.k)
	}
	for i, n := range t.heap {
		if n.Dist != n.Dist {
			return fmt.Errorf("theap: TopK slot %d holds NaN distance (id %d)", i, n.ID)
		}
	}
	for i := 1; i < len(t.heap); i++ {
		p := (i - 1) / 2
		if Less(t.heap[p], t.heap[i]) {
			return fmt.Errorf("theap: TopK max-heap violated: parent %d (id %d, dist %v) < child %d (id %d, dist %v)",
				p, t.heap[p].ID, t.heap[p].Dist, i, t.heap[i].ID, t.heap[i].Dist)
		}
	}
	return nil
}

// Validate checks the frontier window: no NaN, ascending by (Dist, ID),
// and no larger than the queue's limit.
func (q *MinQueue) Validate() error {
	w := q.buf[q.head:]
	if q.limit > 0 && len(w) > q.limit {
		return fmt.Errorf("theap: MinQueue holds %d neighbors, limit is %d", len(w), q.limit)
	}
	for i, n := range w {
		if n.Dist != n.Dist {
			return fmt.Errorf("theap: MinQueue slot %d holds NaN distance (id %d)", i, n.ID)
		}
		if i > 0 && Less(n, w[i-1]) {
			return fmt.Errorf("theap: MinQueue not ascending at %d: (id %d, dist %v) after (id %d, dist %v)",
				i, n.ID, n.Dist, w[i-1].ID, w[i-1].Dist)
		}
	}
	return nil
}
