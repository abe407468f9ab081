// Package nndescent implements NNDescent (Dong, Charikar, Li — WWW 2011),
// the approximate kNN-graph construction algorithm the paper uses to index
// every MBI block and the SF baseline. The algorithm starts from a random
// K-NN graph and repeatedly applies the local-join step — "a neighbor of my
// neighbor is probably my neighbor" — until the update rate drops below a
// threshold. Its empirical cost is O(n^1.14), the exponent the paper's
// indexing-time analysis (§4.4.2) builds on.
package nndescent

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/vec"
)

// Config holds NNDescent tunables.
type Config struct {
	// K is the number of neighbors kept per node in the final graph. The
	// paper grid-searches 64–512 per dataset at million scale; this
	// repository's laptop-scale profiles default to 16–48.
	K int
	// Rho is the sample rate ρ of the local join (0 < ρ ≤ 1). 1.0 joins
	// every new neighbor; smaller values trade graph quality for speed.
	Rho float64
	// Delta is the termination threshold δ: iteration stops when fewer
	// than δ·n·K neighbor updates happen in a round.
	Delta float64
	// MaxIter caps the number of rounds regardless of convergence.
	MaxIter int
}

// DefaultConfig returns the configuration used when a profile does not
// override it: K neighbors, full sampling, 0.1% update-rate cutoff.
func DefaultConfig(k int) Config {
	return Config{K: k, Rho: 1.0, Delta: 0.001, MaxIter: 12}
}

// Builder is a graph.Builder backed by NNDescent. It is immutable after
// construction and therefore safe for concurrent Build calls.
type Builder struct {
	cfg Config
}

// New validates cfg and returns a Builder.
func New(cfg Config) (*Builder, error) {
	if cfg.K <= 0 {
		return nil, fmt.Errorf("nndescent: K must be positive, got %d", cfg.K)
	}
	if cfg.Rho <= 0 || cfg.Rho > 1 {
		return nil, fmt.Errorf("nndescent: Rho must be in (0, 1], got %g", cfg.Rho)
	}
	if cfg.Delta < 0 {
		return nil, fmt.Errorf("nndescent: Delta must be non-negative, got %g", cfg.Delta)
	}
	if cfg.MaxIter <= 0 {
		return nil, fmt.Errorf("nndescent: MaxIter must be positive, got %d", cfg.MaxIter)
	}
	return &Builder{cfg: cfg}, nil
}

// MustNew is New but panics on invalid configuration; for use in tests and
// internal wiring where the config is a compile-time constant.
func MustNew(cfg Config) *Builder {
	b, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return b
}

// entry is one slot in a node's bounded neighbor heap.
type entry struct {
	id    int32
	dist  float32
	isNew bool
}

// nodeHeap is a bounded max-heap on dist: slot 0 holds the current worst
// neighbor, so replacing it is O(log K).
type nodeHeap []entry

func (h nodeHeap) siftDown(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		big := l
		if r := l + 1; r < n && h[r].dist > h[l].dist {
			big = r
		}
		if h[i].dist >= h[big].dist {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

func (h nodeHeap) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h[p].dist >= h[i].dist {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

// insert offers (id, dist) to the heap, keeping at most k entries and
// rejecting duplicates. It reports whether the heap changed.
func (h *nodeHeap) insert(id int32, dist float32, k int) bool {
	hh := *h
	if len(hh) == k && dist >= hh[0].dist {
		return false // cheaper than the duplicate scan below
	}
	for i := range hh {
		if hh[i].id == id {
			return false
		}
	}
	if len(hh) < k {
		hh = append(hh, entry{id: id, dist: dist, isNew: true})
		hh.siftUp(len(hh) - 1)
		*h = hh
		return true
	}
	hh[0] = entry{id: id, dist: dist, isNew: true}
	hh.siftDown(0)
	return true
}

// Build implements graph.Builder. For views small enough that the exact
// graph is cheaper than iterating (n ≤ K+1 or tiny n), it computes the
// exact K-NN graph directly.
func (b *Builder) Build(view vec.View, seed int64) *graph.CSR {
	n := view.Len()
	if n == 0 {
		return &graph.CSR{Off: []int32{0}}
	}
	k := b.cfg.K
	if k > n-1 {
		k = n - 1
	}
	if k == 0 {
		return graph.FromLists(make([][]int32, n))
	}
	rng := rand.New(rand.NewSource(seed))
	// Exact construction for small blocks: the O(n²) scan beats the
	// constant factors of iterating, and leaf blocks in tests are tiny.
	if n <= 256 || n <= 2*k {
		g := exactGraph(view, k)
		if invariant.Enabled {
			// The degree cap applies to the directed kNN lists; the
			// symmetrized closure exactGraph returns has no per-node bound
			// (a hub may appear in arbitrarily many lists), so only the
			// structural shape is asserted here.
			invariant.NoError(g.Validate(), "nndescent: exact graph shape")
		}
		return graph.EnsureConnected(g, view, rng)
	}
	heaps := b.initRandom(view, n, k, rng)
	sampleK := int(b.cfg.Rho * float64(k))
	if sampleK < 1 {
		sampleK = 1
	}
	minUpdates := int(b.cfg.Delta * float64(n) * float64(k))

	newFwd := make([][]int32, n)
	oldFwd := make([][]int32, n)
	newRev := make([][]int32, n)
	oldRev := make([][]int32, n)

	for iter := 0; iter < b.cfg.MaxIter; iter++ {
		for i := range newFwd {
			newFwd[i] = newFwd[i][:0]
			oldFwd[i] = oldFwd[i][:0]
			newRev[i] = newRev[i][:0]
			oldRev[i] = oldRev[i][:0]
		}

		// Sampling pass: split each node's current neighbors into sampled
		// new (which become old afterwards) and old, and build the reverse
		// lists.
		for v := 0; v < n; v++ {
			h := heaps[v]
			newSeen := 0
			for i := range h {
				e := &h[i]
				if e.isNew {
					if newSeen < sampleK || rng.Float64() < b.cfg.Rho {
						newSeen++
						e.isNew = false
						newFwd[v] = append(newFwd[v], e.id)
						newRev[e.id] = append(newRev[e.id], int32(v))
					}
				} else {
					oldFwd[v] = append(oldFwd[v], e.id)
					oldRev[e.id] = append(oldRev[e.id], int32(v))
				}
			}
		}

		// Local join: for every node, pair its sampled-new list against
		// itself and against the old list (forward ∪ sampled reverse).
		updates := 0
		for v := 0; v < n; v++ {
			newList := appendSampled(newFwd[v], newRev[v], sampleK, rng)
			oldList := appendSampled(oldFwd[v], oldRev[v], sampleK, rng)

			for i := 0; i < len(newList); i++ {
				a := newList[i]
				for j := i + 1; j < len(newList); j++ {
					c := newList[j]
					if a == c {
						continue
					}
					d := view.Dist(int(a), int(c))
					if heaps[a].insert(c, d, k) {
						updates++
					}
					if heaps[c].insert(a, d, k) {
						updates++
					}
				}
				for _, c := range oldList {
					if a == c {
						continue
					}
					d := view.Dist(int(a), int(c))
					if heaps[a].insert(c, d, k) {
						updates++
					}
					if heaps[c].insert(a, d, k) {
						updates++
					}
				}
			}
		}
		if updates <= minUpdates {
			break
		}
	}
	// A kNN graph over clustered data is one component per cluster;
	// bridge them so single-entry graph search can reach everything.
	if invariant.Enabled {
		// The k-cap invariant lives on the directed candidate heaps;
		// symmetrization then legitimately lifts hub nodes past k.
		for v := range heaps {
			invariant.Checkf(len(heaps[v]) <= k,
				"nndescent: node %d holds %d candidates, cap %d", v, len(heaps[v]), k)
		}
	}
	g := finalize(heaps, view)
	if invariant.Enabled {
		invariant.NoError(g.Validate(), "nndescent: pre-bridge graph shape")
	}
	return graph.EnsureConnected(g, view, rng)
}

// initRandom seeds every node with k distinct random neighbors.
func (b *Builder) initRandom(view vec.View, n, k int, rng *rand.Rand) []nodeHeap {
	heaps := make([]nodeHeap, n)
	for v := 0; v < n; v++ {
		h := make(nodeHeap, 0, k)
		for len(h) < k {
			c := int32(rng.Intn(n))
			if int(c) == v {
				continue
			}
			dup := false
			for _, e := range h {
				if e.id == c {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			h = append(h, entry{id: c, dist: view.Dist(v, int(c)), isNew: true})
			h.siftUp(len(h) - 1)
		}
		heaps[v] = h
	}
	return heaps
}

// appendSampled returns fwd plus up to limit elements sampled from rev.
// The result may alias fwd's backing array; callers use it read-only
// within the iteration.
func appendSampled(fwd, rev []int32, limit int, rng *rand.Rand) []int32 {
	if len(rev) == 0 {
		return fwd
	}
	out := make([]int32, len(fwd), len(fwd)+limit)
	copy(out, fwd)
	if len(rev) <= limit {
		return append(out, rev...)
	}
	// Partial Fisher-Yates over a copy so rev's order is preserved for the
	// reverse lists of other nodes.
	tmp := make([]int32, len(rev))
	copy(tmp, rev)
	for i := 0; i < limit; i++ {
		j := i + rng.Intn(len(tmp)-i)
		tmp[i], tmp[j] = tmp[j], tmp[i]
	}
	return append(out, tmp[:limit]...)
}

// finalize converts the neighbor heaps to a CSR graph with each node's
// neighbors sorted by ascending distance, then symmetrizes it.
//
// Symmetrization (adding the reverse of every edge) is essential, not an
// optimization: a pure kNN graph is directed, and a tight cluster whose
// members are nobody else's k-nearest has no incoming edges at all —
// best-first search following out-edges can never enter it, regardless of
// ε. Search-oriented kNN-graph systems (NGT, Efanna, NSG) all add reverse
// edges for exactly this reason.
func finalize(heaps []nodeHeap, view vec.View) *graph.CSR {
	lists := make([][]int32, len(heaps))
	for v, h := range heaps {
		tmp := make([]entry, len(h))
		copy(tmp, h)
		sortEntries(tmp)
		ids := make([]int32, len(tmp))
		for i, e := range tmp {
			ids[i] = e.id
		}
		lists[v] = ids
	}
	return symmetrize(lists, view)
}

// symmetrize returns the undirected closure of the adjacency lists with
// each node's final neighbor list deduplicated and sorted by ascending
// distance.
func symmetrize(lists [][]int32, view vec.View) *graph.CSR {
	n := len(lists)
	merged := make([][]int32, n)
	for v, nbs := range lists {
		merged[v] = append(merged[v], nbs...)
	}
	for v, nbs := range lists {
		for _, nb := range nbs {
			merged[nb] = append(merged[nb], int32(v))
		}
	}
	type nd struct {
		id   int32
		dist float32
	}
	for v := range merged {
		seen := make(map[int32]struct{}, len(merged[v]))
		cands := make([]nd, 0, len(merged[v]))
		for _, nb := range merged[v] {
			if _, dup := seen[nb]; dup || int(nb) == v {
				continue
			}
			seen[nb] = struct{}{}
			cands = append(cands, nd{nb, view.Dist(v, int(nb))})
		}
		for i := 1; i < len(cands); i++ {
			x := cands[i]
			j := i - 1
			for j >= 0 && (cands[j].dist > x.dist || (cands[j].dist == x.dist && cands[j].id > x.id)) {
				cands[j+1] = cands[j]
				j--
			}
			cands[j+1] = x
		}
		out := merged[v][:0]
		for _, c := range cands {
			out = append(out, c.id)
		}
		merged[v] = out
	}
	return graph.FromLists(merged)
}

func sortEntries(a []entry) {
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i - 1
		for j >= 0 && (a[j].dist > x.dist || (a[j].dist == x.dist && a[j].id > x.id)) {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = x
	}
}

// exactGraph computes the exact K-NN graph by brute force; used for blocks
// small enough that NNDescent's machinery is overhead.
func exactGraph(view vec.View, k int) *graph.CSR {
	n := view.Len()
	lists := make([][]int32, n)
	type cand struct {
		id   int32
		dist float32
	}
	cands := make([]cand, 0, n-1)
	for v := 0; v < n; v++ {
		cands = cands[:0]
		for u := 0; u < n; u++ {
			if u == v {
				continue
			}
			cands = append(cands, cand{id: int32(u), dist: view.Dist(v, u)})
		}
		// Partial selection sort for the k nearest: k is small relative to
		// these block sizes.
		for i := 0; i < k; i++ {
			best := i
			for j := i + 1; j < len(cands); j++ {
				if cands[j].dist < cands[best].dist ||
					(cands[j].dist == cands[best].dist && cands[j].id < cands[best].id) {
					best = j
				}
			}
			cands[i], cands[best] = cands[best], cands[i]
		}
		ids := make([]int32, k)
		for i := 0; i < k; i++ {
			ids[i] = cands[i].id
		}
		lists[v] = ids
	}
	// Symmetrized for the same directed-reachability reason as finalize.
	return symmetrize(lists, view)
}
