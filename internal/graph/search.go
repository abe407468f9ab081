package graph

import (
	"math/rand"

	"repro/internal/sq"
	"repro/internal/theap"
	"repro/internal/vec"
)

// SearchParams carries the tunables of Algorithm 2.
type SearchParams struct {
	// MC is the maximum candidate-set size M_C: when the frontier grows
	// past it, only the M_C nearest candidates are retained (line 16-17).
	MC int
	// Eps is the range-extension factor ε ≥ 1 controlling how far past the
	// current k-th distance the traversal keeps expanding once the result
	// set is full (line 11). Larger values trade speed for recall; the
	// paper sweeps 1.00–1.40 in steps of 0.02.
	Eps float32
}

// Searcher runs time-filtered best-first graph searches (Algorithm 2) over
// a fixed graph + view pair, reusing its internal buffers between queries.
// A Searcher is NOT safe for concurrent use; create one per goroutine.
type Searcher struct {
	visited  []uint32 // epoch-stamped per walk instead of cleared
	epoch    uint32
	admitted []uint32    // qEpoch-stamped: the node entered this query's result heap
	memo     []memoEntry // qEpoch-stamped distances: each node is scored once per query
	qEpoch   uint32
	evals    int // memo misses of the current query
	frontier theap.MinQueue
	eval     distEval // the current query's candidate scorer (flat or compressed)
}

// memoEntry is one node's distance to the current query, valid while its
// stamp equals the Searcher's query epoch.
type memoEntry struct {
	stamp uint32
	dist  float32
}

// distEval scores walk candidates for one query. The flat form reads the
// store through a view with the query's squared norm hoisted; the
// compressed form (codes != nil) scores SQ8 code rows directly. It lives
// inside the Searcher — not on the stack — so handing it to the walk never
// escapes a per-query allocation, and it is a struct with a branch rather
// than a function value for the same reason (a per-query closure is one
// heap allocation per block per query).
type distEval struct {
	view   vec.View
	qsq    float32 // SquaredNorm(query), flat angular path
	codes  *sq.Codes
	qn     float32 // Norm(query), compressed angular path
	metric vec.Metric
}

// dist scores local node i against the query.
//
//tknn:hotpath
func (e *distEval) dist(q []float32, i int32) float32 {
	if e.codes != nil {
		return e.codes.Dist(e.metric, q, e.qn, int(i))
	}
	return e.view.DistToCached(q, e.qsq, int(i))
}

// NewSearcher returns a Searcher sized for graphs up to n nodes. It grows
// on demand, so n is only a pre-allocation hint.
func NewSearcher(n int) *Searcher {
	return &Searcher{visited: make([]uint32, n), admitted: make([]uint32, n), memo: make([]memoEntry, n)}
}

// timeFilter is the walk's admission test: the time window [ts, te) over
// the local-indexed timestamps. A nil times admits every node. Nodes
// failing it are still traversed (they guide the walk), they just never
// become results — exactly the SF modification in §3.2.2.
type timeFilter struct {
	times  []int64 // local-indexed: times[i] belongs to view node i
	ts, te int64
}

// ok reports whether the node at local index i may enter the result set.
func (f *timeFilter) ok(i int32) bool {
	if f.times == nil {
		return true
	}
	t := f.times[i]
	return t >= f.ts && t < f.te
}

// SearchInto runs Algorithm 2 over g and view: best-first walks from each
// entry seed, collecting into the caller-owned result heap (reset here to
// the query's k) only nodes whose timestamp lands in [ts, te) — times is
// local-indexed, nil admits every node. Retained neighbors are left in
// result, unsorted, with local ids; callers drain with result.Items(). It
// is a no-op on an empty graph, an empty entry list, or k <= 0.
//
// entries[0] is the primary walk — a uniformly random node of the view is
// line 1 of the algorithm; callers draw it so that query-level determinism
// is under their control. Further entries run as restarts: each gets its
// own best-first walk (own frontier, own visited set) so the walks' basins
// union — a single unlucky entry can get absorbed into a local attractor
// the M_C cap and ε-bound will not let it escape, and with independent
// walks a miss requires every seed to be unlucky at once (miss rates
// multiply). The restarts share one result heap and so inherit the tight
// ε-bound of the walks before them, but they do not collapse: on the
// benchmark's data a serve-long-shaped query's walks (four per graph
// block) step onto nodes 4 518 times but reach only 1 373 distinct ones,
// each restart re-treading much of the basin the first walk covered. The
// per-query distance memo makes that re-treading cheap — a node's distance
// is computed once per query and looked up on every later visit — so what
// a restart costs beyond its frontier bookkeeping is the nodes no earlier
// walk reached.
//
//tknn:hotpath
func (s *Searcher) SearchInto(result *theap.TopK, g *CSR, view vec.View, q []float32, times []int64, ts, te int64, p SearchParams, entries []int32, k int) {
	s.evals = 0
	if g.NumNodes() == 0 || len(entries) == 0 || k <= 0 {
		return
	}
	result.ResetK(k)
	f := timeFilter{times: times, ts: ts, te: te}
	s.eval = distEval{view: view, qsq: vec.SquaredNorm(q), metric: view.Metric}
	s.run(result, g, q, &f, p, view.Metric, entries)
}

// SearchCodesInto is SearchInto over a compressed block: candidates are
// scored against SQ8 codes (codes.Dist) instead of the float32 store, so
// the walk reads one byte per coordinate. qNorm is the query's L2 norm
// (vec.Norm), consumed by the angular finish. Distances in result are
// asymmetric-approximate; callers over-fetch and re-rank exactly (see
// exec's compressed kernels).
//
//tknn:hotpath
func (s *Searcher) SearchCodesInto(result *theap.TopK, g *CSR, codes *sq.Codes, q []float32, metric vec.Metric, qNorm float32, times []int64, ts, te int64, p SearchParams, entries []int32, k int) {
	s.evals = 0
	if g.NumNodes() == 0 || len(entries) == 0 || k <= 0 {
		return
	}
	result.ResetK(k)
	f := timeFilter{times: times, ts: ts, te: te}
	s.eval = distEval{codes: codes, qn: qNorm, metric: metric}
	s.run(result, g, q, &f, p, metric, entries)
}

// DistEvals reports how many distance evaluations the last SearchInto or
// SearchCodesInto made: one per distinct node its walks reached, since the
// memo answers every later visit.
func (s *Searcher) DistEvals() int { return s.evals }

// run executes the query's walks with the prepared scorer (s.eval).
func (s *Searcher) run(result *theap.TopK, g *CSR, q []float32, f *timeFilter, p SearchParams, metric vec.Metric, entries []int32) {
	// Euclidean scorers compare squared distances, so the range-extension
	// factor is squared to keep ε's meaning ("explore up to ε times the
	// current k-th distance") metric-independent and comparable to the
	// paper's 1.00–1.40 sweep.
	eps := p.Eps
	if metric == vec.Euclidean {
		eps *= eps
	}
	s.beginQuery(g.NumNodes())
	s.walk(g, q, f, p, eps, entries[0], result, false)
	for _, e := range entries[1:] {
		s.walk(g, q, f, p, eps, e, result, true)
	}
}

// score returns local node i's distance to the query, evaluating it only
// on the query's first visit to i. A distance is a pure function of (query,
// node), so the memo cannot change what any walk sees.
func (s *Searcher) score(q []float32, i int32) float32 {
	m := &s.memo[i]
	if m.stamp == s.qEpoch {
		return m.dist
	}
	d := s.eval.dist(q, i)
	*m = memoEntry{stamp: s.qEpoch, dist: d}
	s.evals++
	return d
}

// walk is one best-first traversal (Algorithm 2) from entry, admitting
// into the shared result heap. Each walk gets a fresh visited epoch so it
// can traverse nodes earlier walks saw; admitted stamps persist across the
// query's walks so a node enters the result heap at most once.
//
// restart marks walks after the first. They inherit the ε-bound the
// earlier walks established, which would strand a seed that starts outside
// it (its very first expansion gets pruned); a restart may therefore
// always expand a neighbor strictly closer than the node being expanded —
// pure greedy descent is allowed from anywhere, and the full ε-bounded
// broadening resumes once the walk is inside the bound. The first walk is
// Algorithm 2 verbatim.
func (s *Searcher) walk(g *CSR, q []float32, filter *timeFilter, p SearchParams, eps float32, entry int32, result *theap.TopK, restart bool) {
	s.beginEpoch(g.NumNodes())
	// Lines 16-17 — retain only the M_C nearest candidates — happen inside
	// the frontier's Push: nothing pops between the pushes of one
	// expansion, so evicting at push time keeps the same M_C.
	s.frontier.Reset(p.MC)
	s.markSeen(entry)
	s.frontier.Push(theap.Neighbor{ID: entry, Dist: s.score(q, entry)})

	// The loop runs until the candidate set is exhausted (line 5): unlike
	// many best-first searches there is no early break on the frontier
	// minimum — exploration is bounded instead by the ε admission gate
	// (line 11) and the M_C frontier cap (lines 16-17), exactly as the
	// paper specifies. ε therefore directly controls how much of the
	// query's neighborhood is visited.
	for s.frontier.Len() > 0 {
		cur := s.frontier.Pop() // argmin over C \ V (line 6)

		// Lines 8-11: expand neighbors, bounding by eps * worst(R) once
		// the result set is full.
		var bound float32
		bounded := false
		if result.Full() {
			bound = eps * result.Worst()
			bounded = true
		}
		for _, nb := range g.Neighbors(cur.ID) {
			if s.seen(nb) {
				continue
			}
			s.markSeen(nb)
			d := s.score(q, nb)
			if bounded && d >= bound && !(restart && d < cur.Dist) {
				continue
			}
			s.frontier.Push(theap.Neighbor{ID: nb, Dist: d})
		}

		// Lines 12-15: admit the visited node into R if it passes the
		// time filter and no earlier walk already admitted it (a node's
		// distance is fixed, so re-admission could only duplicate).
		if filter.ok(cur.ID) && s.admitted[cur.ID] != s.qEpoch {
			s.admitted[cur.ID] = s.qEpoch
			result.Push(cur)
		}
	}
}

// RandomEntry picks a uniform entry node for a graph with n nodes.
func RandomEntry(rng *rand.Rand, n int) int32 {
	return int32(rng.Intn(n))
}

// beginQuery starts a new query epoch (one per SearchInto call): it
// invalidates the admitted stamps and the distance memo at once.
func (s *Searcher) beginQuery(n int) {
	if len(s.memo) < n {
		// Fresh arrays hold no stamps, so the epochs restart with them.
		//lint:ignore hotpath-alloc cold-start growth; the admitted array is retained for every later query
		s.admitted = make([]uint32, n)
		//lint:ignore hotpath-alloc cold-start growth; the memo is retained for every later query
		s.memo = make([]memoEntry, n)
		s.qEpoch = 0
	}
	s.qEpoch++
	if s.qEpoch == 0 { // wrapped: clear and restart
		clear(s.admitted)
		clear(s.memo)
		s.qEpoch = 1
	}
}

// beginEpoch starts a new visited epoch (one per walk).
func (s *Searcher) beginEpoch(n int) {
	if len(s.visited) < n {
		//lint:ignore hotpath-alloc cold-start growth; the visited array is retained for every later query
		grown := make([]uint32, n)
		copy(grown, s.visited)
		s.visited = grown
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: clear and restart
		for i := range s.visited {
			s.visited[i] = 0
		}
		s.epoch = 1
	}
}

func (s *Searcher) seen(i int32) bool { return s.visited[i] == s.epoch }
func (s *Searcher) markSeen(i int32)  { s.visited[i] = s.epoch }
