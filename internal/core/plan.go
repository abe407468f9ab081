package core

import (
	"math/rand"
	"time"

	"repro/internal/bsbf"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/invariant"
)

// This file is MBI's half of the plan/execute split: block selection
// (Algorithm 4) becomes a planner that translates its selections into
// exec.Subtasks, and the shared executor owns running them — sequentially
// or across a worker pool — and merging.

// planTimedLocked runs block selection and builds the executable plan,
// returning the selections (Explain annotates them) and the planning
// duration for the outcome's Select stage. Every buffer the plan needs
// comes from scr, so a warmed-up call allocates nothing. Caller holds mu.
func (ix *Index) planTimedLocked(scr *Scratch, q []float32, k int, ts, te int64, tau float64, p graph.SearchParams, rng *rand.Rand) (exec.Plan, []selection, time.Duration) {
	start := time.Now()
	sel := ix.selectBlocksLocked(ts, te, tau, scr.sel[:0])
	scr.sel = sel
	if invariant.Enabled {
		invariant.NoError(ix.validateSelectionLocked(sel, ts, te), "mbi: block selection")
	}
	plan := ix.planLocked(scr, sel, q, k, ts, te, p, rng)
	scr.ex.Subtasks = plan.Subtasks[:0]
	return plan, sel, time.Since(start)
}

// entryProbes is how many entry seeds pickEntriesLocked draws per graph
// block. A single random entry (Algorithm 2 line 1 verbatim) occasionally
// starts the walk in a basin the ε-bounded expansion cannot escape and
// misses an exact match even at k=1; multi-seeding the frontier with a
// handful of independent starts unions their basins, so a miss requires
// every seed to be unlucky at once. The restarts are not cheap walks: on
// the benchmark's data a serve-long-shaped query's walks (four per graph
// block) step onto nodes 4 518 times but reach only 1 373 distinct ones,
// each restart re-treading the basin the first walk covered. The searcher's per-query
// distance memo scores each of those nodes once, so what the extra seeds
// cost in distance evaluations is only the nodes no earlier walk reached.
// The count is a default that answers depend on: changing it changes them.
const entryProbes = 4

// pickEntriesLocked draws the graph entry seeds for one selected block at
// plan time: entryProbes candidates, from rng when non-nil, else the
// plan-local entropy. The seeds are appended to scr's entry arena and
// returned as a capped sub-slice, so seed storage for any number of blocks
// costs zero steady-state allocations. Duplicates are fine — the
// searcher's visited set collapses them. Caller holds mu.
func (ix *Index) pickEntriesLocked(scr *Scratch, s selection, rng *rand.Rand, ent *exec.Entropy) []int32 {
	n := s.hi - s.lo
	probes := entryProbes
	if probes > n {
		probes = n
	}
	start := len(scr.ex.Entries)
	for i := 0; i < probes; i++ {
		if rng != nil {
			scr.ex.Entries = append(scr.ex.Entries, graph.RandomEntry(rng, n))
		} else {
			scr.ex.Entries = append(scr.ex.Entries, int32(ent.Intn(n)))
		}
	}
	return scr.ex.Entries[start:len(scr.ex.Entries):len(scr.ex.Entries)]
}

// planLocked translates selections into an exec.Plan: one subtask per
// selected block, in selection (= timestamp) order — graph search
// (Algorithm 2) for sealed blocks, brute scan (Algorithm 1) for the open
// leaf and any pending async tail. Subtasks are pure data; the executor's
// built-in kernels run them.
//
// Entry seeds are drawn here, at plan time, sequentially in selection
// order: an explicit rng therefore consumes a deterministic sequence
// (reproducible experiments stay reproducible), and execution order cannot
// perturb the draws — which, together with the subtasks covering disjoint
// global-id ranges, makes the merged result identical for every worker
// count. A nil rng draws from the scratch's entropy source reseeded by
// hashing the query vector: no shared state to contend on, and the same
// query always walks from the same entries, so internal-path results are
// deterministic end to end.
//
// The subtasks reference store, times, and graphs directly; the caller
// holds mu across the executor and the executor joins its workers before
// returning, so the references never outlive the lock. Caller holds mu.
func (ix *Index) planLocked(scr *Scratch, sel []selection, q []float32, k int, ts, te int64, p graph.SearchParams, rng *rand.Rand) exec.Plan {
	plan := exec.Plan{K: k, Query: q, Subtasks: scr.ex.Subtasks[:0]}
	scr.ex.Entries = scr.ex.Entries[:0]
	var ent *exec.Entropy
	if rng == nil {
		scr.ex.Ent.Reseed(int64(exec.QueryHash(ix.entrySalt, q)))
		ent = &scr.ex.Ent
	}
	for _, s := range sel {
		st := exec.Subtask{Lo: s.lo, Hi: s.hi, Store: ix.store, Metric: ix.opts.Metric}
		st.WindowStart, st.WindowEnd = ix.blockWindowLocked(s.lo, s.hi)
		if s.openLeaf {
			st.Kind = exec.BruteScan
			lo, hi := bsbf.WindowOf(ix.times[s.lo:s.hi], ts, te)
			st.ScanLo, st.ScanHi = s.lo+lo, s.lo+hi
		} else if s.cold {
			// Spilled block: the kernel inputs except the payload. Entry
			// seeds are still drawn here, in selection order, so results
			// are bit-identical to the RAM-resident plan. RerankK is
			// preset because whether the fetched payload carries codes is
			// unknown until the fetch stage resolves it.
			st.Kind = exec.GraphSearch
			st.Cold = true
			st.Cache = ix.cache
			st.CacheKey = uint64(s.id)
			st.Params = p
			st.Entries = ix.pickEntriesLocked(scr, s, rng, ent)
			st.Times = ix.times[s.lo:s.hi]
			st.Ts, st.Te = ts, te
			st.RerankK = exec.RerankK(k, ix.opts.RerankFactor, s.hi-s.lo)
		} else {
			st.Kind = exec.GraphSearch
			st.Graph = s.g
			st.Params = p
			st.Entries = ix.pickEntriesLocked(scr, s, rng, ent)
			st.Times = ix.times[s.lo:s.hi]
			st.Ts, st.Te = ts, te
			if s.codes != nil {
				// Compressed block: walk the graph against the SQ8 codes,
				// over-fetching k·RerankFactor so the exact re-rank can
				// recover ordering errors the quantizer introduced.
				st.Kind = exec.CompressedGraph
				st.Codes = s.codes
				st.RerankK = exec.RerankK(k, ix.opts.RerankFactor, s.hi-s.lo)
			}
		}
		plan.Subtasks = append(plan.Subtasks, st)
	}
	return plan
}
