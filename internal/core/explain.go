package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/exec"
)

// BlockPlan describes one block that top-down selection chose for a query
// window.
type BlockPlan struct {
	// Lo, Hi is the block's global vector range.
	Lo, Hi int
	// Height is the block's tree height (0 = leaf); -1 marks the open
	// (non-full) leaf, which is scanned by brute force.
	Height int
	// WindowStart, WindowEnd is the block's time window [t_s, t_e).
	WindowStart, WindowEnd int64
	// OverlapRatio is r_o(q, B), the fraction of the block's window
	// covered by the query (the quantity Algorithm 4 thresholds on).
	OverlapRatio float64
	// InWindow is the number of the block's vectors inside the query
	// window — the work a brute-force scan would do, and the candidate
	// pool a graph search filters for.
	InWindow int
	// BruteForce reports whether this block is answered by brute force
	// (only the open leaf) rather than graph search.
	BruteForce bool
	// Compressed reports that the block is searched through its SQ8 codes
	// (asymmetric distances + exact re-rank) rather than the float store.
	// For a cold block it reflects the fetched payload in executed plans
	// and is false in static ones (the payload is on disk).
	Compressed bool
	// Cold reports that the block is spilled: its payload is paged in
	// through the block cache by the executor's fetch stage. Fetch is
	// the page-in time in an executed plan (near-zero on a cache hit).
	Cold  bool
	Fetch time.Duration
	// Duration is the block subtask's wall-clock run time. Zero unless the
	// plan was executed (Request.Explain).
	Duration time.Duration
	// Skipped reports that the executed plan's context was done before
	// this block's subtask started. Always false for static Explain.
	Skipped bool
	// Found is the number of neighbors the block's subtask returned in an
	// executed plan.
	Found int
}

// Plan is the result of Explain: everything block selection decided for a
// query window, without running the search.
type Plan struct {
	// Tau is the threshold the plan was computed with.
	Tau float64
	// WindowStart, WindowEnd echo the query window.
	WindowStart, WindowEnd int64
	// TotalInWindow is the number of indexed vectors inside the window.
	TotalInWindow int
	// Blocks are the selected blocks in timestamp order.
	Blocks []BlockPlan

	// Executed reports whether the plan was actually run
	// (Request.Explain); the fields below are zero otherwise.
	Executed bool
	// Partial reports that the context was done before every block
	// finished — the query's results cover only the blocks that ran.
	Partial bool
	// Select, Search, Merge are the executed query's stage durations:
	// block selection + planning, per-block subtask execution, and the
	// final theap.Merge combine. Rerank is the CPU time compressed blocks
	// spent re-scoring candidates exactly; it is contained in Search.
	// Fetch is the summed time cold blocks spent paging their payloads
	// through the block cache; it overlaps the Search wall clock.
	Select, Search, Merge, Rerank, Fetch time.Duration
}

// String renders the plan like an EXPLAIN output; executed plans include
// stage durations and per-block timings (EXPLAIN ANALYZE, as it were).
func (p Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "window [%d, %d): %d vectors in %d block(s), tau=%.2f\n",
		p.WindowStart, p.WindowEnd, p.TotalInWindow, len(p.Blocks), p.Tau)
	if p.Executed {
		fmt.Fprintf(&b, "executed: select %v, search %v, merge %v", p.Select, p.Search, p.Merge)
		if p.Rerank > 0 {
			fmt.Fprintf(&b, " (rerank %v)", p.Rerank)
		}
		if p.Fetch > 0 {
			fmt.Fprintf(&b, " (fetch %v)", p.Fetch)
		}
		if p.Partial {
			b.WriteString(" (partial)")
		}
		b.WriteString("\n")
	}
	for _, blk := range p.Blocks {
		kind := fmt.Sprintf("height %d, graph", blk.Height)
		if blk.Compressed {
			kind = fmt.Sprintf("height %d, graph+sq8", blk.Height)
		}
		if blk.Cold {
			kind += ", cold"
		}
		if blk.BruteForce {
			kind = "open leaf, brute force"
		}
		fmt.Fprintf(&b, "  block [%d, %d) %-24s overlap %.2f, %d/%d vectors in window",
			blk.Lo, blk.Hi, "("+kind+")", blk.OverlapRatio, blk.InWindow, blk.Hi-blk.Lo)
		if p.Executed {
			if blk.Skipped {
				b.WriteString(", skipped")
			} else {
				fmt.Fprintf(&b, ", %d found in %v", blk.Found, blk.Duration)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Explain runs top-down block selection for the window [ts, te) with the
// index's configured τ and reports what a query would search, without
// searching. Use ExplainTau to inspect a different threshold.
func (ix *Index) Explain(ts, te int64) Plan {
	return ix.ExplainTau(ts, te, ix.opts.Tau)
}

// ExplainTau is Explain with an explicit τ.
func (ix *Index) ExplainTau(ts, te int64, tau float64) Plan {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	plan := Plan{Tau: tau, WindowStart: ts, WindowEnd: te}
	if ix.store.Len() > 0 && ts < te {
		ix.explainSelLocked(&plan, ix.selectBlocksLocked(ts, te, tau, nil))
	}
	return plan
}

// explainSelLocked renders selections into the static half of plan, whose
// Tau and window are already set. Caller holds mu.
func (ix *Index) explainSelLocked(plan *Plan, sel []selection) {
	ts, te := plan.WindowStart, plan.WindowEnd
	for _, s := range sel {
		bts, bte := ix.blockWindowLocked(s.lo, s.hi)
		ro := 1.0
		if bte > bts {
			ro = float64(min64(bte, te)-max64(bts, ts)) / float64(bte-bts)
		}
		if ro > 1 {
			ro = 1
		}
		inWindow := countInWindow(ix.times[s.lo:s.hi], ts, te)
		height := -1
		if !s.openLeaf {
			height = ix.heightOfRangeLocked(s.lo, s.hi)
		}
		plan.Blocks = append(plan.Blocks, BlockPlan{
			Lo: s.lo, Hi: s.hi,
			Height:      height,
			WindowStart: bts, WindowEnd: bte,
			OverlapRatio: ro,
			InWindow:     inWindow,
			BruteForce:   s.openLeaf,
			Compressed:   s.codes != nil,
			Cold:         s.cold,
		})
		plan.TotalInWindow += inWindow
	}
}

// explainExecutedLocked completes Request.Explain after the query ran: the
// static rendering of the executed selections, annotated from the outcome.
// Caller holds mu.
func (ix *Index) explainExecutedLocked(plan *Plan, sel []selection, out exec.Outcome) {
	ix.explainSelLocked(plan, sel)
	plan.Executed = true
	plan.Partial = out.Partial
	plan.Select = out.Select
	plan.Search = out.Search
	plan.Merge = out.Merge
	plan.Rerank = out.Rerank
	plan.Fetch = out.Fetch
	// planLocked emits exactly one subtask per selection, in order, so the
	// executed results annotate the static blocks 1:1.
	for i := range plan.Blocks {
		sr := out.Subtasks[i]
		plan.Blocks[i].Duration = sr.Duration
		plan.Blocks[i].Skipped = sr.Skipped
		plan.Blocks[i].Found = sr.Found
		plan.Blocks[i].Fetch = sr.Fetch
		// A cold block's compressed flag is only knowable once the fetch
		// resolved the payload; the executed kind carries it.
		if sr.Cold && sr.Kind == exec.CompressedGraph {
			plan.Blocks[i].Compressed = true
		}
	}
}

// heightOfRangeLocked resolves a selected range back to its block height.
// Selection only returns ranges of real blocks, so the lookup always hits.
func (ix *Index) heightOfRangeLocked(lo, hi int) int {
	for i := len(ix.blocks) - 1; i >= 0; i-- {
		if ix.blocks[i].Lo == lo && ix.blocks[i].Hi == hi {
			return ix.blocks[i].Height
		}
	}
	return -1
}

// countInWindow counts timestamps in [ts, te) within a sorted slice.
func countInWindow(times []int64, ts, te int64) int {
	lo, hi := 0, len(times)
	for lo < hi {
		mid := (lo + hi) / 2
		if times[mid] < ts {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	start := lo
	lo, hi = start, len(times)
	for lo < hi {
		mid := (lo + hi) / 2
		if times[mid] < te {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - start
}
