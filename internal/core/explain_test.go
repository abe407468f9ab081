package core

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sq"
)

func TestExplainMatchesSelection(t *testing.T) {
	ix, err := New(testOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	fill(t, ix, 51, 100)
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 60; trial++ {
		a := rng.Intn(100)
		b := a + 1 + rng.Intn(100-a)
		plan := ix.Explain(int64(a), int64(b))
		ranges := ix.SelectedRanges(int64(a), int64(b), ix.opts.Tau)
		if len(plan.Blocks) != len(ranges) {
			t.Fatalf("[%d,%d): plan has %d blocks, selection %d", a, b, len(plan.Blocks), len(ranges))
		}
		total := 0
		for i, blk := range plan.Blocks {
			if blk.Lo != ranges[i][0] || blk.Hi != ranges[i][1] {
				t.Fatalf("plan block %d range mismatch", i)
			}
			if blk.InWindow < 0 || blk.InWindow > blk.Hi-blk.Lo {
				t.Fatalf("block %d in-window count %d out of range", i, blk.InWindow)
			}
			if blk.OverlapRatio < 0 || blk.OverlapRatio > 1 {
				t.Fatalf("block %d overlap ratio %g", i, blk.OverlapRatio)
			}
			total += blk.InWindow
		}
		// Timestamps are 0..n-1, so the window count is b-a (clamped).
		if want := b - a; plan.TotalInWindow != want || total != want {
			t.Fatalf("[%d,%d): total in-window %d (sum %d), want %d", a, b, plan.TotalInWindow, total, want)
		}
	}
}

func TestExplainOpenLeafAndHeights(t *testing.T) {
	ix, err := New(testOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	fill(t, ix, 53, 20) // 2 sealed leaves + 4 in the open leaf
	plan := ix.Explain(0, 100)
	var sawOpen, sawGraph bool
	for _, blk := range plan.Blocks {
		if blk.BruteForce {
			sawOpen = true
			if blk.Height != -1 {
				t.Errorf("open leaf height %d, want -1", blk.Height)
			}
			if blk.Lo != 16 || blk.Hi != 20 {
				t.Errorf("open leaf range [%d,%d)", blk.Lo, blk.Hi)
			}
		} else {
			sawGraph = true
			if blk.Height < 0 {
				t.Errorf("sealed block height %d", blk.Height)
			}
		}
	}
	if !sawOpen || !sawGraph {
		t.Errorf("plan should include both kinds: open=%v graph=%v", sawOpen, sawGraph)
	}
	s := plan.String()
	for _, want := range []string{"window [0, 100)", "brute force", "graph"} {
		if !strings.Contains(s, want) {
			t.Errorf("plan string missing %q:\n%s", want, s)
		}
	}
}

func TestExplainEmptyCases(t *testing.T) {
	ix, err := New(testOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	if plan := ix.Explain(0, 10); len(plan.Blocks) != 0 {
		t.Errorf("empty index plan has blocks: %+v", plan)
	}
	fill(t, ix, 55, 10)
	if plan := ix.Explain(5, 5); len(plan.Blocks) != 0 {
		t.Errorf("empty window plan has blocks: %+v", plan)
	}
	if plan := ix.Explain(1000, 2000); len(plan.Blocks) != 0 {
		t.Errorf("out-of-range plan has blocks: %+v", plan)
	}
}

func TestExplainTauChangesGranularity(t *testing.T) {
	ix, err := New(testOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	fill(t, ix, 57, 64)
	coarse := ix.ExplainTau(13, 45, 0.05)
	fine := ix.ExplainTau(13, 45, 1.0)
	if len(fine.Blocks) <= len(coarse.Blocks) {
		t.Errorf("tau=1 plan (%d blocks) not finer than tau=0.05 (%d)", len(fine.Blocks), len(coarse.Blocks))
	}
}

// TestExplainCountsDistEvals: an executed plan reports each block's
// distance evaluations — a flat graph block at most one per node (the
// walk's memo scores each node once per query), the open leaf one per
// in-window row — sums them into the plan and prints them, and the counts
// are the same on every run and at one and at four procs.
func TestExplainCountsDistEvals(t *testing.T) {
	for _, kind := range []sq.Kind{sq.None, sq.SQ8} {
		opts := testOptions(16)
		opts.Compression = kind
		ix, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		vs := fill(t, ix, 63, 300) // 18 sealed leaves and 12 open rows
		rng := rand.New(rand.NewSource(64))
		type ask struct {
			q      []float32
			ts, te int64
		}
		asks := make([]ask, 20)
		for i := range asks {
			a := rng.Intn(300)
			asks[i] = ask{vs[rng.Intn(len(vs))], int64(a), int64(a + 1 + rng.Intn(300-a))}
		}
		want := make([][]int, len(asks))
		for _, procs := range []int{1, 4} {
			setProcs(t, procs)
			for run := 0; run < 2; run++ {
				for ai, a := range asks {
					var plan Plan
					queryCtx(context.Background(), ix, Request{Q: a.q, K: 5, Ts: a.ts, Te: a.te, Explain: &plan})
					counts := make([]int, len(plan.Blocks))
					sum := 0
					for bi, blk := range plan.Blocks {
						n := blk.Hi - blk.Lo
						switch {
						case blk.BruteForce && blk.DistEvals != blk.InWindow:
							t.Fatalf("%v query %d: open leaf scored %d rows, %d in window", kind, ai, blk.DistEvals, blk.InWindow)
						case !blk.BruteForce && !blk.Compressed && (blk.DistEvals <= 0 || blk.DistEvals > n):
							t.Fatalf("%v query %d: graph block of %d nodes made %d distance evaluations", kind, ai, n, blk.DistEvals)
						case blk.Compressed && (blk.DistEvals <= 0 || blk.DistEvals > 2*n):
							t.Fatalf("%v query %d: compressed block of %d nodes made %d distance evaluations", kind, ai, n, blk.DistEvals)
						}
						counts[bi] = blk.DistEvals
						sum += blk.DistEvals
					}
					if plan.DistEvals != sum {
						t.Fatalf("%v query %d: plan total %d, blocks sum to %d", kind, ai, plan.DistEvals, sum)
					}
					if !strings.Contains(plan.String(), "dist evals") {
						t.Fatalf("%v query %d: plan string omits the counts:\n%s", kind, ai, plan.String())
					}
					if want[ai] == nil {
						want[ai] = counts
					} else if !reflect.DeepEqual(counts, want[ai]) {
						t.Fatalf("%v query %d at %d procs, run %d: counts %v, first run %v", kind, ai, procs, run, counts, want[ai])
					}
				}
			}
		}
	}
}
