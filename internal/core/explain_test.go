package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/graph"
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

func TestTuneTauAndAutoSearch(t *testing.T) {
	ix, err := New(testOptions(16))
	if err != nil {
		t.Fatal(err)
	}
	vs := fill(t, ix, 59, 400)
	table, err := ix.TuneTau(TunerConfig{
		Taus:             []float64{0.2, 0.5, 0.8},
		Fractions:        []float64{0.05, 0.5, 1.0},
		QueriesPerBucket: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Taus) != 3 {
		t.Fatalf("table has %d entries", len(table.Taus))
	}
	for _, tau := range table.Taus {
		if tau != 0.2 && tau != 0.5 && tau != 0.8 {
			t.Errorf("tuned tau %g not from the grid", tau)
		}
	}
	// TauFor bucketing.
	if got := table.TauFor(0.01); got != table.Taus[0] {
		t.Errorf("TauFor(0.01) = %g, want bucket 0's %g", got, table.Taus[0])
	}
	if got := table.TauFor(0.9); got != table.Taus[2] {
		t.Errorf("TauFor(0.9) = %g, want bucket 2's %g", got, table.Taus[2])
	}
	if got := table.TauFor(2.0); got != table.Taus[2] {
		t.Errorf("TauFor beyond last bucket should clamp")
	}

	// Auto search returns valid in-window results.
	rng := rand.New(rand.NewSource(60))
	p := graph.SearchParams{MC: 32, Eps: 1.3}
	for trial := 0; trial < 20; trial++ {
		a := rng.Intn(400)
		b := a + 1 + rng.Intn(400-a)
		res, _ := queryCtx(context.Background(), ix, Request{Q: vs[rng.Intn(len(vs))], K: 5, Ts: int64(a), Te: int64(b), TauTable: table, Params: p, Rng: rng})
		for _, r := range res {
			if int(r.ID) < a || int(r.ID) >= b {
				t.Fatalf("auto-tau result %d outside [%d, %d)", r.ID, a, b)
			}
		}
	}
}

func TestTuneTauValidation(t *testing.T) {
	ix, err := New(testOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.TuneTau(TunerConfig{}); err == nil {
		t.Error("tuning an empty index should fail")
	}
	fill(t, ix, 61, 20)
	if _, err := ix.TuneTau(TunerConfig{Taus: []float64{0, 0.5}}); err == nil {
		t.Error("tau 0 accepted")
	}
	if _, err := ix.TuneTau(TunerConfig{Fractions: []float64{0.5, 0.1}}); err == nil {
		t.Error("descending fractions accepted")
	}
	if _, err := ix.TuneTau(TunerConfig{QueriesPerBucket: -1}); err == nil {
		t.Error("negative QueriesPerBucket accepted")
	}
	if _, err := ix.TuneTau(TunerConfig{K: -1}); err == nil {
		t.Error("negative K accepted")
	}
	// Defaults work.
	table, err := ix.TuneTau(TunerConfig{QueriesPerBucket: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Taus) != len(table.Fractions) {
		t.Errorf("table shape %d/%d", len(table.Taus), len(table.Fractions))
	}
}
