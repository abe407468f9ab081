package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// tinyConfig keeps smoke tests fast: one small profile, few queries.
func tinyConfig() Config {
	c := DefaultConfig()
	c.Scale = 0.05
	c.Fractions = []float64{0.05, 0.5}
	c.Ks = []int{10}
	c.QueriesPerPoint = 15
	c.EpsStep = 0.1 // coarse sweep for speed
	return c
}

func tinyProfiles(t *testing.T) []dataset.Profile {
	t.Helper()
	p, err := dataset.ProfileByName("MovieLens")
	if err != nil {
		t.Fatal(err)
	}
	return []dataset.Profile{p}
}

func TestFig5Smoke(t *testing.T) {
	var buf bytes.Buffer
	rows := Fig5(tinyConfig(), tinyProfiles(t), &buf)
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.BSBF.QPS <= 0 || r.SF.QPS <= 0 || r.MBI.QPS <= 0 {
			t.Errorf("non-positive QPS in %+v", r)
		}
		if !r.BSBF.Reached {
			t.Errorf("exact BSBF missed the recall target: %+v", r.BSBF)
		}
	}
	if !strings.Contains(buf.String(), "Figure 5") {
		t.Error("missing banner")
	}
}

func TestFig5ShapeShortVsLongWindows(t *testing.T) {
	// The paper's central claim in miniature: BSBF's cost grows with the
	// window. It is asserted on distance evaluations per query, not QPS:
	// at this scale per-query overhead dominates both windows, so their
	// wall-clock rates cross under load.
	c := tinyConfig()
	c.Scale = 0.12
	c.Fractions = []float64{0.02, 0.9}
	c.QueriesPerPoint = 25
	var buf bytes.Buffer
	rows := Fig5(c, tinyProfiles(t), &buf)
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	short, long := rows[0], rows[1]
	if short.BSBF.DistEvals >= long.BSBF.DistEvals {
		t.Errorf("BSBF should compute fewer distances on short windows: short %.0f, long %.0f evals/query",
			short.BSBF.DistEvals, long.BSBF.DistEvals)
	}
}

func TestFig6Smoke(t *testing.T) {
	var buf bytes.Buffer
	series := Fig6(tinyConfig(), &buf)
	// 3 fractions x 3 methods.
	if len(series) != 9 {
		t.Fatalf("%d series, want 9", len(series))
	}
	for _, s := range series {
		if len(s.Points) == 0 {
			t.Errorf("empty frontier for %s at %.0f%%", s.Method, s.Fraction*100)
		}
		for _, p := range s.Points {
			if p.QPS <= 0 || p.Recall < 0 || p.Recall > 1 {
				t.Errorf("bad point %+v", p)
			}
		}
	}
}

func TestFig7Smoke(t *testing.T) {
	var buf bytes.Buffer
	res := Fig7(tinyConfig(), &buf)
	if len(res.Rows) != 4 {
		t.Fatalf("%d rows, want 4 (n/8..n)", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].N <= res.Rows[i-1].N {
			t.Error("sizes not increasing")
		}
		if res.Rows[i].MBIIndexSize <= res.Rows[i-1].MBIIndexSize {
			t.Error("MBI index size not increasing with data")
		}
	}
	// MBI stores more graph levels than SF: larger index at every size.
	for _, r := range res.Rows {
		if r.MBIIndexSize <= r.SFIndexSize {
			t.Errorf("n=%d: MBI size %d <= SF size %d", r.N, r.MBIIndexSize, r.SFIndexSize)
		}
		if r.MBIIndexSize <= r.InputSize {
			t.Errorf("n=%d: MBI index smaller than input", r.N)
		}
	}
	// Size slope should be around 1 plus a log factor: comfortably within
	// (0.8, 1.8) even at smoke scale.
	if res.MBISizeSlope < 0.8 || res.MBISizeSlope > 1.8 {
		t.Errorf("MBI size slope %.2f outside sanity band", res.MBISizeSlope)
	}
}

func TestFig8Smoke(t *testing.T) {
	c := tinyConfig()
	var buf bytes.Buffer
	pts := Fig8(c, &buf)
	if len(pts) == 0 {
		t.Fatal("no points")
	}
	byLeaf := map[int][]Fig8Point{}
	for _, p := range pts {
		byLeaf[p.LeafSize] = append(byLeaf[p.LeafSize], p)
	}
	if len(byLeaf) < 2 {
		t.Fatalf("leaf sweep produced %d sizes", len(byLeaf))
	}
	for sl, series := range byLeaf {
		for i := 1; i < len(series); i++ {
			if series[i].Cumulative < series[i-1].Cumulative {
				t.Errorf("S_L=%d: cumulative time decreased", sl)
			}
			if series[i].Inserted <= series[i-1].Inserted {
				t.Errorf("S_L=%d: inserted counts not increasing", sl)
			}
		}
	}
}

func TestFig9Smoke(t *testing.T) {
	var buf bytes.Buffer
	rows := Fig9(tinyConfig(), tinyProfiles(t), &buf)
	// 2 fractions x 5 taus.
	if len(rows) != 10 {
		t.Fatalf("%d rows, want 10", len(rows))
	}
	for _, r := range rows {
		if r.MBI.QPS <= 0 {
			t.Errorf("non-positive MBI QPS at tau %.1f", r.Tau)
		}
	}
}

func TestTablesSmoke(t *testing.T) {
	c := tinyConfig()
	ps := tinyProfiles(t)
	var buf bytes.Buffer
	Table2(c, ps, &buf)
	Table3(c, ps, &buf)
	rows := Table4(c, ps, &buf)
	if len(rows) != 1 {
		t.Fatalf("%d table-4 rows", len(rows))
	}
	r := rows[0]
	if r.MBISize <= r.SFSize || r.SFSize <= r.InputSize {
		t.Errorf("size ordering violated: input %d, SF %d, MBI %d", r.InputSize, r.SFSize, r.MBISize)
	}
	out := buf.String()
	for _, want := range []string{"Table 2", "Table 3", "Table 4", "MovieLens"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestQPSAtRecallExactShortCircuit(t *testing.T) {
	c := tinyConfig()
	p := tinyProfiles(t)[0]
	d := genData(c, p)
	bs := NewBSBF()
	bs.Build(d)
	qs, gt := queriesAndTruth(c, d, 10, 0.3)
	op := qpsAtRecall(c, bs, qs, gt)
	if !op.Reached || op.Recall < 0.999 {
		t.Errorf("exact method scored %+v", op)
	}
}

func TestIVFExperimentSmoke(t *testing.T) {
	c := tinyConfig()
	var buf bytes.Buffer
	rows := IVFExperiment(c, tinyProfiles(t), &buf)
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.IVF.QPS <= 0 || r.MBI.QPS <= 0 {
			t.Errorf("non-positive QPS in %+v", r)
		}
		if r.IVFBuild <= 0 {
			t.Error("zero IVF build time")
		}
	}
	if !strings.Contains(buf.String(), "IVF experiment") {
		t.Error("missing banner")
	}
}

func TestAsyncMergeExperimentSmoke(t *testing.T) {
	c := tinyConfig()
	var buf bytes.Buffer
	rows := AsyncMergeExperiment(c, &buf)
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	if rows[0].Mode != "sync" || rows[1].Mode != "async" {
		t.Errorf("modes %q, %q", rows[0].Mode, rows[1].Mode)
	}
	for _, r := range rows {
		if r.Total <= 0 || r.Max <= 0 || r.P50 > r.P99 || r.P99 > r.Max {
			t.Errorf("implausible latencies %+v", r)
		}
	}
	// The async path's worst insert should beat the sync path's worst
	// (which contains a full merge cascade).
	if rows[1].Max >= rows[0].Max {
		t.Errorf("async max insert %v not better than sync %v", rows[1].Max, rows[0].Max)
	}
	if !strings.Contains(buf.String(), "AsyncMerge experiment") {
		t.Error("missing banner")
	}
}
