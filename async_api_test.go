package tknn_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	tknn "repro"
)

func TestMBIAsyncMergePublicAPI(t *testing.T) {
	ix, err := tknn.NewMBI(tknn.MBIOptions{
		Dim: 8, LeafSize: 32, GraphDegree: 8, AsyncMerge: true, Epsilon: 1.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	vs := randClustered(31, 200, 8)
	for i, v := range vs {
		if err := ix.Add(v, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Queries answer correctly even before the builder catches up.
	res, err := ix.Search(tknn.Query{Vector: vs[150], K: 1, Start: 0, End: 200})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != 150 {
		t.Errorf("mid-build search = %v", res)
	}
	ix.Flush()
	if ix.PendingBuilds() != 0 {
		t.Errorf("pending after flush: %d", ix.PendingBuilds())
	}
	if ix.BlockCount() == 0 {
		t.Error("no blocks after flush")
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add(vs[0], 1000); err == nil {
		t.Error("add after close succeeded")
	}
}

func TestMBIExplainPublicAPI(t *testing.T) {
	ix, err := tknn.NewMBI(tknn.MBIOptions{Dim: 8, LeafSize: 16, GraphDegree: 6})
	if err != nil {
		t.Fatal(err)
	}
	vs := randClustered(33, 100, 8)
	for i, v := range vs {
		if err := ix.Add(v, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	plan := ix.Explain(10, 90)
	if len(plan.Blocks) == 0 {
		t.Fatal("empty plan")
	}
	if plan.TotalInWindow != 80 {
		t.Errorf("TotalInWindow = %d, want 80", plan.TotalInWindow)
	}
	if !strings.Contains(plan.String(), "block [") {
		t.Errorf("plan string: %s", plan.String())
	}
}

// TestSearchExplainMatchesSearch: SearchExplain explains exactly the query
// Search runs, planned with Options.Tau.
func TestSearchExplainMatchesSearch(t *testing.T) {
	ix, err := tknn.NewMBI(tknn.MBIOptions{Dim: 8, LeafSize: 32, GraphDegree: 8, Epsilon: 1.4, Tau: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	vs := randClustered(35, 300, 8)
	for i, v := range vs {
		if err := ix.Add(v, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	q := tknn.Query{Vector: vs[140], K: 5, Start: 100, End: 160}
	want, err := ix.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	got, plan, err := ix.SearchExplain(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SearchExplain results %v differ from Search's %v", got, want)
	}
	if !plan.Executed || plan.Tau != 0.4 {
		t.Errorf("executed=%v plan.Tau = %g, want Options.Tau 0.4", plan.Executed, plan.Tau)
	}
}

func TestSearchBatch(t *testing.T) {
	ix, err := tknn.NewMBI(tknn.MBIOptions{Dim: 8, LeafSize: 32, GraphDegree: 8, Epsilon: 1.4})
	if err != nil {
		t.Fatal(err)
	}
	vs := randClustered(51, 300, 8)
	for i, v := range vs {
		if err := ix.Add(v, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	queries := make([]tknn.Query, 40)
	for i := range queries {
		queries[i] = tknn.Query{Vector: vs[i*7], K: 1, Start: 0, End: 300}
	}
	for _, workers := range []int{0, 1, 4, 100} {
		out, err := ix.SearchBatch(queries, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != len(queries) {
			t.Fatalf("workers=%d: %d results", workers, len(out))
		}
		for i, res := range out {
			if len(res) != 1 || res[0].ID != i*7 {
				t.Fatalf("workers=%d query %d: %v", workers, i, res)
			}
		}
	}
	// An invalid query aborts the batch with its index in the error.
	queries[13].K = 0
	if _, err := ix.SearchBatch(queries, 4); err == nil {
		t.Error("bad query in batch did not error")
	}
	if _, err := ix.SearchBatch(queries, 1); err == nil {
		t.Error("bad query in sequential batch did not error")
	}
	// Empty batch is fine.
	if out, err := ix.SearchBatch(nil, 8); err != nil || len(out) != 0 {
		t.Errorf("empty batch: %v, %v", out, err)
	}
}
