package tknn_test

import (
	"context"
	"testing"

	tknn "repro"
	"repro/internal/leakcheck"
)

// TestCloseReleasesFDs: an MBI that spilled sealed blocks to segment files
// and paged them back through its block cache for cold queries holds no
// file descriptor once it is closed.
func TestCloseReleasesFDs(t *testing.T) {
	const dim, n = 8, 600
	dir := t.TempDir()
	before := leakcheck.OpenFDs(t)

	ix, err := tknn.NewMBI(tknn.MBIOptions{
		Dim: dim, LeafSize: 32, GraphDegree: 8,
		SpillDir: dir, CacheBytes: 1 << 14, SpillMaxHeight: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	vs := randClustered(41, n, dim)
	for i, v := range vs {
		if err := ix.Add(v, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if blocks, _, err := ix.SpillCold(); err != nil || blocks == 0 {
		t.Fatalf("SpillCold = %d blocks, %v", blocks, err)
	}
	for i := 0; i < 20; i++ {
		_, info, err := ix.SearchDetailed(context.Background(), tknn.Query{Vector: vs[(31*i)%n], K: 5, Start: int64(i), End: n})
		if err != nil || info.Partial {
			t.Fatalf("cold query %d: partial %v, err %v", i, info.Partial, err)
		}
	}
	if st, ok := ix.CacheStats(); !ok || st.Misses == 0 {
		t.Fatalf("cache stats %+v (ok %v): no query paged a segment in", st, ok)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if after := leakcheck.OpenFDs(t); after != before {
		t.Fatalf("%d file descriptors open after Close, %d before NewMBI", after, before)
	}
}
