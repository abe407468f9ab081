//go:build !race

package bsbf

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/exec"
	"repro/internal/invariant"
	"repro/internal/sq"
	"repro/internal/theap"
	"repro/internal/vec"
)

// TestQueryZeroAllocs is the allocation gate on the baseline query path:
// after warmup, an inline Query — window binary search, chunked brute
// scan, and merge — must not touch the heap. The plan, per-chunk heaps,
// merge storage, and the results all live in the caller-owned
// exec.Scratch.
//
// testing.AllocsPerRun measures at GOMAXPROCS 1, which keeps execution on
// the caller's goroutine; the claim workers allocate goroutine bookkeeping
// that the gate deliberately excludes.
// Race builds skip via the build tag — the race runtime allocates.
func TestQueryZeroAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant assertions allocate inside guarded blocks")
	}
	const dim, n = 16, 1024
	ix := New(dim, vec.Euclidean)
	rng := rand.New(rand.NewSource(11))
	q := make([]float32, dim)
	for i := 0; i < n; i++ {
		v := make([]float32, dim)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		if err := ix.Append(v, int64(i)); err != nil {
			t.Fatal(err)
		}
		if i == 17 {
			copy(q, v)
		}
	}

	ctx := context.Background()
	scr := exec.NewScratch()
	var res []theap.Neighbor
	const k, ts, te = 10, 100, 900

	for i := 0; i < 8; i++ {
		res, _ = ix.Query(ctx, scr, q, k, ts, te)
	}
	if len(res) != k {
		t.Fatalf("warmup query returned %d results, want %d", len(res), k)
	}

	allocs := testing.AllocsPerRun(100, func() {
		res, _ = ix.Query(ctx, scr, q, k, ts, te)
	})
	if allocs != 0 {
		t.Errorf("Query allocates %.1f times per query, want 0", allocs)
	}
}

// TestQueryCompressedZeroAllocs extends the gate to the SQ8 path:
// with chunked compression on, the same window scans sealed chunks
// through the asymmetric LUT kernel and re-ranks survivors exactly, all
// from the caller-owned exec.Scratch — still zero heap traffic.
func TestQueryCompressedZeroAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant assertions allocate inside guarded blocks")
	}
	const dim, n = 16, 1024
	ix, err := NewWithConfig(dim, vec.Euclidean, Config{
		Compression: sq.SQ8, RerankFactor: 4, ChunkSize: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	q := make([]float32, dim)
	for i := 0; i < n; i++ {
		v := make([]float32, dim)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		if err := ix.Append(v, int64(i)); err != nil {
			t.Fatal(err)
		}
		if i == 17 {
			copy(q, v)
		}
	}

	ctx := context.Background()
	scr := exec.NewScratch()
	var res []theap.Neighbor
	const k, ts, te = 10, 100, 900 // spans several sealed chunks mid-chunk

	for i := 0; i < 8; i++ {
		res, _ = ix.Query(ctx, scr, q, k, ts, te)
	}
	if len(res) != k {
		t.Fatalf("warmup query returned %d results, want %d", len(res), k)
	}

	allocs := testing.AllocsPerRun(100, func() {
		res, _ = ix.Query(ctx, scr, q, k, ts, te)
	})
	if allocs != 0 {
		t.Errorf("compressed Query allocates %.1f times per query, want 0", allocs)
	}
}
