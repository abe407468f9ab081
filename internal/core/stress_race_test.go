//go:build race

// Race-detector stress tests. The `race` build tag is set automatically by
// `go test -race` (the `make race` target and the CI race step), so these
// run exactly when the detector is watching and stay out of plain
// `go test ./...`. They subsume the "run with -race" guidance that used to
// live only in comments on the lighter concurrency tests in this package.

package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// stressSearchers starts n goroutines that hammer Query, Stats, Len,
// and the selection planner over random windows until stop closes, checking
// window containment and completeness on every result: timestamps are
// insertion indices and block graphs are connected, so an exhaustive walk
// must return min(k, window length) neighbors whether the window's vectors
// sit in installed blocks, in leaves whose seal is in flight, or in the
// open leaf. Returns a channel carrying one error (or nil) per goroutine.
func stressSearchers(ix *Index, n int, stop <-chan struct{}) chan error {
	errs := make(chan error, n)
	dim := ix.Options().Dim
	for g := 0; g < n; g++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			q := make([]float32, dim)
			for {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				hi := int64(ix.Len())
				if hi < 2 {
					continue
				}
				for j := range q {
					q[j] = float32(rng.NormFloat64())
				}
				a := rng.Int63n(hi - 1)
				b := a + 1 + rng.Int63n(hi-a)
				res := queryWith(ix, q, 5, a, b, graphParamsExhaustive(), rng)
				for _, r := range res {
					if int64(r.ID) < a || int64(r.ID) >= b {
						errs <- errOutOfWindow
						return
					}
				}
				if want := min(5, int(b-a)); len(res) != want {
					errs <- fmt.Errorf("window [%d,%d): %d results, want %d", a, b, len(res), want)
					return
				}
				// Exercise the read-side planners and stats under the same
				// contention; their results are checked by other tests.
				ix.SelectedBlockCount(a, b, 0.5)
				ix.Stats()
			}
		}(int64(g))
	}
	return errs
}

// stressAppend drives total appends through ix from a single writer (the
// timestamp contract demands one), sealing a leaf every leafSize inserts so
// the merge cascade runs constantly under searcher fire.
func stressAppend(t *testing.T, ix *Index, seed int64, total int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dim := ix.Options().Dim
	v := make([]float32, dim)
	for i := 0; i < total; i++ {
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		if err := ix.Append(v, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStressSyncAppendSearchSeal hammers a default-mode index: one appender
// sealing and merging inline (leaf size 4 forces a cascade roughly every
// fourth insert) against a pack of searchers, which run while the
// appender's builds are in flight and must never come up short.
func TestStressSyncAppendSearchSeal(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	opts := testOptions(4)
	opts.Workers = 4 // parallel block builds race against searchers too
	ix, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	errs := stressSearchers(ix, 6, stop)
	stressAppend(t, ix, 101, 1200)
	close(stop)
	for g := 0; g < 6; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if got := ix.Len(); got != 1200 {
		t.Errorf("len %d, want 1200", got)
	}
}

// TestStressAsyncAppendSearchSeal runs the same workload against an async
// index, where seals are installed by the background merge worker while
// searchers brute-force the pending gap. Flush happens only after the
// appender stops: Flush waits on the pending WaitGroup and must not run
// concurrently with Appends that Add to it.
func TestStressAsyncAppendSearchSeal(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	opts := asyncOptions(4)
	opts.Workers = 4
	ix, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	stop := make(chan struct{})
	errs := stressSearchers(ix, 6, stop)
	stressAppend(t, ix, 103, 1200)
	ix.Flush()
	close(stop)
	for g := 0; g < 6; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if ix.PendingBuilds() != 0 {
		t.Errorf("pending builds after flush: %d", ix.PendingBuilds())
	}
}

// TestStressAsyncCloseUnderSearch closes an async index while searchers are
// mid-flight from several goroutines at once: Close must be idempotent and
// post-close searches must keep working.
func TestStressAsyncCloseUnderSearch(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	ix, err := New(asyncOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	stressAppend(t, ix, 107, 300)
	stop := make(chan struct{})
	errs := stressSearchers(ix, 4, stop)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := ix.Close(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	close(stop)
	for g := 0; g < 4; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// stressAppendBatch is stressAppend through AppendBatch, batch vectors per
// call, returning everything it inserted.
func stressAppendBatch(t *testing.T, ix *Index, seed int64, total, batch int) [][]float32 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	all := make([][]float32, 0, total)
	for lo := 0; lo < total; lo += batch {
		vs := make([][]float32, batch)
		ts := make([]int64, batch)
		for i := range vs {
			v := make([]float32, ix.Options().Dim)
			for j := range v {
				v[j] = float32(rng.NormFloat64())
			}
			vs[i] = v
			ts[i] = int64(lo + i)
		}
		if err := ix.AppendBatch(vs, ts); err != nil {
			t.Fatal(err)
		}
		all = append(all, vs...)
	}
	return all
}

// TestStressBatchIngest drives AppendBatch (the server's ingestion path)
// under the detector: batched appends racing searchers.
func TestStressBatchIngest(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	ix, err := New(asyncOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	stop := make(chan struct{})
	errs := stressSearchers(ix, 4, stop)
	stressAppendBatch(t, ix, 109, 800, 16)
	ix.Flush()
	close(stop)
	for g := 0; g < 4; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := ix.Len(); got != 800 {
		t.Errorf("len %d, want 800", got)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestStressSyncBatchSpansLeaves: default-mode batches of 3¼ leaves each,
// so one AppendBatch closes several leaves under the lock and then seals
// them, in order, after releasing it — while searchers see the whole
// multi-leaf gap. The result must equal per-vector Append exactly.
func TestStressSyncBatchSpansLeaves(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	opts := testOptions(8)
	opts.Workers = 2
	ix, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	errs := stressSearchers(ix, 4, stop)
	vs := stressAppendBatch(t, ix, 113, 780, 26)
	close(stop)
	for g := 0; g < 4; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if got := ix.PendingBuilds(); got != 0 {
		t.Errorf("pending builds after the last batch returned: %d", got)
	}
	twin, err := New(testOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vs {
		if err := twin.Append(v, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	requireSameBlocks(t, ix, twin)
}
