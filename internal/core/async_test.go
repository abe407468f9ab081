package core

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/theap"
	"repro/internal/vec"
)

func asyncOptions(leafSize int) Options {
	o := testOptions(leafSize)
	o.AsyncMerge = true
	return o
}

// TestAsyncMatchesSyncExactly: after Flush, the async index must be
// block-for-block identical to the synchronous one (same cascade
// decisions, same seeds).
func TestAsyncMatchesSyncExactly(t *testing.T) {
	syncIx, err := New(testOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	asyncIx, err := New(asyncOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	defer asyncIx.Close()
	vs := fill(t, syncIx, 71, 77)
	for i, v := range vs {
		if err := asyncIx.Append(v, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	asyncIx.Flush()

	a, b := syncIx.Blocks(), asyncIx.Blocks()
	if len(a) != len(b) {
		t.Fatalf("block counts differ: sync %d, async %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Lo != b[i].Lo || a[i].Hi != b[i].Hi || a[i].Height != b[i].Height {
			t.Fatalf("block %d metadata differs", i)
		}
		if len(a[i].Graph.Adj) != len(b[i].Graph.Adj) {
			t.Fatalf("block %d graphs differ in size", i)
		}
		for j := range a[i].Graph.Adj {
			if a[i].Graph.Adj[j] != b[i].Graph.Adj[j] {
				t.Fatalf("block %d adjacency differs at %d", i, j)
			}
		}
	}
	if err := asyncIx.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if asyncIx.PendingBuilds() != 0 {
		t.Errorf("pending builds after flush: %d", asyncIx.PendingBuilds())
	}
}

// TestAsyncSearchDuringBacklog: queries issued while builds are in flight
// must still return complete, in-window answers (the pending region is
// brute-forced).
func TestAsyncSearchDuringBacklog(t *testing.T) {
	ix, err := New(asyncOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	vs := fill(t, ix, 73, 200) // fill may race builds; that's the point
	rng := rand.New(rand.NewSource(74))
	p := graphParamsExhaustive()
	for trial := 0; trial < 40; trial++ {
		a := rng.Intn(200)
		b := a + 1 + rng.Intn(200-a)
		q := vs[rng.Intn(len(vs))]
		got := queryWith(ix, q, 5, int64(a), int64(b), p, rng)
		exact := bruteForce(ix, q, 5, int64(a), int64(b))
		if len(got) != len(exact) {
			t.Fatalf("[%d,%d): %d results, want %d", a, b, len(got), len(exact))
		}
		for i := range got {
			if got[i] != exact[i] {
				t.Fatalf("[%d,%d): result %d = %v, want %v", a, b, i, got[i], exact[i])
			}
		}
	}
	ix.Flush()
	if err := ix.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// gatedBuilder is a graph.Builder that, while armed, parks inside Build
// until release closes — a seal frozen mid-build for as long as a test
// needs to look at the index.
type gatedBuilder struct {
	graph.Builder
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (b *gatedBuilder) Build(view vec.View, seed int64) *graph.CSR {
	if b.armed.Load() {
		b.entered <- struct{}{}
		<-b.release
	}
	return b.Builder.Build(view, seed)
}

// TestSearchDuringInlineSeal: without AsyncMerge the appender builds the
// sealed leaf's blocks itself, but not under the lock — a search issued
// while that build is stuck must return promptly, with the sealing leaf
// answered exactly by brute force, and the finished index must equal an
// async twin's bit for bit.
func TestSearchDuringInlineSeal(t *testing.T) {
	const (
		leaf  = 8
		n     = 4 * leaf // the last append seals leaf 4 and cascades h0, h1, h2
		bound = 5 * time.Second
	)
	opts := testOptions(leaf)
	gate := &gatedBuilder{Builder: opts.Builder, entered: make(chan struct{}), release: make(chan struct{})}
	opts.Builder = gate
	ix, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := New(asyncOptions(leaf))
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	vs := fill(t, twin, 81, n)
	for i, v := range vs[:n-1] {
		if err := ix.Append(v, int64(i)); err != nil {
			t.Fatal(err)
		}
	}

	gate.armed.Store(true)
	release := sync.OnceFunc(func() {
		gate.armed.Store(false)
		close(gate.release)
	})
	defer release() // a failed wait below must not leave the appender parked
	appended := make(chan error, 1)
	go func() { appended <- ix.Append(vs[n-1], int64(n-1)) }()
	select {
	case <-gate.entered:
	case <-time.After(bound):
		t.Fatal("filling the leaf never reached the builder")
	}
	// The appender is parked inside Build now, and must hold no lock.
	type answer struct {
		got     []theap.Neighbor
		pending int
	}
	q, lo, hi := vs[n-3], int64(n-leaf), int64(n)
	done := make(chan answer, 1)
	go func() {
		got := queryWith(ix, q, 5, lo, hi, graphParamsExhaustive(), rand.New(rand.NewSource(82)))
		done <- answer{got, ix.PendingBuilds()}
	}()
	var ans answer
	select {
	case ans = <-done:
	case <-time.After(bound):
		t.Fatal("search waited for the in-flight build")
	}
	if ans.pending != leaf {
		t.Errorf("PendingBuilds during the seal = %d, want %d", ans.pending, leaf)
	}
	if exact := bruteForce(ix, q, 5, lo, hi); !reflect.DeepEqual(ans.got, exact) {
		t.Errorf("over the sealing leaf got %v, want %v", ans.got, exact)
	}

	release()
	if err := <-appended; err != nil {
		t.Fatal(err)
	}
	ix.Flush()
	twin.Flush()
	if err := ix.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if got := ix.PendingBuilds(); got != 0 {
		t.Errorf("pending builds after the append returned: %d", got)
	}
	requireSameBlocks(t, ix, twin)
}

// TestAsyncConcurrentAppendAndSearch hammers an async index from an
// appender plus searchers. stress_race_test.go extends this workload and
// is gated on the race build tag, so `go test -race` runs both.
func TestAsyncConcurrentAppendAndSearch(t *testing.T) {
	ix, err := New(asyncOptions(16))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	stop := make(chan struct{})
	errs := make(chan error, 4)
	for g := 0; g < 3; g++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			q := make([]float32, 8)
			for {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				n := int64(ix.Len())
				if n < 2 {
					continue
				}
				a := rng.Int63n(n - 1)
				b := a + 1 + rng.Int63n(n-a)
				res := queryWith(ix, q, 3, a, b, graph.SearchParams{MC: 16, Eps: 1.2}, rng)
				for _, r := range res {
					if int64(r.ID) < a || int64(r.ID) >= b {
						errs <- errOutOfWindow
						return
					}
				}
			}
		}(int64(g))
	}
	rng := rand.New(rand.NewSource(75))
	v := make([]float32, 8)
	for i := 0; i < 600; i++ {
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		if err := ix.Append(v, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	for g := 0; g < 3; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	ix.Flush()
	if err := ix.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if got := ix.Len(); got != 600 {
		t.Errorf("len %d", got)
	}
}

func TestAsyncCloseSemantics(t *testing.T) {
	ix, err := New(asyncOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	fill(t, ix, 77, 20)
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	v := make([]float32, 8)
	if err := ix.Append(v, 1000); err == nil {
		t.Error("append after close succeeded")
	}
	if err := ix.AppendBatch([][]float32{v}, []int64{1000}); err == nil {
		t.Error("batch append after close succeeded")
	}
	// Searches still work after close.
	rng := rand.New(rand.NewSource(78))
	if res := queryWith(ix, v, 3, 0, 100, graphParamsExhaustive(), rng); len(res) != 3 {
		t.Errorf("post-close search returned %d results", len(res))
	}
	// Flush after close is a no-op.
	ix.Flush()
}

func TestSyncCloseIsNoop(t *testing.T) {
	ix, err := New(testOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	fill(t, ix, 79, 10)
	if err := ix.Close(); err != nil {
		t.Errorf("sync close: %v", err)
	}
	ix.Flush()
	if ix.PendingBuilds() != 0 {
		t.Error("sync index has pending builds")
	}
	// Sync indexes remain appendable after the no-op Close.
	if err := ix.Append(make([]float32, 8), 1000); err != nil {
		t.Errorf("append after no-op close: %v", err)
	}
}
