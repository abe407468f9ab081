package exec

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/blockcache"
	"repro/internal/graph"
	"repro/internal/sq"
	"repro/internal/theap"
	"repro/internal/vec"
)

// coldFixture is a four-block store whose even blocks are spilled (one of
// them with SQ8 codes) behind a cache with a counting, gate-able loader,
// and whose odd blocks — a graph and a brute scan — are resident.
type coldFixture struct {
	store    *vec.Store
	times    []int64
	payloads [4]blockcache.Value
	cache    *blockcache.Cache
	loads    atomic.Int32
	// loading, when non-nil, gates the loader: it receives each key as its
	// load starts, and the load then hangs until its context ends.
	loading chan uint64
	failKey int // the key whose load errors; -1 for none
}

const coldBlock = 64

func newColdFixture(t *testing.T) *coldFixture {
	t.Helper()
	f := &coldFixture{store: vec.NewStore(4), failKey: -1}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 4*coldBlock; i++ {
		v := []float32{float32(rng.NormFloat64()), float32(rng.NormFloat64()), float32(rng.NormFloat64()), float32(rng.NormFloat64())}
		if _, err := f.store.Append(v); err != nil {
			t.Fatal(err)
		}
		f.times = append(f.times, int64(i))
	}
	// A circulant graph is connected and the same for every block.
	lists := make([][]int32, coldBlock)
	for i := range lists {
		for _, d := range []int{1, 2, 7, coldBlock - 1, coldBlock - 2, coldBlock - 7} {
			lists[i] = append(lists[i], int32((i+d)%coldBlock))
		}
	}
	for b := range f.payloads {
		f.payloads[b].Graph = graph.FromLists(lists)
	}
	f.payloads[2].Codes = sq.Train(f.store, 2*coldBlock, 3*coldBlock, sq.TrainConfig{})
	f.cache = blockcache.New(0, func(ctx context.Context, key uint64) (blockcache.Value, error) {
		f.loads.Add(1)
		if f.loading != nil {
			f.loading <- key
			<-ctx.Done()
			return blockcache.Value{}, ctx.Err()
		}
		if int(key) == f.failKey {
			return blockcache.Value{}, errors.New("segment unreadable")
		}
		return f.payloads[key], nil
	})
	return f
}

// plan is a hot + cold plan over the whole store: blocks 0 and 2 are graph
// searches (cold unless resident), block 1 a resident graph search, block 3
// a brute scan.
func (f *coldFixture) plan(q []float32, resident bool) Plan {
	const k = 5
	p := Plan{K: k, Query: q}
	for b := 0; b < 4; b++ {
		lo, hi := b*coldBlock, (b+1)*coldBlock
		st := Subtask{
			Lo: lo, Hi: hi, WindowStart: int64(lo), WindowEnd: int64(hi),
			Store: f.store, Metric: vec.Euclidean,
		}
		if b == 3 {
			st.Kind, st.ScanLo, st.ScanHi = BruteScan, lo, hi
			p.Subtasks = append(p.Subtasks, st)
			continue
		}
		st.Kind = GraphSearch
		st.Params = graph.SearchParams{MC: 16, Eps: 1.5}
		st.Entries = []int32{int32(b), int32(b + 30)}
		st.Times, st.Ts, st.Te = f.times[lo:hi], 0, int64(4*coldBlock)
		st.RerankK = RerankK(k, 0, coldBlock)
		switch {
		case b == 1:
			st.Graph = f.payloads[b].Graph
		case resident:
			st.Graph, st.Codes = f.payloads[b].Graph, f.payloads[b].Codes
			if st.Codes != nil {
				st.Kind = CompressedGraph
			}
		default:
			st.Cold, st.Cache, st.CacheKey = true, f.cache, uint64(b)
		}
		p.Subtasks = append(p.Subtasks, st)
	}
	return p
}

// requireNoPins fails unless every pin a query took has been released:
// Purge evicts exactly the unpinned entries.
func (f *coldFixture) requireNoPins(t *testing.T) {
	t.Helper()
	f.cache.Purge()
	if st := f.cache.Stats(); st.Entries != 0 {
		t.Fatalf("%d cache entries survive Purge: a fetched payload is still pinned", st.Entries)
	}
}

// TestColdPlanSchedules runs one mixed hot + cold plan on the schedule
// GOMAXPROCS 1 selects (runSeqCold) and on the claim workers: both merge to
// the bits of the same plan with resident payloads, and neither leaves a
// payload pinned.
func TestColdPlanSchedules(t *testing.T) {
	f := newColdFixture(t)
	q := []float32{0.3, -0.2, 0.9, 0.1}
	setProcs(t, 1)
	want, out := run(context.Background(), f.plan(q, true))
	if out.Partial || len(want) != 5 || out.Fetch != 0 {
		t.Fatalf("resident plan: partial=%v fetch=%v results=%v", out.Partial, out.Fetch, want)
	}
	for _, procs := range []int{1, 4} {
		setProcs(t, procs)
		f.loads.Store(0)
		got, out := run(context.Background(), f.plan(q, false))
		if out.Partial || !reflect.DeepEqual(got, want) {
			t.Errorf("procs=%d: partial=%v\n got %v\nwant %v", procs, out.Partial, got, want)
		}
		if f.loads.Load() != 2 {
			t.Errorf("procs=%d: %d loads, want one per cold block", procs, f.loads.Load())
		}
		if !out.Subtasks[0].Cold || !out.Subtasks[2].Cold || out.Subtasks[1].Cold || out.Subtasks[2].Kind != CompressedGraph {
			t.Errorf("procs=%d: subtask results %+v", procs, out.Subtasks)
		}
		f.requireNoPins(t)
	}
}

// TestColdPlanDegradesToPartial: a load error and a context cancelled
// mid-fetch both skip the subtask and tag the outcome Partial — on either
// schedule, with the blocks that could run still answered and nothing left
// pinned.
func TestColdPlanDegradesToPartial(t *testing.T) {
	q := []float32{0.3, -0.2, 0.9, 0.1}
	for _, procs := range []int{1, 4} {
		setProcs(t, procs)

		f := newColdFixture(t)
		f.failKey = 2
		got, out := run(context.Background(), f.plan(q, false))
		if !out.Partial || !out.Subtasks[2].Skipped || out.Subtasks[0].Skipped || len(got) != 5 {
			t.Errorf("procs=%d load error: partial=%v subtasks=%+v results=%v", procs, out.Partial, out.Subtasks, got)
		}
		for _, nb := range got {
			if nb.ID >= 2*coldBlock && nb.ID < 3*coldBlock {
				t.Errorf("procs=%d load error: result %v from the block whose fetch failed", procs, nb)
			}
		}
		f.requireNoPins(t)

		f = newColdFixture(t)
		f.loading = make(chan uint64)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		var res []theap.Neighbor
		go func() {
			defer close(done)
			res, out = run(ctx, f.plan(q, false))
		}()
		<-f.loading // a fetch is in flight
		cancel()
		go func() { // later loads, if a worker still starts one, see the dead context
			for range f.loading {
			}
		}()
		<-done
		close(f.loading)
		if !out.Partial {
			t.Errorf("procs=%d cancel mid-fetch: outcome not partial (results %v)", procs, res)
		}
		for i, sr := range out.Subtasks {
			if sr.Cold && !sr.Skipped {
				t.Errorf("procs=%d cancel mid-fetch: cold subtask %d ran: %+v", procs, i, sr)
			}
		}
		f.requireNoPins(t)
	}
}
