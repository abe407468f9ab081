package exec

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/theap"
)

// listPlan builds a plan whose subtasks return fixed neighbor lists over
// disjoint id ranges, like real per-block subtasks do.
func listPlan(k int, lists ...[]theap.Neighbor) Plan {
	p := Plan{K: k}
	for i, l := range lists {
		l := l
		p.Subtasks = append(p.Subtasks, Subtask{
			Kind: GraphSearch,
			Lo:   i * 100, Hi: i*100 + 100,
			Run: func(context.Context) []theap.Neighbor { return l },
		})
	}
	return p
}

// setProcs pins GOMAXPROCS — all that Run's width depends on besides the
// plan — until the test ends. The setting is process-wide: never call it
// under t.Parallel.
func setProcs(t testing.TB, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// run executes p on a fresh scratch, so each call's results and
// Outcome.Subtasks stay valid for the rest of the test.
func run(ctx context.Context, p Plan) ([]theap.Neighbor, Outcome) {
	return Run(ctx, p, NewScratch())
}

func TestRunEquivalentAcrossWorkerCounts(t *testing.T) {
	// 8 subtasks over disjoint ranges; results must be identical for any
	// worker count because entries are fixed at plan time and the merge
	// orders by (Dist, ID).
	lists := make([][]theap.Neighbor, 8)
	for i := range lists {
		base := int32(i * 100)
		lists[i] = []theap.Neighbor{
			{ID: base, Dist: float32(i%3) + float32(i)*0.01},
			{ID: base + 1, Dist: float32((i+1)%4) + float32(i)*0.02},
			{ID: base + 2, Dist: 5 + float32(i)},
		}
		theapSort(lists[i])
	}
	p := listPlan(5, lists...)
	var want []theap.Neighbor
	for _, workers := range []int{1, 2, 3, 8, 16} {
		setProcs(t, workers)
		got, out := run(context.Background(), p)
		if out.Partial {
			t.Fatalf("workers=%d: unexpected partial", workers)
		}
		if len(out.Subtasks) != len(lists) {
			t.Fatalf("workers=%d: %d subtask results", workers, len(out.Subtasks))
		}
		for i, sr := range out.Subtasks {
			if sr.Skipped || sr.Found != len(lists[i]) {
				t.Fatalf("workers=%d subtask %d: skipped=%v found=%d", workers, i, sr.Skipped, sr.Found)
			}
		}
		if want == nil {
			want = got
			if len(want) != 5 {
				t.Fatalf("got %d results, want 5", len(want))
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: results diverge:\n got %v\nwant %v", workers, got, want)
		}
	}
}

// theapSort orders a list ascending by (Dist, ID) as subtasks promise.
func theapSort(l []theap.Neighbor) {
	for i := 1; i < len(l); i++ {
		for j := i; j > 0 && theap.Less(l[j], l[j-1]); j-- {
			l[j], l[j-1] = l[j-1], l[j]
		}
	}
}

func TestRunCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	started := atomic.Int32{}
	p := Plan{K: 1, Subtasks: []Subtask{{
		Run: func(context.Context) []theap.Neighbor { started.Add(1); return nil },
	}, {
		Run: func(context.Context) []theap.Neighbor { started.Add(1); return nil },
	}}}
	for _, workers := range []int{1, 4} {
		started.Store(0)
		setProcs(t, workers)
		res, out := run(ctx, p)
		if res != nil {
			t.Fatalf("workers=%d: results from a dead context: %v", workers, res)
		}
		if !out.Partial {
			t.Fatalf("workers=%d: outcome not partial", workers)
		}
		for i, sr := range out.Subtasks {
			if !sr.Skipped {
				t.Fatalf("workers=%d subtask %d not marked skipped", workers, i)
			}
		}
		if started.Load() != 0 {
			t.Fatalf("workers=%d: %d subtasks started after cancel", workers, started.Load())
		}
	}
}

func TestRunDeadlinePartial(t *testing.T) {
	// The first subtask burns past the deadline, so later ones are
	// skipped; the executor must return the completed work tagged partial
	// and still join every worker.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n1 := []theap.Neighbor{{ID: 1, Dist: 0.5}}
	p := Plan{K: 2, Subtasks: []Subtask{{
		Lo: 0, Hi: 100,
		Run: func(ctx context.Context) []theap.Neighbor {
			cancel() // "deadline" fires while this subtask runs
			return n1
		},
	}, {
		Lo: 100, Hi: 200,
		Run: func(context.Context) []theap.Neighbor {
			t.Error("second subtask ran after the context was done")
			return nil
		},
	}}}
	setProcs(t, 1)
	res, out := run(ctx, p)
	if !out.Partial {
		t.Fatal("outcome not partial after mid-plan expiry")
	}
	if !reflect.DeepEqual(res, n1) {
		t.Fatalf("partial results = %v, want %v", res, n1)
	}
	if out.Subtasks[0].Skipped || out.Subtasks[0].Found != 1 {
		t.Fatalf("first subtask: %+v", out.Subtasks[0])
	}
	if !out.Subtasks[1].Skipped {
		t.Fatal("second subtask not marked skipped")
	}
}

func TestRunEmptyPlan(t *testing.T) {
	res, out := run(context.Background(), Plan{K: 3})
	if res != nil || out.Partial {
		t.Fatalf("empty plan: res=%v partial=%v", res, out.Partial)
	}
}

// TestForEachFirstErrorAborts asserts what ForEach promises and nothing
// that depends on scheduling: the error is returned, every fn call has
// returned before ForEach does, and the sequential path stops at the
// failing item. How many items other workers finish before the failure
// is recorded is up to the scheduler.
func TestForEachFirstErrorAborts(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var ran, inFlight atomic.Int32
		err := ForEach(context.Background(), workers, 100, func(i int) error {
			inFlight.Add(1)
			defer inFlight.Add(-1)
			ran.Add(1)
			if i == 3 {
				return fmt.Errorf("item 3: %w", boom)
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if n := inFlight.Load(); n != 0 {
			t.Fatalf("workers=%d: %d fn calls still running after ForEach returned", workers, n)
		}
		if workers == 1 && ran.Load() != 4 {
			t.Fatalf("sequential: ran %d items, want 4", ran.Load())
		}
	}
}

func TestForEachContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := ForEach(ctx, 2, 1000, func(i int) error {
		if ran.Add(1) == 10 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() == 1000 {
		t.Fatal("cancel did not stop the batch")
	}
}

func TestForEachLateCancelAfterCompletion(t *testing.T) {
	// The context firing after every item completed must not turn a fully
	// successful batch into an error.
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := ForEach(ctx, 4, 8, func(i int) error {
		if ran.Add(1) == 8 {
			cancel()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("err = %v after all items completed", err)
	}
}

func TestEntropySerialDeterminism(t *testing.T) {
	a, b := NewEntropy(42), NewEntropy(42)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("sequences diverge at %d", i)
		}
	}
	if NewEntropy(1).Next() == NewEntropy(2).Next() {
		t.Fatal("different seeds produced the same first value")
	}
}

func TestEntropyIntnRange(t *testing.T) {
	e := NewEntropy(7)
	for i := 0; i < 1000; i++ {
		if v := e.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
	}
}

func TestQueryHashDeterministicAndDiscriminating(t *testing.T) {
	q1 := []float32{1, 2, 3}
	q2 := []float32{1, 2, 3.0001}
	if QueryHash(5, q1) != QueryHash(5, q1) {
		t.Fatal("same (salt, q) hashed differently")
	}
	if QueryHash(5, q1) == QueryHash(5, q2) {
		t.Fatal("distinct vectors collided (astronomically unlikely)")
	}
	if QueryHash(5, q1) == QueryHash(6, q1) {
		t.Fatal("distinct salts collided (astronomically unlikely)")
	}
}

func TestRunStageTimings(t *testing.T) {
	p := listPlan(1, []theap.Neighbor{{ID: 0, Dist: 1}})
	p.Subtasks[0].Run = func(context.Context) []theap.Neighbor {
		time.Sleep(2 * time.Millisecond)
		return []theap.Neighbor{{ID: 0, Dist: 1}}
	}
	_, out := run(context.Background(), p)
	if out.Search < 2*time.Millisecond {
		t.Fatalf("Search stage %v, want >= 2ms", out.Search)
	}
	if out.Subtasks[0].Duration < 2*time.Millisecond {
		t.Fatalf("subtask duration %v, want >= 2ms", out.Subtasks[0].Duration)
	}
}
