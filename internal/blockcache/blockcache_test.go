package blockcache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
)

// testGraph builds a tiny CSR whose resident size is deterministic:
// n+1 offsets + n adjacency entries, 4 bytes each.
func testGraph(n int) *graph.CSR {
	off := make([]int32, n+1)
	adj := make([]int32, n)
	for i := 0; i < n; i++ {
		off[i+1] = int32(i + 1)
		adj[i] = int32((i + 1) % n)
	}
	return &graph.CSR{Off: off, Adj: adj}
}

// loader returns a LoadFunc serving deterministic payloads of the given
// node count and counts invocations.
func loader(nodes int, calls *atomic.Int64) LoadFunc {
	return func(ctx context.Context, key uint64) (Value, error) {
		calls.Add(1)
		return Value{Graph: testGraph(nodes)}, nil
	}
}

func TestGetMissThenHit(t *testing.T) {
	var calls atomic.Int64
	c := New(1<<20, loader(8, &calls))
	ctx := context.Background()

	v, err := c.Get(ctx, 3)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if v.Graph == nil || v.Graph.NumNodes() != 8 {
		t.Fatalf("payload = %+v, want 8-node graph", v)
	}
	c.Unpin(3)

	if _, err := c.Get(ctx, 3); err != nil {
		t.Fatalf("Get (hit): %v", err)
	}
	c.Unpin(3)

	if got := calls.Load(); got != 1 {
		t.Fatalf("loader ran %d times, want 1", got)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", s)
	}
	if want := v.Bytes(); s.Bytes != want {
		t.Fatalf("resident bytes = %d, want %d", s.Bytes, want)
	}
}

func TestEvictionLRUOrder(t *testing.T) {
	var calls atomic.Int64
	one := Value{Graph: testGraph(8)}.Bytes()
	// Room for exactly two payloads.
	c := New(2*one, loader(8, &calls))
	ctx := context.Background()

	for _, k := range []uint64{1, 2} {
		if _, err := c.Get(ctx, k); err != nil {
			t.Fatalf("Get(%d): %v", k, err)
		}
		c.Unpin(k)
	}
	// Touch 1 so 2 becomes the LRU victim.
	if _, err := c.Get(ctx, 1); err != nil {
		t.Fatalf("Get(1): %v", err)
	}
	c.Unpin(1)

	if _, err := c.Get(ctx, 3); err != nil {
		t.Fatalf("Get(3): %v", err)
	}
	c.Unpin(3)

	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction / 2 entries", s)
	}
	// 2 must be the evicted key: fetching it again is a fresh load.
	before := calls.Load()
	if _, err := c.Get(ctx, 2); err != nil {
		t.Fatalf("Get(2): %v", err)
	}
	c.Unpin(2)
	if calls.Load() != before+1 {
		t.Fatal("key 2 was still resident; LRU evicted the wrong entry")
	}
	// 1 survived the first eviction round but was evicted to admit 2's
	// reload; 3 must still be resident.
	before = calls.Load()
	if _, err := c.Get(ctx, 3); err != nil {
		t.Fatalf("Get(3) again: %v", err)
	}
	c.Unpin(3)
	if calls.Load() != before {
		t.Fatal("key 3 was evicted; LRU order violated")
	}
}

func TestPinnedEntriesAreNotEvicted(t *testing.T) {
	var calls atomic.Int64
	one := Value{Graph: testGraph(8)}.Bytes()
	c := New(one, loader(8, &calls)) // room for a single payload
	ctx := context.Background()

	if _, err := c.Get(ctx, 1); err != nil {
		t.Fatalf("Get(1): %v", err)
	}
	// 1 stays pinned while 2 is admitted: the budget overshoots rather
	// than evicting a pinned entry.
	if _, err := c.Get(ctx, 2); err != nil {
		t.Fatalf("Get(2): %v", err)
	}
	s := c.Stats()
	if s.Bytes <= one {
		t.Fatalf("resident bytes = %d, want overshoot past %d while both are pinned", s.Bytes, one)
	}
	c.Unpin(2)
	before := calls.Load()
	if _, err := c.Get(ctx, 1); err != nil {
		t.Fatalf("Get(1) while pinned: %v", err)
	}
	c.Unpin(1)
	if calls.Load() != before {
		t.Fatal("pinned key 1 was evicted")
	}
	// Releasing the last pin drains the overshoot.
	c.Unpin(1)
	if s := c.Stats(); s.Bytes > one {
		t.Fatalf("resident bytes = %d after final Unpin, want <= %d", s.Bytes, one)
	}
}

func TestSingleflightDedup(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	c := New(1<<20, func(ctx context.Context, key uint64) (Value, error) {
		calls.Add(1)
		<-release
		return Value{Graph: testGraph(8)}, nil
	})
	ctx := context.Background()

	const followers = 8
	var wg sync.WaitGroup
	errs := make([]error, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Get(ctx, 7)
			c.Unpin(7)
		}(i)
	}
	// All goroutines are either the leader (blocked in the loader) or
	// followers (blocked on done); one release unblocks everyone.
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("Get #%d: %v", i, err)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("loader ran %d times for one key, want 1 (singleflight)", got)
	}
}

func TestLoadErrorIsNotCached(t *testing.T) {
	var calls atomic.Int64
	boom := errors.New("disk gone")
	c := New(1<<20, func(ctx context.Context, key uint64) (Value, error) {
		if calls.Add(1) == 1 {
			return Value{}, boom
		}
		return Value{Graph: testGraph(8)}, nil
	})
	ctx := context.Background()

	if _, err := c.Get(ctx, 1); !errors.Is(err, boom) {
		t.Fatalf("Get err = %v, want %v", err, boom)
	}
	if s := c.Stats(); s.Entries != 0 {
		t.Fatalf("failed load left %d entries resident", s.Entries)
	}
	// The failure is not cached: the next Get retries and succeeds.
	if _, err := c.Get(ctx, 1); err != nil {
		t.Fatalf("Get retry: %v", err)
	}
	c.Unpin(1)
}

func TestGetHonorsContextCancel(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	c := New(1<<20, func(ctx context.Context, key uint64) (Value, error) {
		close(started)
		<-release
		return Value{Graph: testGraph(8)}, nil
	})
	defer close(release)

	go func() {
		_, _ = c.Get(context.Background(), 1) // leader, blocked in loader
		c.Unpin(1)
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Get(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("follower Get err = %v, want context.Canceled", err)
	}
}

func TestSetMaxBytesAndPurge(t *testing.T) {
	var calls atomic.Int64
	c := New(1<<20, loader(8, &calls))
	ctx := context.Background()
	for k := uint64(0); k < 4; k++ {
		if _, err := c.Get(ctx, k); err != nil {
			t.Fatalf("Get(%d): %v", k, err)
		}
		c.Unpin(k)
	}
	one := Value{Graph: testGraph(8)}.Bytes()
	c.SetMaxBytes(one)
	if s := c.Stats(); s.Bytes > one || s.Entries != 1 {
		t.Fatalf("after SetMaxBytes(%d): %+v, want one resident entry", one, s)
	}
	c.Purge()
	if s := c.Stats(); s.Entries != 0 || s.Bytes != 0 {
		t.Fatalf("after Purge: %+v, want empty", s)
	}
}

func TestValueBytesCountsCodes(t *testing.T) {
	g := testGraph(4)
	v := Value{Graph: g}
	if v.Bytes() != 4*int64(len(g.Off)+len(g.Adj)) {
		t.Fatalf("graph-only Bytes = %d", v.Bytes())
	}
}

func TestStringer(t *testing.T) {
	c := New(1, loader(2, new(atomic.Int64)))
	if got := c.String(); got == "" {
		t.Fatal("String() empty")
	}
	_ = fmt.Stringer(c)
}

// TestAdoptNeverHandsOutAnUnpinnedPayload: a follower whose leader's
// entry was evicted before it woke must pin what is resident now (here,
// a reload of the same key already pinned once by another query), so its
// Unpin releases its own pin and leaves the other query's in place.
func TestAdoptNeverHandsOutAnUnpinnedPayload(t *testing.T) {
	c := New(0, nil) // adopt never loads
	evicted := &entry{key: 1, val: Value{Graph: testGraph(8)}}
	cur := &entry{key: 1, val: Value{Graph: testGraph(8)}, pins: 1}
	c.mu.Lock()
	c.entries[1] = cur
	c.pushFrontLocked(cur)
	c.mu.Unlock()

	v, pinned, err := c.adopt(1, evicted)
	if err != nil || !pinned || v.Graph != cur.val.Graph {
		t.Fatalf("adopt = (%v, pinned %v, %v), want the current entry's payload pinned", v, pinned, err)
	}
	c.Unpin(1)
	c.mu.Lock()
	pins := cur.pins
	c.mu.Unlock()
	if pins != 1 {
		t.Fatalf("current entry has %d pins after the follower's adopt+Unpin, want 1", pins)
	}

	// With nothing resident the follower gets no payload and claims again.
	c.Unpin(1)
	c.Purge()
	if _, pinned, err := c.adopt(1, evicted); pinned || err != nil {
		t.Fatalf("adopt with no resident entry: pinned %v, err %v; want a re-claim", pinned, err)
	}
}

// TestLoadedBytesCountsEveryLoad: LoadedBytes is the payload bytes of
// the successful loads, so it equals the sum of Value.Bytes over the
// misses that loaded — and a failed load adds nothing.
func TestLoadedBytesCountsEveryLoad(t *testing.T) {
	fail := errors.New("disk gone")
	c := New(Value{Graph: testGraph(8)}.Bytes(), func(_ context.Context, key uint64) (Value, error) {
		if key == 99 {
			return Value{}, fail
		}
		return Value{Graph: testGraph(int(key))}, nil
	})
	ctx := context.Background()
	var want uint64
	for _, k := range []uint64{8, 4, 8, 16, 99, 4, 4} {
		before := c.Stats().Misses
		v, err := c.Get(ctx, k)
		if k == 99 {
			if !errors.Is(err, fail) {
				t.Fatalf("Get(99) = %v, want the loader's error", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Get(%d): %v", k, err)
		}
		if c.Stats().Misses > before {
			want += uint64(v.Bytes())
		}
		c.Unpin(k)
	}
	s := c.Stats()
	if s.LoadedBytes != want || s.Evictions == 0 {
		t.Fatalf("LoadedBytes = %d, want %d (stats %+v)", s.LoadedBytes, want, s)
	}
}
