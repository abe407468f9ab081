// Package blockcache provides a bytes-bounded LRU cache for spilled
// block payloads (graph + optional codes), keyed by block creation
// index.
//
// The cache is the RAM boundary of tiered storage: sealed blocks whose
// payload has been spilled to per-block segment files are paged back in
// through Get and held resident until evicted. Three properties matter
// to callers:
//
//   - Pinning. Get returns the payload pinned; the caller must Unpin
//     when its kernel is done. A pinned entry is never evicted, so a
//     graph is never freed out from under a running search. The byte
//     budget may be overshot while pins hold more than the budget; the
//     overshoot drains as pins are released.
//   - Singleflight. Concurrent Gets for the same key share one loader
//     call; followers block until the leader's load resolves and then
//     pin the shared payload (a follower that wakes to find it already
//     evicted claims again, counting a second lookup). A failed load is
//     not cached — the next Get retries.
//   - Bounded bytes, not entries. Eviction walks from the LRU tail,
//     skipping pinned entries, until resident bytes fit the budget.
//
// The cache never takes locks outside its own mutex and the loader runs
// with no cache lock held, so callers may invoke Get while holding
// index locks without ordering hazards.
package blockcache

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/sq"
)

// Value is one cached block payload. Codes is nil for blocks below the
// compression threshold.
type Value struct {
	Graph *graph.CSR
	Codes *sq.Codes
}

// Bytes reports the resident size the cache charges for the payload.
func (v Value) Bytes() int64 {
	var n int64
	if v.Graph != nil {
		n += 4 * int64(len(v.Graph.Off)+len(v.Graph.Adj))
	}
	if v.Codes != nil {
		n += int64(v.Codes.Bytes())
	}
	return n
}

// LoadFunc reads the payload for one spilled block. It is called with
// no cache lock held and may block on disk I/O; ctx carries the
// query's deadline.
type LoadFunc func(ctx context.Context, key uint64) (Value, error)

// Stats is a snapshot of the cache counters. Hits/Misses/Evictions and
// LoadedBytes (the Value.Bytes of every successful load, the work the
// misses cost) are cumulative; Bytes/Entries describe the current
// resident set.
type Stats struct {
	Hits        uint64
	Misses      uint64
	Evictions   uint64
	LoadedBytes uint64
	Bytes       int64
	Entries     int
}

// entry is one cache slot. While a load is in flight, done is non-nil
// and val/err are invalid until done is closed. Resident entries sit on
// the LRU list (front = most recent).
type entry struct {
	key   uint64
	val   Value
	err   error
	bytes int64
	pins  int
	done  chan struct{}

	prev, next *entry
}

// Cache is a bytes-bounded LRU of spilled block payloads. The zero
// value is not usable; construct with New.
type Cache struct {
	load LoadFunc

	mu sync.Mutex
	//tknn:guardedBy(mu)
	maxBytes int64
	//tknn:guardedBy(mu)
	entries map[uint64]*entry
	// head/tail delimit the LRU list of resident entries; head is the
	// most recently used.
	//tknn:guardedBy(mu)
	head *entry
	//tknn:guardedBy(mu)
	tail *entry
	//tknn:guardedBy(mu)
	bytes int64
	//tknn:guardedBy(mu)
	hits uint64
	//tknn:guardedBy(mu)
	misses uint64
	//tknn:guardedBy(mu)
	evictions uint64
	//tknn:guardedBy(mu)
	loadedBytes uint64
}

// New builds a cache bounded to maxBytes of resident payload bytes.
// maxBytes <= 0 means unbounded. load resolves misses.
func New(maxBytes int64, load LoadFunc) *Cache {
	return &Cache{
		load:     load,
		maxBytes: maxBytes,
		entries:  make(map[uint64]*entry),
	}
}

// Get returns the payload for key, loading it on a miss, and pins it.
// The caller must Unpin(key) exactly once when done with the payload.
// On error nothing is pinned and the miss is not cached.
func (c *Cache) Get(ctx context.Context, key uint64) (Value, error) {
	v, e, done, leader, hit := c.claim(key)
	if hit {
		return v, nil
	}
	for !leader {
		// Load in flight: wait for the leader, then pin its result.
		select {
		case <-done:
		case <-ctx.Done():
			return Value{}, ctx.Err()
		}
		if v, pinned, err := c.adopt(key, e); pinned || err != nil {
			return v, err
		}
		// The leader's entry was evicted before this follower woke and
		// nothing resident replaced it: claim again, so the caller's
		// Unpin always releases a pin it holds.
		if v, e, done, leader, hit = c.claim(key); hit {
			return v, nil
		}
	}
	val, err := c.doLoad(ctx, key)
	return c.install(e, val, err)
}

// claim resolves key against the current cache state: a resident entry
// is pinned and returned (hit), an in-flight load is joined (the
// follower gets the leader's done channel, captured under the lock
// because the leader nils e.done on install), and a missing key
// registers the caller as the load leader. Followers and leaders both
// count as misses — each waits on the disk read.
func (c *Cache) claim(key uint64) (v Value, e *entry, done chan struct{}, leader, hit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e = c.entries[key]; e != nil {
		if e.done == nil {
			e.pins++
			c.hits++
			c.moveFrontLocked(e)
			return e.val, e, nil, false, true
		}
		c.misses++
		return Value{}, e, e.done, false, false
	}
	e = &entry{key: key, done: make(chan struct{})}
	c.entries[key] = e
	c.misses++
	return Value{}, e, e.done, true, false
}

// adopt pins the resident payload for key for a follower that finished
// waiting on e: e itself, or — if e was evicted between the leader
// finishing and the follower waking — the entry a later load made
// resident. With neither (pinned false, err nil) the caller must claim
// again; it never gets a payload it would then Unpin without a pin.
func (c *Cache) adopt(key uint64, e *entry) (v Value, pinned bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.err != nil {
		return Value{}, false, e.err
	}
	cur := c.entries[key]
	if cur == nil || cur.done != nil {
		return Value{}, false, nil
	}
	cur.pins++
	c.moveFrontLocked(cur)
	return cur.val, true, nil
}

// install publishes the leader's load result: on success the entry goes
// resident and pinned at the MRU end; on failure it is forgotten so the
// next Get retries. Either way the done channel is closed to release
// the followers.
func (c *Cache) install(e *entry, val Value, err error) (Value, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	done := e.done
	if err != nil {
		e.err = err
		delete(c.entries, e.key)
		close(done)
		return Value{}, err
	}
	e.val = val
	e.bytes = val.Bytes()
	e.pins = 1
	e.done = nil
	c.bytes += e.bytes
	c.loadedBytes += uint64(e.bytes)
	c.pushFrontLocked(e)
	c.evictLocked()
	close(done)
	return val, nil
}

// doLoad invokes the loader with no lock held. The blockcache.load
// fault point injects loader errors and latency for resilience tests.
func (c *Cache) doLoad(ctx context.Context, key uint64) (Value, error) {
	if fault.Enabled {
		if err := fault.Hit("blockcache.load"); err != nil {
			return Value{}, err
		}
	}
	return c.load(ctx, key)
}

// Unpin releases one pin taken by Get. Unpinning a key that is not
// resident or not pinned is a no-op.
func (c *Cache) Unpin(key uint64) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok && e.done == nil && e.pins > 0 {
		e.pins--
		if e.pins == 0 && c.bytes > c.maxBytes {
			c.evictLocked()
		}
	}
	c.mu.Unlock()
}

// SetMaxBytes rebounds the cache, evicting immediately if the resident
// set no longer fits. Used by the tier benchmark to sweep budgets.
func (c *Cache) SetMaxBytes(n int64) {
	c.mu.Lock()
	c.maxBytes = n
	c.evictLocked()
	c.mu.Unlock()
}

// Purge evicts every unpinned resident entry, regardless of budget.
func (c *Cache) Purge() {
	c.mu.Lock()
	for e := c.tail; e != nil; {
		prev := e.prev
		if e.pins == 0 {
			c.removeLocked(e)
			c.evictions++
		}
		e = prev
	}
	c.mu.Unlock()
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	s := Stats{
		Hits:        c.hits,
		Misses:      c.misses,
		Evictions:   c.evictions,
		LoadedBytes: c.loadedBytes,
		Bytes:       c.bytes,
		Entries:     len(c.entries),
	}
	c.mu.Unlock()
	return s
}

// evictLocked drops LRU-tail entries until resident bytes fit the
// budget. Pinned and in-flight entries are skipped, so the budget may
// be overshot while pins hold it open.
func (c *Cache) evictLocked() {
	if c.maxBytes <= 0 {
		return
	}
	for e := c.tail; e != nil && c.bytes > c.maxBytes; {
		prev := e.prev
		if e.pins == 0 {
			c.removeLocked(e)
			c.evictions++
		}
		e = prev
	}
}

// removeLocked unlinks a resident entry and forgets it.
func (c *Cache) removeLocked(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
	c.bytes -= e.bytes
	delete(c.entries, e.key)
}

// pushFrontLocked links a newly resident entry at the MRU end.
func (c *Cache) pushFrontLocked(e *entry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// moveFrontLocked refreshes recency for a resident entry.
func (c *Cache) moveFrontLocked(e *entry) {
	if c.head == e {
		return
	}
	// Unlink without touching bytes or the map.
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
}

// String implements fmt.Stringer for debug logging.
func (c *Cache) String() string {
	s := c.Stats()
	return fmt.Sprintf("blockcache{entries=%d bytes=%d hits=%d misses=%d evictions=%d}",
		s.Entries, s.Bytes, s.Hits, s.Misses, s.Evictions)
}
