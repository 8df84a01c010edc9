// Package plancache is a bounded, concurrency-safe, content-addressed
// result cache with single-flight deduplication. Planning (paper
// Algorithm 1) is a pure function of (network, accelerator config,
// options), so the HTTP server keys completed plans and simulation results
// by a canonical SHA-256 hash of the request (scratchmem.PlanKey) and
// serves repeats as a map lookup. Concurrent requests for the same key
// collapse onto one computation; the rest wait for its result.
package plancache

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"

	"scratchmem/internal/faultinject"
	"scratchmem/internal/obs"
)

// ErrPanic marks flight computations that panicked: the panic is recovered
// on the flight goroutine (so it cannot kill the process) and surfaced to
// every waiter as an error wrapping this sentinel. Panicking computations
// are never cached.
var ErrPanic = errors.New("plancache: panic computing")

// Stats is a snapshot of the cache counters.
type Stats struct {
	// Hits counts lookups served from a stored entry.
	Hits int64 `json:"hits"`
	// Misses counts lookups that started a new computation.
	Misses int64 `json:"misses"`
	// Coalesced counts lookups that joined an in-flight computation
	// instead of starting their own (single-flight deduplication).
	Coalesced int64 `json:"coalesced"`
	// Evictions counts entries dropped to stay within capacity.
	Evictions int64 `json:"evictions"`
	// Entries is the current number of stored entries.
	Entries int `json:"entries"`
	// Capacity is the maximum number of stored entries (0 disables
	// storage; single-flight deduplication still applies).
	Capacity int `json:"capacity"`
}

type entry struct {
	key string
	val any
}

// call is one in-flight computation; waiters block on done.
type call struct {
	done chan struct{}
	val  any
	err  error
	// waiters counts the callers still blocked on this flight (guarded by
	// Cache.mu). When it drops to zero the computation context is canceled:
	// nobody is left to consume the result, so fn may abort early. A call
	// with zero waiters is abandoned — new callers start a fresh flight
	// rather than inheriting a canceled one.
	waiters int
	cancel  context.CancelFunc
	// noStore marks a flight whose key was removed (Remove/Purge) while the
	// computation was running: waiters still receive the result, but it is
	// not stored — the removal wins over the race. Guarded by Cache.mu.
	noStore bool
}

// Cache is an LRU keyed by canonical request hashes. The zero value is not
// usable; construct with New.
type Cache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	inflight map[string]*call

	hits, misses, coalesced, evictions int64
}

// New returns a cache holding at most capacity entries. capacity <= 0
// disables storage but keeps single-flight deduplication.
func New(capacity int) *Cache {
	if capacity < 0 {
		capacity = 0
	}
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		inflight: make(map[string]*call),
	}
}

// Get returns the stored value for key, marking it most recently used.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return el.Value.(*entry).val, true
}

// Contains reports whether key is stored, without touching recency order or
// the hit/miss counters — the probe rewarm uses before deciding whether a
// snapshot record is worth inserting.
func (c *Cache) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

// Do returns the value for key, computing it with fn on a miss. Concurrent
// calls with the same key run fn exactly once: the first caller becomes the
// leader, the rest wait for its result. shared reports that the value came
// from the cache or from another caller's flight rather than from running
// fn here.
//
// The computation runs on its own goroutine under a context owned by the
// flight, not by any single caller: one waiter's ctx expiring does not
// disturb the computation while other waiters remain (they still get the
// result, and it is cached). Only when the LAST waiter abandons the flight
// is the computation context canceled — fn may honour it to stop burning a
// worker slot nobody is waiting for, or ignore it and still have a
// successful result cached for future requests. Errors and panics in fn
// are returned to all current waiters and are never cached.
func (c *Cache) Do(ctx context.Context, key string, fn func(ctx context.Context) (any, error)) (val any, shared bool, err error) {
	ctx, span := obs.StartSpan(ctx, "cache")
	if span != nil {
		span.SetAttr("key", key)
		defer span.End()
	}
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		v := el.Value.(*entry).val
		c.mu.Unlock()
		span.SetAttr("outcome", "hit")
		return v, true, nil
	}
	if cl, ok := c.inflight[key]; ok && cl.waiters > 0 {
		cl.waiters++
		c.coalesced++
		c.mu.Unlock()
		span.SetAttr("outcome", "coalesced")
		return c.wait(ctx, cl, true)
	}
	c.misses++
	span.SetAttr("outcome", "miss")
	// The flight owns its lifetime (see above) but keeps the caller's
	// observability: Detach carries the tracer, span and logger across
	// without the deadline, so spans opened inside fn land in the leader's
	// trace even though the computation can outlive the leader.
	callCtx, cancel := context.WithCancel(obs.Detach(ctx))
	cl := &call{done: make(chan struct{}), waiters: 1, cancel: cancel}
	c.inflight[key] = cl
	c.mu.Unlock()

	go func() {
		defer func() {
			if r := recover(); r != nil {
				cl.err = fmt.Errorf("%w %s: %v", ErrPanic, key, r)
				cl.val = nil
			}
			cancel()
			c.mu.Lock()
			// An abandoned flight may have been replaced by a fresh one;
			// only remove the entry if it is still ours.
			if c.inflight[key] == cl {
				delete(c.inflight, key)
			}
			if cl.err == nil && !cl.noStore {
				c.storeLocked(key, cl.val)
			}
			c.mu.Unlock()
			close(cl.done)
		}()
		if err := faultinject.Hit("plancache.flight"); err != nil {
			cl.err = err
			return
		}
		cl.val, cl.err = fn(callCtx)
	}()

	return c.wait(ctx, cl, false)
}

// wait blocks until cl completes or ctx expires. A waiter that gives up
// decrements the count; the last one out cancels the computation context.
func (c *Cache) wait(ctx context.Context, cl *call, shared bool) (any, bool, error) {
	select {
	case <-cl.done:
		return cl.val, shared, cl.err
	case <-ctx.Done():
		c.mu.Lock()
		cl.waiters--
		abandoned := cl.waiters == 0
		c.mu.Unlock()
		if abandoned {
			cl.cancel()
		}
		return nil, false, ctx.Err()
	}
}

// storeLocked inserts key as most recently used and evicts from the cold
// end while over capacity. Caller holds c.mu.
func (c *Cache) storeLocked(key string, val any) {
	if c.capacity == 0 {
		return
	}
	if el, ok := c.items[key]; ok {
		el.Value.(*entry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, val: val})
	for c.ll.Len() > c.capacity {
		cold := c.ll.Back()
		c.ll.Remove(cold)
		delete(c.items, cold.Value.(*entry).key)
		c.evictions++
	}
}

// Put stores val under key as the most recently used entry, evicting from
// the cold end if the insert pushes the cache over capacity. It is the
// restore half of Snapshot: a warm boot re-inserts snapshotted entries
// without running a computation. A no-op when storage is disabled.
func (c *Cache) Put(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.storeLocked(key, val)
}

// Remove drops the stored entry for key. If a flight for key is currently
// in progress its result is delivered to the waiters but not stored, so a
// removal cannot lose the race against a concurrent computation. Reports
// whether anything was removed (a stored entry dropped or an in-flight
// store suppressed).
func (c *Cache) Remove(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	removed := false
	if el, ok := c.items[key]; ok {
		c.ll.Remove(el)
		delete(c.items, key)
		removed = true
	}
	if cl, ok := c.inflight[key]; ok && !cl.noStore {
		cl.noStore = true
		removed = true
	}
	return removed
}

// Purge drops every stored entry and suppresses the store of every
// in-flight computation (waiters still get their results), returning how
// many stored entries were dropped.
func (c *Cache) Purge() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.ll.Len()
	c.ll.Init()
	clear(c.items)
	for _, cl := range c.inflight {
		cl.noStore = true
	}
	return n
}

// Entry is one stored (key, value) pair of a Snapshot.
type Entry struct {
	Key string
	Val any
}

// Snapshot returns the stored entries from most to least recently used.
// Values are shared, not copied: snapshot consumers must treat them as
// immutable (cache values already are — they are served to concurrent
// requests).
func (c *Cache) Snapshot() []Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Entry, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		out = append(out, Entry{Key: e.key, Val: e.val})
	}
	return out
}

// Len returns the current number of stored entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Coalesced: c.coalesced,
		Evictions: c.evictions,
		Entries:   c.ll.Len(),
		Capacity:  c.capacity,
	}
}
