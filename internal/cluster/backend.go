package cluster

import (
	"context"

	"scratchmem/internal/plancache"
)

// Fill computes a cache value; it runs under the flight's context (see
// plancache.Do), not any single caller's.
type Fill func(ctx context.Context) (any, error)

// FillSpec describes how a value can be filled by a remote peer instead of
// computed locally. A nil *FillSpec marks a key as local-only (simulation
// results, DSE answers, traces): those never cross the network, only plans
// — tiny, content-addressed, deterministic — are fleet currency.
type FillSpec struct {
	// Request is the JSON-marshalable wire request the key's owner can
	// compute the value from (the server's PlanRequest).
	Request any
	// Decode turns the owner's canonical response body into the cache
	// value, verifying that the body is what this build renders for the
	// plan its decisions rebuild (scratchmem.VerifyPlanDocument). An error
	// falls the caller back to computing locally.
	Decode func(body []byte) (any, error)
}

// Backend is the cache the HTTP server plans against. plancache.Cache is
// the storage; implementations differ in where a miss is computed: in
// process (Local), on the key's ring owner (Peer), or behind a hot LRU
// over either (Layered).
type Backend interface {
	// Get returns the stored value for key without computing anything.
	Get(key string) (any, bool)
	// Do returns the value for key, filling it from spec's peer owner
	// and/or computing it with fn on a miss. shared reports the value came
	// from a cache, a coalesced flight or a peer rather than from running
	// fn here.
	Do(ctx context.Context, key string, spec *FillSpec, fn Fill) (val any, shared bool, err error)
	// Stats snapshots the underlying storage counters.
	Stats() plancache.Stats
	// Snapshot returns the stored entries, most recently used first.
	Snapshot() []plancache.Entry
	// Remove deletes key from every layer, tombstoning in-flight
	// computations (plancache.Remove semantics). It reports whether a
	// stored entry was deleted from the authoritative layer.
	Remove(key string) bool
	// Purge empties every layer and returns how many stored entries the
	// authoritative layer dropped.
	Purge() int
}

// Local adapts the in-process plan cache to the Backend interface: the
// single-node composition, and the authoritative store under Peer.
type Local struct {
	c *plancache.Cache
}

// NewLocal wraps c.
func NewLocal(c *plancache.Cache) *Local { return &Local{c: c} }

// Cache exposes the wrapped cache (warm restore inserts through it).
func (l *Local) Cache() *plancache.Cache { return l.c }

func (l *Local) Get(key string) (any, bool) { return l.c.Get(key) }

func (l *Local) Do(ctx context.Context, key string, _ *FillSpec, fn Fill) (any, bool, error) {
	return l.c.Do(ctx, key, fn)
}

func (l *Local) Stats() plancache.Stats { return l.c.Stats() }

func (l *Local) Snapshot() []plancache.Entry { return l.c.Snapshot() }

func (l *Local) Remove(key string) bool { return l.c.Remove(key) }

func (l *Local) Purge() int { return l.c.Purge() }

// Layered puts a small hot LRU in front of a Backend. Values filled from
// remote owners land in the hot cache (the inner Peer does not store
// non-owned keys — the owner is their home), so a popular non-owned key
// costs one network hop, not one per request.
type Layered struct {
	hot   *plancache.Cache
	inner Backend
	// remote reports whether key's authoritative copy lives elsewhere —
	// only those are worth double-storing in the hot cache.
	remote func(key string) bool
}

// NewLayered builds the hot layer over inner. remote may be nil (nothing
// is hot-cached; the layer is then a transparent pass-through).
func NewLayered(hot *plancache.Cache, inner Backend, remote func(key string) bool) *Layered {
	return &Layered{hot: hot, inner: inner, remote: remote}
}

func (l *Layered) Get(key string) (any, bool) {
	if v, ok := l.hot.Get(key); ok {
		return v, true
	}
	return l.inner.Get(key)
}

func (l *Layered) Do(ctx context.Context, key string, spec *FillSpec, fn Fill) (any, bool, error) {
	if v, ok := l.hot.Get(key); ok {
		return v, true, nil
	}
	v, shared, err := l.inner.Do(ctx, key, spec, fn)
	if err == nil && l.remote != nil && l.remote(key) {
		l.hot.Put(key, v)
	}
	return v, shared, err
}

func (l *Layered) Stats() plancache.Stats { return l.inner.Stats() }

// Remove deletes key from both layers; the authoritative layer's verdict is
// the one reported (a hot-only copy going away is not "an entry removed").
func (l *Layered) Remove(key string) bool {
	l.hot.Remove(key)
	return l.inner.Remove(key)
}

// Purge empties both layers, reporting the authoritative layer's count.
func (l *Layered) Purge() int {
	l.hot.Purge()
	return l.inner.Purge()
}

// Snapshot merges the authoritative entries with hot-only ones (an entry
// can sit in both layers; the authoritative copy wins).
func (l *Layered) Snapshot() []plancache.Entry {
	out := l.inner.Snapshot()
	seen := make(map[string]bool, len(out))
	for _, e := range out {
		seen[e.Key] = true
	}
	for _, e := range l.hot.Snapshot() {
		if !seen[e.Key] {
			out = append(out, e)
		}
	}
	return out
}

// PeerStats exposes the peer-fill counters of a Backend that has them
// (Peer, or Layered over Peer).
type PeerStatser interface {
	PeerStats() PeerStats
}

// PeerStats reports Layered's inner backend's counters when it has any.
func (l *Layered) PeerStats() PeerStats {
	if ps, ok := l.inner.(PeerStatser); ok {
		return ps.PeerStats()
	}
	return PeerStats{}
}
