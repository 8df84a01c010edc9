package cluster

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"scratchmem/internal/breaker"
)

// FillFunc asks the member at baseURL to produce the value for request
// (POST /v1/peer/fill through the client's transport) and returns its
// canonical response body.
type FillFunc func(ctx context.Context, baseURL string, request any) ([]byte, error)

// ErrNoReplica is what a LookupFunc returns when the asked member does not
// hold a cached copy of the key (a cached-only miss). It is an expected
// outcome — the successor simply had not received the replica yet — so the
// caller falls through to local compute without counting a member failure.
var ErrNoReplica = errors.New("cluster: member holds no replica")

// LookupFunc asks a member for an already-cached copy of the value for
// request, never triggering a compute on the member (POST
// /v1/peer/fill?cached=only through the client's transport). A miss is
// ErrNoReplica.
type LookupFunc func(ctx context.Context, baseURL string, request any) ([]byte, error)

// InvalidateFunc removes key from a member's caches (DELETE /v1/cache/{key}
// through the client's transport). key == "" purges the member's caches
// entirely (POST /v1/cache/purge).
type InvalidateFunc func(ctx context.Context, baseURL, key string) error

// StatusFunc fetches a member's own fleet view (GET /v1/cluster/status
// through the client's transport) as a raw JSON body — the fan-out
// primitive behind GET /v1/cluster/overview.
type StatusFunc func(ctx context.Context, baseURL string) ([]byte, error)

// Fleet is one member's handle on the cluster: the ring, this member's
// place in it, liveness, replication and the transports it talks to its
// peers through. The server holds one (nil when standalone); every method
// is nil-safe, so single-node behaviour is untouched. Build it as a struct
// literal and share it by pointer.
type Fleet struct {
	// Ring is the static member ring.
	Ring *Ring
	// Self is this process's own base URL; it must be a ring member.
	Self string
	// Health tracks peer liveness, so fills and fan-outs skip members
	// that probes marked dead; may be nil (every member presumed alive).
	Health *Health
	// Repl pushes freshly computed owned plans to ring successors; may be
	// nil (replication disabled).
	Repl *Replicator
	// Fill is the transport for owner fills.
	Fill FillFunc
	// Lookup is the transport for cached-only successor lookups after the
	// owner is dead or failed; may be nil (no successor fallback).
	Lookup LookupFunc
	// Invalidate is the transport for fan-out invalidation; may be nil
	// (invalidation then applies locally only).
	Invalidate InvalidateFunc
	// Status is the transport for the overview fan-out; may be nil (the
	// overview then reports peers as unreachable, never errors).
	Status StatusFunc
	// BreakerThreshold and BreakerCooldown configure the per-member
	// circuit breaker on owner fills (breaker.New semantics: 0 selects the
	// default, threshold < 0 disables breaking).
	BreakerThreshold int
	BreakerCooldown  time.Duration

	mu       sync.Mutex
	breakers map[string]*breaker.Breaker

	ownerSelf, hit, errs, bad, open, dead, succHit atomic.Int64
}

// Stop shuts down the fleet's background loops (probes, replication).
func (f *Fleet) Stop() {
	if f == nil {
		return
	}
	f.Health.Stop()
	f.Repl.Stop()
}

// LiveMembers returns the ring members (excluding self) currently believed
// alive — the fan-out set for invalidation.
func (f *Fleet) LiveMembers() []string {
	if f == nil {
		return nil
	}
	var out []string
	for _, m := range f.Ring.Members() {
		if m == f.Self {
			continue
		}
		if f.Health.Alive(m) {
			out = append(out, m)
		}
	}
	return out
}
