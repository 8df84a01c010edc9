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

// Backend is where the HTTP server computes a cache miss: in process
// (Local) or on the key's ring owner first (Peer). Both store into the
// member's one plancache.Cache, which the server reads, removes from,
// purges, snapshots and counts on directly.
type Backend interface {
	// Do returns the value for key, filling it from spec's peer owner
	// and/or computing it with fn on a miss. shared reports the value came
	// from a cache, a coalesced flight or a peer rather than from running
	// fn here.
	Do(ctx context.Context, key string, spec *FillSpec, fn Fill) (val any, shared bool, err error)
}

// Local computes every miss in process: the single-node Backend.
type Local struct {
	c *plancache.Cache
}

// NewLocal wraps c.
func NewLocal(c *plancache.Cache) *Local { return &Local{c: c} }

func (l *Local) Do(ctx context.Context, key string, _ *FillSpec, fn Fill) (any, bool, error) {
	return l.c.Do(ctx, key, fn)
}
