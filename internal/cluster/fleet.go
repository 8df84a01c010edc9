package cluster

import (
	"context"
	"errors"
)

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

// Fleet bundles the cluster control plane — everything beyond the data-path
// Backend: liveness, replication, and the transport for fan-out
// invalidation. The server holds one (nil when standalone) and
// nil-guards every use, so single-node behavior is untouched.
type Fleet struct {
	// Ring is the member ring (shared with the Peer backend).
	Ring *Ring
	// Self is this process's own base URL.
	Self string
	// Health tracks peer liveness; may be nil (probes disabled).
	Health *Health
	// Repl pushes freshly computed owned plans to ring successors; may be
	// nil (replication disabled).
	Repl *Replicator
	// Invalidate is the transport for fan-out invalidation; may be nil
	// (invalidation then applies locally only).
	Invalidate InvalidateFunc
	// Status is the transport for the overview fan-out; may be nil (the
	// overview then reports peers as unreachable, never errors).
	Status StatusFunc
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
