// Package cluster turns N smm-serve processes into one fleet.
//
// Every member plans its own plan-cache misses. The paper's analyser scores
// closed-form estimates per layer, so planning a key costs about as much as
// verifying a copy of it that another member sent, before any round trip;
// DESIGN §10 records what sending plans between members cost. So no plan
// crosses the network on the request path: a member's plan cache
// (internal/plancache) and its single-flight are its own.
//
// What the fleet shares is operational: a static member list (the -peers
// flag, not gossip: membership of a planning tier changes by deploy),
// liveness probes (Health), fan-out invalidation and purge, and the merged
// overview of every member's status. A restarted member warms its plan
// cache from a peer's snapshot (smm-serve -warm-from), which verifies every
// record before it is trusted.
package cluster

import (
	"context"
	"fmt"
	"slices"
)

// InvalidateFunc removes key from a member's caches (DELETE /v1/cache/{key}
// through the client's transport). key == "" purges the member's caches
// entirely (POST /v1/cache/purge).
type InvalidateFunc func(ctx context.Context, baseURL, key string) error

// StatusFunc fetches a member's own fleet view (GET /v1/cluster/status
// through the client's transport) as a raw JSON body — the fan-out
// primitive behind GET /v1/cluster/overview.
type StatusFunc func(ctx context.Context, baseURL string) ([]byte, error)

// Fleet is one member's handle on the cluster: the member list, this
// member's place in it, liveness, and the transports it fans out through.
// The server holds one (nil when standalone); every method is nil-safe, so
// single-node behaviour is untouched. Build it with NewFleet and share it
// by pointer.
type Fleet struct {
	// Members is every member's base URL, Self included, sorted and
	// distinct.
	Members []string
	// Self is this process's own base URL; it is one of Members.
	Self string
	// Health tracks peer liveness, so fan-outs skip members that probes
	// marked dead; may be nil (every member presumed alive).
	Health *Health
	// Invalidate is the transport for fan-out invalidation; may be nil
	// (invalidation then applies locally only).
	Invalidate InvalidateFunc
	// Status is the transport for the overview fan-out; may be nil (the
	// overview then reports peers as unreachable, never errors).
	Status StatusFunc
}

// NewFleet returns self's handle on the fleet of members, with Members a
// sorted copy of the list. The list must name at least one member, none
// empty or twice, and self must be one of them: a repeated member almost
// certainly means a typo in a deploy config, so it is refused rather than
// run with a membership the operator did not write.
func NewFleet(members []string, self string) (*Fleet, error) {
	sorted := slices.Clone(members)
	slices.Sort(sorted)
	for i, m := range sorted {
		if m == "" {
			return nil, fmt.Errorf("cluster: empty member")
		}
		if i > 0 && m == sorted[i-1] {
			return nil, fmt.Errorf("cluster: member %q listed more than once", m)
		}
	}
	if _, found := slices.BinarySearch(sorted, self); !found {
		return nil, fmt.Errorf("cluster: self %q is not one of the members %q", self, members)
	}
	return &Fleet{Members: sorted, Self: self}, nil
}

// Stop ends the fleet's probe loop.
func (f *Fleet) Stop() {
	if f == nil {
		return
	}
	f.Health.Stop()
}

// LiveMembers returns the members (excluding self) currently believed
// alive — the fan-out set for invalidation.
func (f *Fleet) LiveMembers() []string {
	if f == nil {
		return nil
	}
	var out []string
	for _, m := range f.Members {
		if m != f.Self && f.Health.Alive(m) {
			out = append(out, m)
		}
	}
	return out
}
