// Package cluster turns N smm-serve processes into one logical planner.
//
// A plan is expensive to compute but tiny to store and perfectly
// content-addressed (the canonical SHA-256 PlanKey), so every plan should
// be computed exactly once fleet-wide. Each member keeps one single-flight
// plan cache (internal/plancache) and one Fleet handle. A plan-cache miss
// runs one flight per key, and inside it the server calls Fleet.Fetch:
// the key is consistent-hashed onto a static member Ring, and a member
// that does not own it asks the owner over POST /v1/peer/fill
// (groupcache-style: the owner runs the computation under its own
// single-flight, so concurrent fleet-wide requests for one key collapse
// onto one planner execution). The answer is stored in the asking
// member's plan cache like any computed plan, so repeated requests for a
// non-owned key stop crossing the network.
//
// Membership is static (the -peers flag), not gossip: fleet membership for
// a planning tier changes by deploy, and a static ring keeps owner
// placement deterministic across the fleet — every member computes the
// same owner for a key with no coordination protocol. When the owner is
// unreachable the non-owner degrades to computing locally (availability
// over dedup), guarded by a per-peer circuit breaker so a dead member
// costs one failed round-trip per cooldown, not per request.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// DefaultReplicas is how many virtual points each member contributes to
// the ring. 64 keeps the per-member load share within a few percent of
// uniform for small fleets while the ring stays a trivially searchable
// few-KB array.
const DefaultReplicas = 64

// Ring is a consistent-hash ring over a static member set. Hashing is
// deterministic (SHA-256) so every process configured with the same member
// list computes the same owner for every key, with no coordination.
// A Ring is immutable after construction and safe for concurrent use.
type Ring struct {
	members []string
	hashes  []uint64 // sorted virtual points
	owners  []string // owners[i] owns hashes[i]
}

// NewRing builds a ring over members (deduplicated, order-insensitive)
// with the given number of virtual points per member (DefaultReplicas
// when <= 0).
func NewRing(members []string, replicas int) (*Ring, error) {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	seen := make(map[string]bool, len(members))
	uniq := make([]string, 0, len(members))
	for _, m := range members {
		if m == "" {
			return nil, fmt.Errorf("cluster: empty ring member")
		}
		if !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	if len(uniq) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	sort.Strings(uniq)
	r := &Ring{
		members: uniq,
		hashes:  make([]uint64, 0, len(uniq)*replicas),
		owners:  make([]string, 0, len(uniq)*replicas),
	}
	type point struct {
		h     uint64
		owner string
	}
	pts := make([]point, 0, len(uniq)*replicas)
	for _, m := range uniq {
		for i := 0; i < replicas; i++ {
			pts = append(pts, point{h: hash64(fmt.Sprintf("%s#%d", m, i)), owner: m})
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].h < pts[j].h })
	for _, p := range pts {
		r.hashes = append(r.hashes, p.h)
		r.owners = append(r.owners, p.owner)
	}
	return r, nil
}

// Owner returns the member owning key: the one whose first virtual point
// clockwise of the key's hash position.
func (r *Ring) Owner(key string) string {
	h := hash64(key)
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0 // wrap around the ring
	}
	return r.owners[i]
}

// Successor returns the first member clockwise of key's owner that is not
// the owner itself: the natural home for a durable replica of the owner's
// copy, because a ring that loses the owner re-assigns the key's arc to
// exactly this member. ok is false for single-member rings, which have
// nobody to replicate to.
func (r *Ring) Successor(key string) (succ string, ok bool) {
	if len(r.members) < 2 {
		return "", false
	}
	h := hash64(key)
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0
	}
	owner := r.owners[i]
	for j := 1; j < len(r.hashes); j++ {
		if o := r.owners[(i+j)%len(r.hashes)]; o != owner {
			return o, true
		}
	}
	return "", false
}

// Members returns the (sorted, deduplicated) member set.
func (r *Ring) Members() []string {
	out := make([]string, len(r.members))
	copy(out, r.members)
	return out
}

// Shares returns each member's fraction of the ring's hash space — the
// expected share of uniformly hashed keys it owns. Shares sum to ~1 and
// every member appears; the overview endpoint renders them so an operator
// can see placement skew without sampling keys.
func (r *Ring) Shares() map[string]float64 {
	out := make(map[string]float64, len(r.members))
	for _, m := range r.members {
		out[m] = 0
	}
	n := len(r.hashes)
	const space = float64(math.MaxUint64)
	for i := 0; i < n; i++ {
		// The arc (hashes[i-1], hashes[i]] belongs to owners[i]; point 0
		// additionally owns the wraparound arc past the last point.
		var arc float64
		if i == 0 {
			arc = float64(r.hashes[0]) + (space - float64(r.hashes[n-1]))
		} else {
			arc = float64(r.hashes[i] - r.hashes[i-1])
		}
		out[r.owners[i]] += arc / space
	}
	return out
}

// hash64 maps a string onto the ring's coordinate space. SHA-256 keeps the
// virtual points well spread and — unlike maphash — is stable across
// processes, which is the whole point: every fleet member must agree on
// every key's position.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}
