package cluster

import (
	"context"

	"scratchmem/internal/breaker"
	"scratchmem/internal/faultinject"
	"scratchmem/internal/obs"
)

// PeerStats counts peer-fill outcomes. Fleet tests and the /metrics
// endpoint read these to prove a plan was computed exactly once; the JSON
// shape is the "peer" object of GET /v1/cluster/status.
type PeerStats struct {
	// OwnerSelf counts Fetch calls for keys this member owns: one per
	// owned plan-cache miss, since the server fetches inside the miss's
	// flight. No fill is attempted for them.
	OwnerSelf int64 `json:"owner_self"`
	// Hit counts fills answered by the owner and successfully decoded.
	Hit int64 `json:"hit"`
	// Error counts fills that failed in transport (owner down, timeout).
	Error int64 `json:"error"`
	// Bad counts fills whose response failed to decode or verify
	// (version-skewed owner).
	Bad int64 `json:"bad"`
	// Open counts fills skipped because the owner's breaker was open.
	Open int64 `json:"open"`
	// Dead counts fills skipped because health probes marked the owner
	// dead (no round-trip attempted at all).
	Dead int64 `json:"dead"`
	// SuccHit counts values recovered from the key's ring successor after
	// the owner was dead or failed — the replication payoff.
	SuccHit int64 `json:"successor_hit"`
}

// PeerStats snapshots the fill counters (zero for a nil fleet).
func (f *Fleet) PeerStats() PeerStats {
	if f == nil {
		return PeerStats{}
	}
	return PeerStats{
		OwnerSelf: f.ownerSelf.Load(),
		Hit:       f.hit.Load(),
		Error:     f.errs.Load(),
		Bad:       f.bad.Load(),
		Open:      f.open.Load(),
		Dead:      f.dead.Load(),
		SuccHit:   f.succHit.Load(),
	}
}

// Fetch asks key's ring owner for the value of request, then, if the owner
// is dead or failed, the key's ring successor for a replica, and returns
// the first answer decode accepts. decode must verify the body (the server
// re-renders it, scratchmem.VerifyPlanDocument); a refused body counts as
// bad. ok is false when this member owns key, when request is nil (a fill
// served for a peer is never forwarded again, so rings that momentarily
// disagree cannot loop), or when neither member yields an answer: the
// caller then computes the value itself — availability over dedup.
//
// The server calls Fetch inside the plan cache's single-flight, so
// concurrent misses for one key on one member make one round trip, and an
// invalidation racing the fill tombstones it like any computation. ctx
// bounds the asks; the server passes the flight leader's deadline.
func (f *Fleet) Fetch(ctx context.Context, key string, request any, decode func(body []byte) (any, error)) (any, bool) {
	if f == nil {
		return nil, false
	}
	owner := f.Ring.Owner(key)
	if owner == f.Self {
		f.ownerSelf.Add(1)
		return nil, false
	}
	if request == nil {
		return nil, false
	}
	if f.Health.Alive(owner) {
		if v, ok := f.fill(ctx, key, owner, request, decode); ok {
			return v, true
		}
	} else {
		// Health probes already know the owner is down: skip the
		// round-trip (and the breaker round-trip) entirely.
		f.dead.Add(1)
	}
	// The owner is dead or its fill failed; its ring successor may hold the
	// replica the owner pushed before dying — a cached-only ask, so a miss
	// there never costs a duplicate planner run.
	return f.lookupSuccessor(ctx, key, owner, request, decode)
}

// lookupSuccessor asks key's ring successor for an already-cached replica.
// Strictly best-effort: any miss, transport failure or decode failure
// reports ok=false and the caller computes locally. Successor lookups are
// cached-only on the remote side, so they are deliberately outside the
// breaker: a miss is not a member failure.
func (f *Fleet) lookupSuccessor(ctx context.Context, key, owner string, request any, decode func([]byte) (any, error)) (any, bool) {
	if f.Lookup == nil {
		return nil, false
	}
	succ, ok := f.Ring.Successor(key)
	if !ok || succ == f.Self || succ == owner || !f.Health.Alive(succ) {
		return nil, false
	}
	ctx, span := obs.StartSpan(ctx, "peer_successor_lookup")
	span.SetAttr("key", key)
	span.SetAttr("successor", succ)
	defer span.End()
	body, err := f.Lookup(ctx, succ, request)
	if err != nil {
		span.SetAttr("outcome", "miss")
		span.SetAttr("error", err.Error())
		return nil, false
	}
	v, err := decode(body)
	if err != nil {
		f.bad.Add(1)
		span.SetAttr("outcome", "bad")
		span.SetAttr("error", err.Error())
		return nil, false
	}
	f.succHit.Add(1)
	span.SetAttr("outcome", "hit")
	span.SetAttr("bytes", len(body))
	return v, true
}

// fill attempts one owner round-trip. ok reports a decoded value; false
// means "fall back to the successor, then to local compute".
func (f *Fleet) fill(ctx context.Context, key, owner string, request any, decode func([]byte) (any, error)) (any, bool) {
	ctx, span := obs.StartSpan(ctx, "peer_fill")
	span.SetAttr("key", key)
	span.SetAttr("owner", owner)
	outcome := "error"
	defer func() {
		span.SetAttr("outcome", outcome)
		span.End()
	}()

	br := f.breakerFor(owner)
	if !br.Allow() {
		f.open.Add(1)
		outcome = "open"
		return nil, false
	}
	if ferr := faultinject.Hit("cluster.peer"); ferr != nil {
		br.Failure()
		f.errs.Add(1)
		return nil, false
	}
	body, terr := f.Fill(ctx, owner, request)
	if terr != nil {
		br.Failure()
		f.errs.Add(1)
		span.SetAttr("error", terr.Error())
		return nil, false
	}
	br.Success()
	span.SetAttr("bytes", len(body))
	v, derr := decode(body)
	if derr != nil {
		// The owner answered but with a plan this build would not have
		// produced (version skew) or an unparsable body. The member is
		// healthy — don't open its breaker — but its answer is unusable.
		f.bad.Add(1)
		outcome = "bad"
		span.SetAttr("error", derr.Error())
		return nil, false
	}
	f.hit.Add(1)
	outcome = "hit"
	return v, true
}

func (f *Fleet) breakerFor(owner string) *breaker.Breaker {
	f.mu.Lock()
	defer f.mu.Unlock()
	br, ok := f.breakers[owner]
	if !ok {
		if f.breakers == nil {
			f.breakers = make(map[string]*breaker.Breaker)
		}
		br = breaker.New(f.BreakerThreshold, f.BreakerCooldown)
		f.breakers[owner] = br
	}
	return br
}
