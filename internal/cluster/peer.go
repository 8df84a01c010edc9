package cluster

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"scratchmem/internal/breaker"
	"scratchmem/internal/faultinject"
	"scratchmem/internal/obs"
	"scratchmem/internal/plancache"
)

// Transport carries one peer cache-fill to a ring member. The concrete
// implementation lives in the client package (retry/backoff, typed errors);
// cluster only sees this interface, keeping the import graph acyclic
// (client imports server imports cluster).
type Transport interface {
	// Fill asks the member at base URL to produce the value for request
	// and returns its canonical response body.
	Fill(ctx context.Context, baseURL string, request any) ([]byte, error)
}

// TransportFunc adapts a function to the Transport interface.
type TransportFunc func(ctx context.Context, baseURL string, request any) ([]byte, error)

func (f TransportFunc) Fill(ctx context.Context, baseURL string, request any) ([]byte, error) {
	return f(ctx, baseURL, request)
}

// PeerStats counts peer-fill outcomes. Fleet tests and the /metrics
// endpoint read these to prove a plan was computed exactly once; the JSON
// shape is the "peer" object of GET /v1/cluster/status.
type PeerStats struct {
	// OwnerSelf counts keys this member owned (no fill attempted).
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

// PeerOptions tunes a Peer. The zero value selects the breaker defaults.
type PeerOptions struct {
	// BreakerThreshold and BreakerCooldown configure the per-member
	// circuit breaker (breaker.New semantics: 0 selects the default,
	// threshold < 0 disables breaking).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Health, when set, lets Do skip known-dead owners without a
	// round-trip. nil means every member is presumed alive.
	Health *Health
	// Lookup, when set, lets Do ask the key's ring successor for an
	// already-cached replica (never a compute) after the owner is dead or
	// failed. nil disables the successor fallback.
	Lookup LookupFunc
}

// Peer routes cache misses to each key's ring owner before computing
// locally. The owner runs the computation under its own single-flight, so
// concurrent fleet-wide requests for one key collapse onto one planner
// execution. A verified owner fill or successor replica is stored in this
// member's plan cache like any other plan, so a repeat is a local hit with
// no round trip. Any fill failure degrades to computing locally —
// availability over dedup.
type Peer struct {
	cache     *plancache.Cache
	ring      *Ring
	self      string
	transport Transport
	opts      PeerOptions

	mu       sync.Mutex
	breakers map[string]*breaker.Breaker

	ownerSelf atomic.Int64
	hit       atomic.Int64
	errs      atomic.Int64
	bad       atomic.Int64
	open      atomic.Int64
	dead      atomic.Int64
	succHit   atomic.Int64
}

// NewPeer builds a Peer that stores into cache. self must be a ring member
// and names this process's own base URL, so it can recognise the keys it
// owns.
func NewPeer(cache *plancache.Cache, ring *Ring, self string, t Transport, opts PeerOptions) *Peer {
	return &Peer{
		cache:     cache,
		ring:      ring,
		self:      self,
		transport: t,
		opts:      opts,
		breakers:  make(map[string]*breaker.Breaker),
	}
}

// Ring returns the member ring.
func (p *Peer) Ring() *Ring { return p.ring }

// PeerStats snapshots the fill counters.
func (p *Peer) PeerStats() PeerStats {
	return PeerStats{
		OwnerSelf: p.ownerSelf.Load(),
		Hit:       p.hit.Load(),
		Error:     p.errs.Load(),
		Bad:       p.bad.Load(),
		Open:      p.open.Load(),
		Dead:      p.dead.Load(),
		SuccHit:   p.succHit.Load(),
	}
}

// Do implements Backend. Owned keys (and keys without a FillSpec) go
// straight to the local single-flight; for the rest the owner is asked
// first, then its ring successor, with every failure mode falling back to
// local compute.
func (p *Peer) Do(ctx context.Context, key string, spec *FillSpec, fn Fill) (any, bool, error) {
	owner := p.ring.Owner(key)
	if owner == p.self {
		p.ownerSelf.Add(1)
		return p.cache.Do(ctx, key, fn)
	}
	if spec == nil {
		// Local-only keys (simulations, sweeps, traces) never cross the
		// network even when another member nominally owns them.
		return p.cache.Do(ctx, key, fn)
	}
	// A non-owned key may already be stored here (an earlier fill, a
	// received replica, a warm restore): serve it without a round-trip.
	if v, ok := p.cache.Get(key); ok {
		return v, true, nil
	}
	var v any
	ok := false
	if p.opts.Health.Alive(owner) {
		v, ok = p.fill(ctx, key, owner, spec)
	} else {
		// Health probes already know the owner is down: skip the
		// round-trip (and the breaker round-trip) entirely.
		p.dead.Add(1)
	}
	if !ok {
		// The owner is dead or its fill failed; its ring successor may hold
		// the replica the owner pushed before dying — a cached-only ask, so
		// a miss there never costs a duplicate planner run.
		v, ok = p.lookupSuccessor(ctx, key, owner, spec)
	}
	if ok {
		p.cache.Put(key, v)
		return v, true, nil
	}
	// The caller may have gone away while the fill failed; don't burn a
	// planner run for a dead request.
	if ctx.Err() != nil {
		return nil, false, ctx.Err()
	}
	return p.cache.Do(ctx, key, fn)
}

// lookupSuccessor asks key's ring successor for an already-cached replica.
// Strictly best-effort: any miss, transport failure or decode failure
// reports ok=false and the caller computes locally. Successor lookups are
// cached-only on the remote side, so they are deliberately outside the
// breaker: a miss is not a member failure.
func (p *Peer) lookupSuccessor(ctx context.Context, key, owner string, spec *FillSpec) (any, bool) {
	if p.opts.Lookup == nil {
		return nil, false
	}
	succ, ok := p.ring.Successor(key)
	if !ok || succ == p.self || succ == owner || !p.opts.Health.Alive(succ) {
		return nil, false
	}
	ctx, span := obs.StartSpan(ctx, "peer_successor_lookup")
	span.SetAttr("key", key)
	span.SetAttr("successor", succ)
	defer span.End()
	body, err := p.opts.Lookup(ctx, succ, spec.Request)
	if err != nil {
		span.SetAttr("outcome", "miss")
		span.SetAttr("error", err.Error())
		return nil, false
	}
	v, err := spec.Decode(body)
	if err != nil {
		p.bad.Add(1)
		span.SetAttr("outcome", "bad")
		span.SetAttr("error", err.Error())
		return nil, false
	}
	p.succHit.Add(1)
	span.SetAttr("outcome", "hit")
	span.SetAttr("bytes", len(body))
	return v, true
}

// fill attempts one peer round-trip. ok reports a decoded value; false
// means "fall back to the successor, then to local compute".
func (p *Peer) fill(ctx context.Context, key, owner string, spec *FillSpec) (any, bool) {
	ctx, span := obs.StartSpan(ctx, "peer_fill")
	span.SetAttr("key", key)
	span.SetAttr("owner", owner)
	outcome := "error"
	defer func() {
		span.SetAttr("outcome", outcome)
		span.End()
	}()

	br := p.breakerFor(owner)
	if !br.Allow() {
		p.open.Add(1)
		outcome = "open"
		return nil, false
	}
	if ferr := faultinject.Hit("cluster.peer"); ferr != nil {
		br.Failure()
		p.errs.Add(1)
		return nil, false
	}
	body, terr := p.transport.Fill(ctx, owner, spec.Request)
	if terr != nil {
		br.Failure()
		p.errs.Add(1)
		span.SetAttr("error", terr.Error())
		return nil, false
	}
	br.Success()
	span.SetAttr("bytes", len(body))
	v, derr := spec.Decode(body)
	if derr != nil {
		// The owner answered but with a plan this build would not have
		// produced (version skew) or an unparsable body. The member is
		// healthy — don't open its breaker — but its answer is unusable.
		p.bad.Add(1)
		outcome = "bad"
		span.SetAttr("error", derr.Error())
		return nil, false
	}
	p.hit.Add(1)
	outcome = "hit"
	return v, true
}

func (p *Peer) breakerFor(owner string) *breaker.Breaker {
	p.mu.Lock()
	defer p.mu.Unlock()
	br, ok := p.breakers[owner]
	if !ok {
		br = breaker.New(p.opts.BreakerThreshold, p.opts.BreakerCooldown)
		p.breakers[owner] = br
	}
	return br
}
