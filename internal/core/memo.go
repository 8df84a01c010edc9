package core

import (
	"context"
	"sync"

	"scratchmem/internal/policy"
)

// bestKey identifies one bestForLayer (or bestFallback) question
// completely: the layer shape, the full accelerator configuration, the
// planner knobs that shape the candidate set, and the inter-layer variant.
// The objective is deliberately absent — one candidate sweep computes the
// winner under both objectives (see bestPair) — so an access-objective
// planner and a latency-objective planner sharing one memo (the figure
// drivers, one server batch) also share every per-layer decision.
//
// Cfg and the flags live in the key rather than being assumed constant:
// the degradation ladder plans with copies of the Planner that share this
// memo but flip DisablePrefetch, and some experiment drivers mutate Cfg
// (e.g. Batch) between runs.
type bestKey struct {
	shape      policy.LayerKey
	cfg        policy.Config
	noPrefetch bool
	fallback   bool // bestFallback rather than bestForLayer
	resident   bool
	keep       bool
}

// bestPair is the winning estimate under each objective, indexed by
// Objective (MinAccesses = 0, MinLatency = 1). Candidate feasibility does
// not depend on the objective, so a single sweep fills both slots; when
// nothing fits, both slots carry the same infeasible fallback report.
type bestPair [2]policy.Result

// homKey identifies one homogeneous-sweep question: what does a layer of
// this shape contribute to the network totals under every (policy,
// ±prefetch) variant? The variant list is a pure function of noPrefetch,
// so the per-variant contributions can live in one fixed array keyed by
// variant index (see homContribs).
type homKey struct {
	shape      policy.LayerKey
	cfg        policy.Config
	noPrefetch bool
}

// maxHomVariants bounds the homogeneous candidate set: every policy with
// and without prefetching.
const maxHomVariants = 2 * policy.NumPolicies

// homContrib is one (shape, variant) cell of the sweep: the totals a
// layer of this shape adds under that variant, or the fallback's
// footprint when even it does not fit (the infeasibility report needs it).
type homContrib struct {
	acc, lat, need int64
	ok             bool
}

// homContribs is the dense per-variant contribution row for one shape,
// indexed by position in homVariants' deterministic order.
type homContribs [maxHomVariants]homContrib

// Memo is the table of candidate sweeps shared across one planning run
// (a Planner and the degradation-ladder copies made from it) or one batch
// of runs: each per-layer winner question and each homogeneous sweep row
// is answered once and then looked up, so the inter-layer DP's
// (resident, keep) re-probes, repeated layer shapes and a sibling planner
// with the other objective cost one map probe. The estimators are pure
// functions of (shape, options, config), so a stored answer is exactly
// what a fresh sweep would return.
//
// A Memo is safe for concurrent use: sweeps run outside the lock and
// publish their answer under it. A nil *Memo stores nothing and counts
// nothing, so every question is swept afresh — the sequential reference
// the golden equivalence tests compare against.
type Memo struct {
	mu   sync.Mutex
	best map[bestKey]*bestPair
	hom  map[homKey]*homContribs
	// slab is bulk storage for best's pairs: one allocation per
	// memoSlabLen stores instead of one per store.
	slab         []bestPair
	hits, misses int64
}

// memoSlabLen and memoBestHint size the table for one plan of a typical
// network (tens of distinct layer shapes, up to four inter-layer variants
// each) without regrowth; a batch grows it as needed.
const (
	memoSlabLen  = 16
	memoBestHint = 32
)

// NewMemo returns an empty table. A table lives for one planning run or
// one batch of runs and is never bounded: no table outlives the work that
// filled it, so its size is that work's distinct questions.
func NewMemo() *Memo { return &Memo{} }

// MemoStats is a point-in-time snapshot of a table's probe counters, or
// of their sums over many tables (the server's counters).
type MemoStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// Stats snapshots the hit/miss counters. Nil-safe.
func (m *Memo) Stats() MemoStats {
	if m == nil {
		return MemoStats{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return MemoStats{Hits: m.hits, Misses: m.misses}
}

// count records one probe's outcome; m.mu must be held.
func (m *Memo) count(hit bool) {
	if hit {
		m.hits++
	} else {
		m.misses++
	}
}

// winner returns the stored pair for k, or nil. The pointee is shared and
// immutable; callers copy the slot they need.
func (m *Memo) winner(k *bestKey) *bestPair {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	p := m.best[*k]
	m.count(p != nil)
	m.mu.Unlock()
	return p
}

// storeWinner publishes a copy of p under k. Equal keys carry equal pairs,
// so a racing duplicate may overwrite the first: readers holding either
// copy see the same answer.
func (m *Memo) storeWinner(k *bestKey, p *bestPair) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if m.best == nil {
		m.best = make(map[bestKey]*bestPair, memoBestHint)
	}
	if len(m.slab) == cap(m.slab) {
		m.slab = make([]bestPair, 0, memoSlabLen)
	}
	m.slab = append(m.slab, *p)
	m.best[*k] = &m.slab[len(m.slab)-1]
	m.mu.Unlock()
}

// row returns the stored sweep row for k, or nil. The pointee is shared
// and immutable.
func (m *Memo) row(k *homKey) *homContribs {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	r := m.hom[*k]
	m.count(r != nil)
	m.mu.Unlock()
	return r
}

// storeRow publishes a copy of r under k, as storeWinner does.
func (m *Memo) storeRow(k *homKey, r *homContribs) {
	if m == nil {
		return
	}
	c := new(homContribs)
	*c = *r
	m.mu.Lock()
	if m.hom == nil {
		m.hom = make(map[homKey]*homContribs)
	}
	m.hom[*k] = c
	m.mu.Unlock()
}

// memoCtxKey carries a *Memo through a context (see WithMemo).
type memoCtxKey struct{}

// WithMemo returns a context carrying m. The serving path uses this to
// hand each planning run a fresh table, or every run of one batch the
// same table; the façade's planner picks it up via MemoFrom, and the
// caller reads the table's Stats once the run or batch is done.
func WithMemo(ctx context.Context, m *Memo) context.Context {
	return context.WithValue(ctx, memoCtxKey{}, m)
}

// MemoFrom returns the Memo carried by ctx, or nil.
func MemoFrom(ctx context.Context) *Memo {
	m, _ := ctx.Value(memoCtxKey{}).(*Memo)
	return m
}
