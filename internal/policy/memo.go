package policy

import (
	"context"

	"sync/atomic"

	"scratchmem/internal/layer"
)

// LayerKey is the canonical shape identity of a layer: every geometric
// field the estimators read, and nothing else — in particular not the
// name. The estimators are pure functions of (shape, options, config), so
// identically-shaped layers (ResNet's repeated basic blocks, MobileNet's
// depthwise stacks) share one key and one cached estimate.
type LayerKey struct {
	Kind                        layer.Type
	IH, IW, CI, FH, FW, F, S, P int
}

// KeyOf extracts the shape key of l.
func KeyOf(l *layer.Layer) LayerKey {
	return LayerKey{Kind: l.Kind, IH: l.IH, IW: l.IW, CI: l.CI,
		FH: l.FH, FW: l.FW, F: l.F, S: l.S, P: l.P}
}

// memoKey identifies one estimator invocation completely: the layer shape,
// the policy, the variant options, the full accelerator configuration and
// the filter-block mode. Two invocations with equal keys return equal
// Results (up to the layer name, which the table strips on store and
// patches back on hit).
type memoKey struct {
	shape LayerKey
	id    ID
	opts  Options
	cfg   Config
	// n is the forced filter-block size (EstimateN), 0 for policies
	// without a block size, or memoAutoN for Estimate's auto-selection.
	n int64
}

// memoAutoN marks Estimate's auto-selected block size in the key; the
// selection is itself a pure function of (shape, options, config), so the
// sentinel is unambiguous.
const memoAutoN = int64(-1)

// memoBuckets sizes the table's fixed bucket array. One planning run
// touches at most a few thousand distinct keys (unique shapes × policy
// variants × ladder rungs), so 1024 buckets keep chains a handful long
// while the zeroed array costs one allocation in NewMemo.
const memoBuckets = 1024

// memoEntry is one stored estimate. Entries are immutable once published
// and chain off their bucket head, so readers need no lock: a bucket probe
// is one atomic pointer load plus a short walk, and the publishing CAS
// gives the reader a happens-before edge to the entry's fields.
type memoEntry struct {
	key  memoKey
	r    Result
	next *memoEntry
}

// memoBlockLen sizes the entry arena's blocks: one mid-size allocation
// amortised over sixteen stores instead of sixteen small ones.
const memoBlockLen = 16

// memoBlock is a chunk of entry storage. Slots are claimed with an atomic
// counter and never freed individually — the table only grows, and the
// whole arena dies with it — so claimed entries stay address-stable for
// the bucket chains.
type memoBlock struct {
	used atomic.Int64
	e    [memoBlockLen]memoEntry
}

// Memo is a concurrency-safe estimate table. One table is shared across a
// whole planning run (core.Planner and the degradation-ladder copies made
// from it), so the dynamic program's (resident, keep) re-probes and every
// repeated layer shape cost one estimation and then a lock-free probe.
//
// A nil *Memo is valid and computes directly, so call sites never need a
// nil check; that nil path is also the sequential reference the golden
// equivalence tests compare against.
type Memo struct {
	hits, misses, count atomic.Int64
	// companion holds one opaque caller-attached cache (see Companion).
	companion atomic.Value
	// buckets is allocated on first store: a planner that never probes the
	// estimate table (the heterogeneous path caches whole sweeps in its
	// companion instead) pays nothing for it.
	buckets atomic.Pointer[[memoBuckets]atomic.Pointer[memoEntry]]
	blk     atomic.Pointer[memoBlock]
}

// alloc claims one entry slot from the current block, starting a new block
// when the current one is exhausted. A slot claimed by a store that then
// loses a duplicate race is abandoned — blocks are bulk storage, not a
// free list.
func (m *Memo) alloc() *memoEntry {
	for {
		b := m.blk.Load()
		if b != nil {
			if i := b.used.Add(1) - 1; i < memoBlockLen {
				return &b.e[i]
			}
		}
		m.blk.CompareAndSwap(b, &memoBlock{})
	}
}

// Companion returns the opaque cache attached to this table, installing
// create()'s result on first use (first installer wins under a race). The
// core planner uses it to hang its per-layer winner cache off the same
// lifetime as the estimate table, so "share one memo" also means "share
// every cached planning decision" without this package importing core.
func (m *Memo) Companion(create func() any) any {
	if c := m.companion.Load(); c != nil {
		return c
	}
	c := create()
	if m.companion.CompareAndSwap(nil, c) {
		return c
	}
	return m.companion.Load()
}

// NewMemo returns an empty table. A table lives for one planning run or
// one batch of runs and is never bounded: no table outlives the work that
// filled it, so its size is that work's distinct keys.
func NewMemo() *Memo { return &Memo{} }

// MemoStats is a point-in-time snapshot of the table's counters. Entries
// is one table's size; sums over many tables (the server's counters) leave
// it zero.
type MemoStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries,omitempty"`
}

// CountHit folds one companion-cache hit into the memo's counters, so the
// tiered caches attached via Companion (the planner's per-layer winner and
// sweep-row tables) and the estimate table itself report one efficacy
// figure. Nil-safe.
func (m *Memo) CountHit() {
	if m != nil {
		m.hits.Add(1)
	}
}

// CountMiss is CountHit for companion-cache misses. Nil-safe.
func (m *Memo) CountMiss() {
	if m != nil {
		m.misses.Add(1)
	}
}

// Stats snapshots the hit/miss counters and entry count. Nil-safe.
func (m *Memo) Stats() MemoStats {
	if m == nil {
		return MemoStats{}
	}
	return MemoStats{
		Hits:    m.hits.Load(),
		Misses:  m.misses.Load(),
		Entries: int(m.count.Load()),
	}
}

// Estimate is the memoized form of Estimate, with EstimateFast's sweep
// contract: feasible results are byte-identical to Estimate's, infeasible
// ones carry the identifying and capacity fields only. Nil receivers
// compute directly (the full, unmemoized Estimate).
func (m *Memo) Estimate(l *layer.Layer, id ID, o Options, cfg Config) Result {
	var r Result
	m.EstimateInto(&r, l, id, o, cfg)
	return r
}

// EstimateInto is Estimate writing its result in place, sparing the
// homogeneous sweep's hot path a Result copy per probe.
func (m *Memo) EstimateInto(e *Result, l *layer.Layer, id ID, o Options, cfg Config) {
	if m == nil {
		*e = Estimate(l, id, o, cfg)
		return
	}
	n := int64(0)
	if id == P4PartialIfmap || id == P5PartialPerChannel {
		n = memoAutoN
	}
	k := memoKey{shape: KeyOf(l), id: id, opts: o, cfg: cfg, n: n}
	h := k.hash()
	if r := m.lookup(&k, h); r != nil {
		*e = *r
		e.Layer = l.Name
		return
	}
	sh := NewShape(l, cfg.IncludePadding)
	sh.EstimateFastInto(e, id, o, cfg)
	if !e.Feasible {
		// e may carry a previous probe's traffic fields (the Into sweep
		// contract); scrub them so the stored entry honours Estimate's
		// zero-fields guarantee for infeasible results.
		e.IfmapLoads, e.FilterLoads = 0, 0
		e.AccessIfmap, e.AccessFilter, e.AccessOfmap = 0, 0, 0
		e.AccessElems, e.AccessBytes = 0, 0
		e.ComputeCycles, e.TransferCycles, e.LatencyCycles = 0, 0, 0
	}
	m.store(&k, h, e)
}

// EstimateN is the memoized form of EstimateN. The key uses the same
// block-size normalisation as the estimator, so forcing n on a policy that
// ignores it shares the entry with the unforced call.
func (m *Memo) EstimateN(l *layer.Layer, id ID, o Options, cfg Config, n int64) Result {
	if m == nil {
		return EstimateN(l, id, o, cfg, n)
	}
	switch {
	case id != P4PartialIfmap && id != P5PartialPerChannel:
		n = 0
	case l.Kind == layer.DepthwiseConv || n < 1:
		n = 1
	}
	k := memoKey{shape: KeyOf(l), id: id, opts: o, cfg: cfg, n: n}
	h := k.hash()
	if e := m.lookup(&k, h); e != nil {
		r := *e
		r.Layer = l.Name
		return r
	}
	r := EstimateN(l, id, o, cfg, n)
	m.store(&k, h, &r)
	return r
}

// Fallback is the memoized form of FallbackEstimate.
func (m *Memo) Fallback(l *layer.Layer, o Options, cfg Config) Result {
	if m == nil {
		return FallbackEstimate(l, o, cfg)
	}
	k := memoKey{shape: KeyOf(l), id: FallbackTiled, opts: o, cfg: cfg}
	h := k.hash()
	if e := m.lookup(&k, h); e != nil {
		r := *e
		r.Layer = l.Name
		return r
	}
	r := FallbackEstimate(l, o, cfg)
	m.store(&k, h, &r)
	return r
}

// lookup returns the stored result for k, or nil. The pointee is shared
// and immutable; callers copy it (patching the layer name on the copy).
func (m *Memo) lookup(k *memoKey, h uint64) *Result {
	t := m.buckets.Load()
	if t == nil {
		m.misses.Add(1)
		return nil
	}
	b := &t[h&(memoBuckets-1)]
	for e := b.Load(); e != nil; e = e.next {
		if e.key == *k {
			m.hits.Add(1)
			return &e.r
		}
	}
	m.misses.Add(1)
	return nil
}

func (m *Memo) store(k *memoKey, h uint64, r *Result) {
	t := m.buckets.Load()
	if t == nil {
		nt := new([memoBuckets]atomic.Pointer[memoEntry])
		if !m.buckets.CompareAndSwap(nil, nt) {
			t = m.buckets.Load()
		} else {
			t = nt
		}
	}
	e := m.alloc()
	e.key, e.r = *k, *r
	e.r.Layer = "" // the key is name-free; hits patch the caller's name back
	b := &t[h&(memoBuckets-1)]
	for {
		head := b.Load()
		// A racer may have published the key since our lookup; equal keys
		// carry equal values, so skip the duplicate to keep chains and the
		// entry count tight.
		for dup := head; dup != nil; dup = dup.next {
			if dup.key == *k {
				return
			}
		}
		e.next = head
		if b.CompareAndSwap(head, e) {
			m.count.Add(1)
			return
		}
	}
}

// hash mixes every key field FNV-1a style; shard selection and the shard
// map consume it, so distribution matters more than avalanche quality.
func (k *memoKey) hash() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	h = (h ^ uint64(k.shape.Kind)) * prime
	h = (h ^ uint64(k.shape.IH)) * prime
	h = (h ^ uint64(k.shape.IW)) * prime
	h = (h ^ uint64(k.shape.CI)) * prime
	h = (h ^ uint64(k.shape.FH)) * prime
	h = (h ^ uint64(k.shape.FW)) * prime
	h = (h ^ uint64(k.shape.F)) * prime
	h = (h ^ uint64(k.shape.S)) * prime
	h = (h ^ uint64(k.shape.P)) * prime
	h = (h ^ uint64(k.id)) * prime
	var ob uint64
	if k.opts.Prefetch {
		ob |= 1
	}
	if k.opts.ResidentIfmap {
		ob |= 2
	}
	if k.opts.KeepOfmap {
		ob |= 4
	}
	if k.cfg.IncludePadding {
		ob |= 8
	}
	h = (h ^ ob) * prime
	h = (h ^ uint64(k.cfg.GLBBytes)) * prime
	h = (h ^ uint64(k.cfg.DataWidthBits)) * prime
	h = (h ^ uint64(k.cfg.OpsPerCycle)) * prime
	h = (h ^ uint64(k.cfg.DRAMBytesPerCycle)) * prime
	h = (h ^ uint64(k.cfg.Batch)) * prime
	h = (h ^ uint64(k.n)) * prime
	return h
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
