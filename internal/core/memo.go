package core

import (
	"sync/atomic"

	"scratchmem/internal/policy"
)

// bestKey identifies one bestForLayer (or bestFallback) question
// completely: the layer shape, the full accelerator configuration, the
// planner knobs that shape the candidate set, and the inter-layer variant.
// The objective is deliberately absent — one candidate sweep computes the
// winner under both objectives (see bestPair) — so an access-objective
// planner and a latency-objective planner sharing one estimate memo (the
// figure drivers, one server batch) also share every per-layer decision.
//
// Cfg and the flags live in the key rather than being assumed constant:
// the degradation ladder plans with copies of the Planner that share this
// cache but flip DisablePrefetch, and some experiment drivers mutate Cfg
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

// bestBuckets sizes the winner cache's bucket array. One run sees at most
// a few hundred distinct (shape, config, variant) questions, far fewer
// than the estimate memo's keys, so a small table keeps chains short while
// costing little on the many short-lived planners the drivers create.
const bestBuckets = 256

// bestEntry is one cached winner pair, immutable once published.
type bestEntry struct {
	key  bestKey
	p    bestPair
	next *bestEntry
}

// bestBlockLen sizes the entry arena's blocks: entries are ~650 bytes, so
// a block is one mid-size allocation amortised over eight stores.
const bestBlockLen = 8

// bestBlock is a chunk of entry storage. Entries are claimed with an
// atomic counter; a block never frees individual entries (the whole cache
// dies together), so claimed slots stay address-stable for the chains.
type bestBlock struct {
	used atomic.Int64
	e    [bestBlockLen]bestEntry
}

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

// homBuckets sizes the sweep cache: one run sees at most a few hundred
// distinct (shape, config) rows.
const homBuckets = 128

// homEntry is one cached sweep row, immutable once published.
type homEntry struct {
	key  homKey
	c    homContribs
	next *homEntry
}

// bestCache memoizes per-layer winners and per-shape homogeneous-sweep
// rows. It attaches to the run's policy.Memo (see bestCacheFor) so every
// planner sharing that memo — the degradation ladder's relaxed rungs, the
// figure drivers' per-objective planners, the server's requests — shares
// one table, and the Planner itself stays trivially copyable (no embedded
// locks). Like the estimate memo it is a lock-free chained table: a probe
// is one atomic pointer load plus a short walk, and publication is a CAS
// prepend.
type bestCache struct {
	blk     atomic.Pointer[bestBlock]
	buckets [bestBuckets]atomic.Pointer[bestEntry]
	hom     [homBuckets]atomic.Pointer[homEntry]
}

// alloc claims one entry slot from the current block, starting a new block
// when the current one is exhausted. A slot claimed by a store that then
// detects a racing duplicate is simply abandoned — blocks are bulk
// storage, not a free list.
func (c *bestCache) alloc() *bestEntry {
	for {
		b := c.blk.Load()
		if b != nil {
			if i := b.used.Add(1) - 1; i < bestBlockLen {
				return &b.e[i]
			}
		}
		c.blk.CompareAndSwap(b, &bestBlock{})
	}
}

func newBestCache() *bestCache { return &bestCache{} }

// bestCacheFor returns the winner cache attached to m, installing one on
// first use. All planners sharing m get the same cache.
func bestCacheFor(m *policy.Memo) *bestCache {
	return m.Companion(func() any { return newBestCache() }).(*bestCache)
}

// hash mixes every key field FNV-1a style, mirroring memoKey.hash.
func (k *bestKey) hash() uint64 {
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
	var b uint64
	if k.cfg.IncludePadding {
		b |= 1
	}
	if k.noPrefetch {
		b |= 2
	}
	if k.fallback {
		b |= 4
	}
	if k.resident {
		b |= 8
	}
	if k.keep {
		b |= 16
	}
	h = (h ^ b) * prime
	h = (h ^ uint64(k.cfg.GLBBytes)) * prime
	h = (h ^ uint64(k.cfg.DataWidthBits)) * prime
	h = (h ^ uint64(k.cfg.OpsPerCycle)) * prime
	h = (h ^ uint64(k.cfg.DRAMBytesPerCycle)) * prime
	h = (h ^ uint64(k.cfg.Batch)) * prime
	return h
}

// hash mixes every key field FNV-1a style, mirroring bestKey.hash.
func (k *homKey) hash() uint64 {
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
	var b uint64
	if k.cfg.IncludePadding {
		b |= 1
	}
	if k.noPrefetch {
		b |= 2
	}
	h = (h ^ b) * prime
	h = (h ^ uint64(k.cfg.GLBBytes)) * prime
	h = (h ^ uint64(k.cfg.DataWidthBits)) * prime
	h = (h ^ uint64(k.cfg.OpsPerCycle)) * prime
	h = (h ^ uint64(k.cfg.DRAMBytesPerCycle)) * prime
	h = (h ^ uint64(k.cfg.Batch)) * prime
	return h
}

// homGet returns the cached sweep row, or nil. The pointee is shared and
// immutable.
func (c *bestCache) homGet(k *homKey) *homContribs {
	b := &c.hom[k.hash()&(homBuckets-1)]
	for e := b.Load(); e != nil; e = e.next {
		if e.key == *k {
			return &e.c
		}
	}
	return nil
}

// homPut publishes row under k. Sweep rows are small and rare enough that
// entries come straight from the heap rather than an arena.
func (c *bestCache) homPut(k *homKey, row *homContribs) {
	e := &homEntry{key: *k, c: *row}
	b := &c.hom[k.hash()&(homBuckets-1)]
	for {
		head := b.Load()
		for dup := head; dup != nil; dup = dup.next {
			if dup.key == *k {
				return
			}
		}
		e.next = head
		if b.CompareAndSwap(head, e) {
			return
		}
	}
}

// get returns the cached pair, or nil. The pointee is shared and must not
// be mutated; callers copy the slot they need.
func (c *bestCache) get(k *bestKey) *bestPair {
	b := &c.buckets[k.hash()&(bestBuckets-1)]
	for e := b.Load(); e != nil; e = e.next {
		if e.key == *k {
			return &e.p
		}
	}
	return nil
}

// put publishes p under k. Entries are immutable once published; a racing
// duplicate (equal keys carry equal pairs) is skipped to keep chains tight.
func (c *bestCache) put(k *bestKey, p *bestPair) {
	e := c.alloc()
	e.key, e.p = *k, *p
	e.p[0].Layer = "" // keys are name-free; hits patch the name back
	e.p[1].Layer = ""
	b := &c.buckets[k.hash()&(bestBuckets-1)]
	for {
		head := b.Load()
		for dup := head; dup != nil; dup = dup.next {
			if dup.key == *k {
				return
			}
		}
		e.next = head
		if b.CompareAndSwap(head, e) {
			return
		}
	}
}
