package core

import (
	"context"
	"sync"

	"scratchmem/internal/layer"
	"scratchmem/internal/policy"
)

// Per-call planning scratch — the sweep table, DP tables, the homogeneous
// search's dedup/contribution rows — is recycled through sync.Pools so
// steady-state serving stops paying an allocation per request. Nothing here
// changes what the planner computes: every pooled structure is fully
// (re)initialised before use, and a batch's shared sweep tables are
// allocated outside the pools.

// sweepKey is one per-layer question of a planning call: a layer shape
// under the inter-layer flags, asked of the call's candidate sweep or, with
// fallback set, of fallback tiling alone. A table serves one knob set
// (tableKnobs), so no planner knob is part of the key; keeping the key
// small keeps map inserts allocation-free.
type sweepKey struct {
	shape                    policy.LayerKey
	resident, keep, fallback bool
}

// nodeEstimator writes the winning estimate for one layer under the given
// inter-layer flags: the sweep a sweepTable runs on a miss. Implementations
// must be pure functions of the layer's shape and the flags.
type nodeEstimator func(e *policy.Result, l *layer.Layer, resident, keep bool)

// sweepTable answers each per-layer question once: repeated layer shapes
// and the inter-layer DP's (resident, keep) re-probes become map probes.
// The sweeps are pure functions of (shape, flags, planner knobs), so a kept
// answer is exactly what a fresh sweep would return. A table holds the
// answers of one knob set: a planning call's own pooled table, or the table
// a SweepTables shares between the calls of one batch, which the mutex
// lets answer from several goroutines. A nil table sweeps every question —
// the reference path.
type sweepTable struct {
	mu     sync.Mutex
	at     map[sweepKey]int32 // question -> index into wins
	wins   []policy.Result
	shared bool // a SweepTables' table: never pooled
}

// answer writes the answer to one question about l into e: the table's
// copy when it holds one, otherwise sweep's, which the table keeps. Keys
// are name-free, so l's name is patched onto the result. sweep must not
// consult t: it writes into the table's own slot, never into e, because a
// pointer handed to a function value escapes and e is usually a caller's
// stack variable. The sweep runs under the lock, so each question of a
// shared table is swept once; the deferred unlock keeps a panicking sweep
// from leaving the table locked.
func (t *sweepTable) answer(e *policy.Result, l *layer.Layer, resident, keep, fallback bool, sweep nodeEstimator) {
	if t == nil {
		var r policy.Result
		sweep(&r, l, resident, keep)
		*e = r
	} else {
		k := sweepKey{shape: policy.KeyOf(l), resident: resident, keep: keep, fallback: fallback}
		t.mu.Lock()
		defer t.mu.Unlock()
		i, ok := t.at[k]
		if !ok {
			i = int32(len(t.wins))
			t.wins = append(t.wins, policy.Result{})
			sweep(&t.wins[i], l, resident, keep)
			t.at[k] = i
		}
		*e = t.wins[i]
	}
	e.Layer = l.Name
}

// tableKnobs is everything sweepLayer and sweepFallback read besides the
// question. InterLayer and InterLayerGreedy change which questions a call
// asks, not their answers, so they are not knobs of a table.
type tableKnobs struct {
	cfg             policy.Config
	objective       Objective
	disablePrefetch bool
}

// SweepTables lets the planning calls of one batch share sweep tables: one
// table per knob set, so a question any of them asks is swept once for
// all. Calls find it through their context (WithSweepTables). Its tables
// are never pooled, because a call may outlive the batch that made them:
// they are freed with the last call that holds the set. The zero value is
// an empty set.
type SweepTables struct {
	mu sync.Mutex
	by map[tableKnobs]*sweepTable
}

type sweepTablesKey struct{}

// WithSweepTables returns a context whose planning calls answer through s.
func WithSweepTables(ctx context.Context, s *SweepTables) context.Context {
	return context.WithValue(ctx, sweepTablesKey{}, s)
}

// sweepTableFor returns the table a planning call under ctx answers
// through: its knob set's table when ctx carries a SweepTables, otherwise a
// pooled table of its own. Hand it back with sweepTablePut.
func (pl *Planner) sweepTableFor(ctx context.Context) *sweepTable {
	s, _ := ctx.Value(sweepTablesKey{}).(*SweepTables)
	if s == nil {
		return sweepTableGet()
	}
	k := tableKnobs{cfg: pl.Cfg, objective: pl.Objective, disablePrefetch: pl.DisablePrefetch}
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.by[k]
	if t == nil {
		if s.by == nil {
			s.by = make(map[tableKnobs]*sweepTable)
		}
		t = &sweepTable{at: make(map[sweepKey]int32, 64), shared: true}
		s.by[k] = t
	}
	return t
}

// maxPooledAnswers bounds the tables the pool keeps: emptying a table costs
// time in proportion to the largest call it ever served, so one huge
// network must not tax every later plan. The largest builtin call asks 129
// questions (MnasNet's inter-layer plan from 592 kB up), so every builtin's
// table is pooled.
const maxPooledAnswers = 256

var sweepTablePool = sync.Pool{
	New: func() any { return &sweepTable{at: make(map[sweepKey]int32, 64)} },
}

func sweepTableGet() *sweepTable { return sweepTablePool.Get().(*sweepTable) }

// sweepTablePut returns a call's own table to the pool; a shared table
// stays with its SweepTables.
func sweepTablePut(t *sweepTable) {
	if t.shared || len(t.wins) > maxPooledAnswers {
		return
	}
	clear(t.at)
	t.wins = t.wins[:0]
	sweepTablePool.Put(t)
}

var dpTablePool sync.Pool

// dpTableGet returns a DP table with at least n rows. Rows are NOT zeroed:
// interLayerDP overwrites every row it reads.
func dpTableGet(n int) [][2]dpCell {
	if v := dpTablePool.Get(); v != nil {
		if dp := v.([][2]dpCell); cap(dp) >= n {
			return dp[:n]
		}
	}
	return make([][2]dpCell, n)
}

func dpTablePut(dp [][2]dpCell) {
	dpTablePool.Put(dp[:cap(dp)]) //nolint:staticcheck // slice header, one pointer
}

// homScratch is BestHomogeneousCtx's per-call working set.
type homScratch struct {
	shapeIdx []int // layer -> dense shape index
	repLayer []int // shape index -> representative layer
	idxOf    map[policy.LayerKey]int
	contribs []homContribs
}

var homScratchPool = sync.Pool{
	New: func() any {
		return &homScratch{idxOf: make(map[policy.LayerKey]int, 16)}
	},
}

// homScratchGet returns a scratch sized for L layers with shapeIdx live,
// repLayer/contribs empty and idxOf cleared.
func homScratchGet(L int) *homScratch {
	hs := homScratchPool.Get().(*homScratch)
	if cap(hs.shapeIdx) < L {
		hs.shapeIdx = make([]int, L)
	}
	hs.shapeIdx = hs.shapeIdx[:L]
	hs.repLayer = hs.repLayer[:0]
	hs.contribs = hs.contribs[:0]
	clear(hs.idxOf)
	return hs
}

func homScratchPut(hs *homScratch) { homScratchPool.Put(hs) }
