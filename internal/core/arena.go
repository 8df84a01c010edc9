package core

import (
	"sync"

	"scratchmem/internal/layer"
	"scratchmem/internal/policy"
)

// Per-call planning scratch — the sweep table, DP tables, the homogeneous
// search's dedup/contribution rows — is recycled through sync.Pools so
// steady-state serving stops paying an allocation per request. Nothing here
// changes what the planner computes: every pooled structure is fully
// (re)initialised before use, and anything captured beyond the call (a
// checkpoint's DP table) is allocated outside the pools.

// sweepKey is one per-layer question of a planning call: a layer shape
// under the inter-layer flags, asked of the call's candidate sweep or, with
// fallback set, of fallback tiling alone. A call's Cfg, objective and
// prefetch set are fixed, so none of them is part of the key.
type sweepKey struct {
	shape                    policy.LayerKey
	resident, keep, fallback bool
}

// nodeEstimator writes the winning estimate for one layer under the given
// inter-layer flags: the sweep a sweepTable runs on a miss. Implementations
// must be pure functions of the layer's shape and the flags.
type nodeEstimator func(e *policy.Result, l *layer.Layer, resident, keep bool)

// sweepTable answers each per-layer question of one planning call once:
// repeated layer shapes and the inter-layer DP's (resident, keep) re-probes
// become map probes. The sweeps are
// pure functions of (shape, flags, planner knobs), so a kept answer is
// exactly what a fresh sweep would return. A table belongs to one call on
// one goroutine: it is never stored on the Planner, whose value copies (the
// degradation ladder's rungs) change knobs the key omits. A nil table
// sweeps every question — the reference path.
type sweepTable struct {
	at   map[sweepKey]int32 // question -> index into wins
	wins []policy.Result
}

// answer writes the answer to one question about l into e: the table's
// copy when it holds one, otherwise sweep's, which the table keeps. Keys
// are name-free, so l's name is patched onto the result. sweep must not
// consult t: it writes into the table's own slot, never into e, because a
// pointer handed to a function value escapes and e is usually a caller's
// stack variable.
func (t *sweepTable) answer(e *policy.Result, l *layer.Layer, resident, keep, fallback bool, sweep nodeEstimator) {
	if t == nil {
		var r policy.Result
		sweep(&r, l, resident, keep)
		*e = r
	} else {
		k := sweepKey{shape: policy.KeyOf(l), resident: resident, keep: keep, fallback: fallback}
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

func sweepTablePut(t *sweepTable) {
	if len(t.wins) > maxPooledAnswers {
		return
	}
	clear(t.at)
	t.wins = t.wins[:0]
	sweepTablePool.Put(t)
}

var dpTablePool sync.Pool

// dpTableGet returns a DP table with at least n rows. Rows are NOT zeroed:
// interLayerDPKeep overwrites every row it reads.
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
