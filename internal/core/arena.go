package core

import (
	"sync"

	"scratchmem/internal/policy"
)

// Per-request planning scratch — DP tables, the homogeneous sweep's
// dedup/contribution rows — is recycled through sync.Pools so steady-state
// serving stops paying an allocation per request. Nothing here changes what
// the planner computes: every pooled structure is fully (re)initialised
// before use, and anything captured beyond the request (a checkpoint's DP
// table) is allocated outside the pools.

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
