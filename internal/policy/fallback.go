package policy

import "scratchmem/internal/layer"

// FallbackTiled is the planner's last resort when no policy of Algorithm 1's
// set fits the GLB (paper §3.3: "we have to search for appropriate tile
// sizes that will satisfy the condition. This may lead to an increased
// off-chip accesses"). It processes one output row against one filter at a
// time, so its footprint is a single sliding window, one filter and one
// output row. Two loop orientations exist:
//
//   - row-outer: the sliding window streams once (every ifmap element loads
//     once) but every filter is re-loaded for every output row;
//   - filter-outer: filters load once but the whole ifmap streams once per
//     filter.
//
// The estimator picks whichever orientation moves fewer bytes.
const FallbackTiled ID = numPolicies

// FallbackEstimate evaluates the fallback tiling for a layer. It is kept
// out of All — Algorithm 1 only consults it when nothing else fits.
func FallbackEstimate(l *layer.Layer, o Options, cfg Config) Result {
	s := newShape(l, cfg.IncludePadding)
	return fallbackShaped(l, &s, o, cfg)
}

// FallbackInto is FallbackEstimate against the precomputed geometry,
// writing its result in place.
func (sh *Shape) FallbackInto(e *Result, o Options, cfg Config) {
	fallbackShapedInto(e, sh.l, &sh.s, o, cfg)
}

func fallbackShaped(l *layer.Layer, sp *shapeOf, o Options, cfg Config) Result {
	var e Result
	fallbackShapedInto(&e, l, sp, o, cfg)
	return e
}

func fallbackShapedInto(r *Result, l *layer.Layer, s *shapeOf, o Options, cfg Config) {
	t := fallbackTiles(s)

	memElems, extra := memoryElems(t, s, o)

	// Orientation choice by traffic. With a batch, the filter-outer order
	// keeps each filter resident across the whole batch, the row-outer
	// order re-reads filters per output row of every input.
	b := cfg.BatchSize()
	var ifLoads, fLoads int64 = 1, 1
	if s.depthwise {
		// Depth-wise layers are channel-independent: one pass, minimal.
	} else {
		rowOuter := b*s.ifmapAll + b*s.oh*s.filterAll // filters re-read per row
		filterOuter := b*s.f*s.ifmapAll + s.filterAll
		if o.ResidentIfmap {
			// Ifmap re-streams are free when it lives in the GLB.
			filterOuter = s.filterAll
		}
		if filterOuter <= rowOuter {
			ifLoads = s.f
		} else {
			fLoads = s.oh * b
		}
	}

	accI := ifLoads * s.ifmapAll * b
	if o.ResidentIfmap {
		accI, ifLoads = 0, 0
	}
	accF := fLoads * s.filterAll
	accO := s.ofmapAll * b
	if o.KeepOfmap {
		accO = 0
	}
	acc := accI + accF + accO

	*r = Result{
		Policy: FallbackTiled, Opts: o, Layer: l.Name, N: 1,
		Tiles: t, DoubleBuffered: extra,
		MemoryElems: memElems, MemoryBytes: cfg.Bytes(memElems),
		IfmapLoads: ifLoads, FilterLoads: fLoads,
		AccessIfmap: accI, AccessFilter: accF, AccessOfmap: accO,
		AccessElems: acc, AccessBytes: cfg.Bytes(acc),
	}
	r.ComputeCycles = ceilDiv(s.macs*b, cfg.MACsPerCycle())
	r.TransferCycles = ceilDiv(r.AccessBytes, int64(cfg.DRAMBytesPerCycle))
	r.LatencyCycles = latency(r, o, cfg)
	r.Feasible = r.MemoryBytes <= cfg.GLBBytes
}

func fallbackTiles(s *shapeOf) Tiles {
	if s.depthwise {
		return Tiles{Ifmap: s.fh * s.iwe, Filter: s.fh * s.fw, Ofmap: s.ow}
	}
	return Tiles{Ifmap: s.fh * s.iwe * s.ci, Filter: s.fh * s.fw * s.ci, Ofmap: s.ow}
}
