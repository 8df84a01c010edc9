package policy

import (
	"fmt"

	"scratchmem/internal/layer"
)

// shapeOf gathers the element-count geometry a policy needs, honouring the
// padding switch.
type shapeOf struct {
	ihe, iwe  int64 // effective (possibly padded) ifmap extent
	ci, f, co int64
	fh, fw    int64
	oh, ow    int64
	ifmapAll  int64 // effective ifmap footprint
	ifmapLive int64 // unpadded ifmap footprint (resident data)
	filterAll int64
	ofmapAll  int64
	macs      int64 // layer.MACs(), hoisted out of the candidate sweep
	depthwise bool
	// One-pass predicates of ifmapLoads, hoisted out of the per-candidate
	// block-size arithmetic: true when the policy's sliding window spans
	// the whole ifmap (or the layer is depth-wise), so the ifmap crosses
	// the chip boundary once regardless of the filter-block size.
	p4OnePass bool
	p5OnePass bool
}

func newShape(l *layer.Layer, padded bool) shapeOf {
	s := shapeOf{
		ci: int64(l.CI), f: int64(l.F), co: int64(l.CO()),
		fh: int64(l.FH), fw: int64(l.FW),
		oh: int64(l.OH()), ow: int64(l.OW()),
		ihe: int64(l.IH), iwe: int64(l.IW),
		depthwise: l.Kind == layer.DepthwiseConv,
	}
	if padded {
		s.ihe, s.iwe = int64(l.PaddedIH()), int64(l.PaddedIW())
	}
	s.ifmapAll = s.ihe * s.iwe * s.ci
	s.ifmapLive = int64(l.IH) * int64(l.IW) * s.ci
	s.filterAll = l.FilterElems()
	s.ofmapAll = l.OfmapElems()
	s.macs = l.MACs()
	s.p4OnePass = s.depthwise || s.fh >= s.ihe
	s.p5OnePass = s.depthwise || (s.fh >= s.ihe && s.ci == 1)
	return s
}

// tilesFor returns the per-data-type tile sizes of a policy (paper §3.2)
// for a given filter-block size n (only meaningful for P4/P5).
func tilesFor(id ID, s *shapeOf, n int64) Tiles {
	switch id {
	case IntraLayer:
		return Tiles{Ifmap: s.ifmapAll, Filter: s.filterAll, Ofmap: s.ofmapAll}
	case P1IfmapReuse:
		// Sliding window of FH rows across all channels; all filters
		// resident; one ofmap row across all output channels.
		return Tiles{Ifmap: s.fh * s.iwe * s.ci, Filter: s.filterAll, Ofmap: s.ow * s.co}
	case P2FilterReuse:
		// Whole ifmap resident; one filter at a time; one ofmap channel.
		oneFilter := s.fh * s.fw * s.ci
		if s.depthwise {
			oneFilter = s.fh * s.fw
		}
		return Tiles{Ifmap: s.ifmapAll, Filter: oneFilter, Ofmap: s.oh * s.ow}
	case P3PerChannel:
		// One ifmap channel streams height-wise; one channel of every
		// filter resident; whole ofmap accumulates on-chip. Depth-wise
		// layers have no cross-channel accumulation, so one ofmap channel
		// suffices before it is stored.
		ftile := s.fh * s.fw * s.f
		otile := s.ofmapAll
		if s.depthwise {
			ftile = s.fh * s.fw
			otile = s.oh * s.ow
		}
		return Tiles{Ifmap: s.fh * s.iwe, Filter: ftile, Ofmap: otile}
	case P4PartialIfmap:
		// P1 with a block of n filters and an n-channel ofmap row.
		per := s.fh * s.fw * s.ci
		if s.depthwise {
			// One "filter" covering all channels; block size is moot.
			return Tiles{Ifmap: s.fh * s.iwe * s.ci, Filter: s.filterAll, Ofmap: s.ow * s.co}
		}
		return Tiles{Ifmap: s.fh * s.iwe * s.ci, Filter: per * n, Ofmap: s.ow * n}
	case P5PartialPerChannel:
		if s.depthwise {
			// Channels are processed independently, exactly like P3-DW.
			return Tiles{Ifmap: s.fh * s.iwe, Filter: s.fh * s.fw, Ofmap: s.oh * s.ow}
		}
		return Tiles{Ifmap: s.fh * s.iwe, Filter: s.fh * s.fw * n, Ofmap: s.oh * s.ow * n}
	default:
		panic("policy: unknown policy " + id.String())
	}
}

// ifmapLoads returns how many times the whole ifmap must cross the chip
// boundary for a policy with filter-block size n. It is 1 for intra/P1/P2/P3
// (every element moves once) and ceil(F#/n) for P4/P5, except where the
// sliding window already spans the entire ifmap (then nothing is evicted
// between blocks) or the layer is depth-wise (one filter per channel, one
// pass).
func ifmapLoads(id ID, s *shapeOf, n int64) int64 {
	switch id {
	case P4PartialIfmap:
		if s.p4OnePass {
			return 1
		}
		return ceilDiv(s.f, n)
	case P5PartialPerChannel:
		if s.p5OnePass {
			return 1
		}
		return ceilDiv(s.f, n)
	default:
		return 1
	}
}

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		panic("policy: ceilDiv by non-positive divisor")
	}
	return (a + b - 1) / b
}

// memoryElems applies the paper's capacity equations: Eq. 1 without
// prefetching, Eq. 2 (every tile doubled) with prefetching. Inter-layer
// variants adjust the ifmap/ofmap terms: a resident ifmap occupies its live
// (unpadded) footprint and is never double-buffered; a kept ofmap occupies
// the full ofmap and is never double-buffered.
func memoryElems(t Tiles, s *shapeOf, o Options) (total int64, extra Tiles) {
	iTerm, fTerm, oTerm := t.Ifmap, t.Filter, t.Ofmap
	if o.ResidentIfmap {
		iTerm = s.ifmapLive
	}
	if o.KeepOfmap && oTerm < s.ofmapAll {
		oTerm = s.ofmapAll
	}
	total = iTerm + fTerm + oTerm
	if o.Prefetch {
		if !o.ResidentIfmap {
			extra.Ifmap = t.Ifmap
		}
		extra.Filter = t.Filter
		if !o.KeepOfmap {
			extra.Ofmap = t.Ofmap
		}
		total += extra.Total()
	}
	return total, extra
}

// Estimate runs the three estimators for one (layer, policy, options)
// combination under the given accelerator configuration. For P4/P5 it picks
// the largest feasible filter-block size n; if even n=1 does not fit the
// estimate is returned with Feasible=false (the planner then falls back).
func Estimate(l *layer.Layer, id ID, o Options, cfg Config) Result {
	s := newShape(l, cfg.IncludePadding)
	n := bestBlockSize(id, &s, o, cfg)
	return estimateWithN(l, id, o, cfg, &s, n)
}

// EstimateN is Estimate with the filter-block size forced to n instead of
// auto-selected. n must be a block size the planner can choose
// (blockSizeMax): outside that range the estimators' products are not
// bounded by the layer's own, and a large enough n wraps P4's memory figure
// into a small, feasible-looking one, so EstimateN refuses it. Policies
// other than P4 and P5 have no block size and are always refused.
func EstimateN(l *layer.Layer, id ID, o Options, cfg Config, n int64) (Result, error) {
	s := newShape(l, cfg.IncludePadding)
	maxN := blockSizeMax(id, &s)
	if maxN == 0 {
		return Result{}, fmt.Errorf("policy %s has no block size", id.Short())
	}
	if n < 1 || n > maxN {
		return Result{}, fmt.Errorf("%s block size n = %d outside [1, %d]", id.Short(), n, maxN)
	}
	return estimateWithN(l, id, o, cfg, &s, n), nil
}

// blockSizeMax bounds the filter-block sizes the planner can choose: n
// ranges over [1, max(1, F#-1)] for P4 and P5 and is exactly 1 on
// depth-wise layers. It returns 0 for the policies without a block size.
func blockSizeMax(id ID, s *shapeOf) int64 {
	switch {
	case id != P4PartialIfmap && id != P5PartialPerChannel:
		return 0
	case s.depthwise:
		return 1
	}
	return max(1, s.f-1)
}

// bestBlockSize returns the largest n in blockSizeMax's range whose memory
// requirement fits the GLB; 1 if none fits (the estimate will be
// infeasible); and 0 for policies without a block size.
func bestBlockSize(id ID, s *shapeOf, o Options, cfg Config) int64 {
	maxN := blockSizeMax(id, s)
	if maxN <= 1 {
		return maxN
	}
	m1, _ := memoryElems(tilesFor(id, s, 1), s, o)
	m2, _ := memoryElems(tilesFor(id, s, 2), s, o)
	return solveBlockSize(maxN, m1, m2, cfg.CapacityElems())
}

// solveBlockSize returns the largest n in [1, maxN] whose memory fits cap
// elements, given the memory m1 at n = 1 and m2 at n = 2, or 1 when even
// n = 1 does not fit. Memory is affine in n (prefetch folded in), so the
// solve is closed-form rather than a scan.
func solveBlockSize(maxN, m1, m2, cap int64) int64 {
	perN := m2 - m1
	if perN <= 0 {
		return maxN
	}
	if m1 > cap {
		return 1 // infeasible even at n=1; report that honestly
	}
	return min(maxN, 1+(cap-m1)/perN)
}

// filterResident reports whether the policy keeps its filter working set on
// chip for the whole layer, so a batch of inputs can amortise the weight
// traffic (intra-layer reuse and policies 1/4 hold all filters or the
// current block for the entire sweep; policies 2/3/5 re-stream weight
// slices per input).
func filterResident(id ID) bool {
	return id == IntraLayer || id == P1IfmapReuse || id == P4PartialIfmap
}

func estimateWithN(l *layer.Layer, id ID, o Options, cfg Config, s *shapeOf, n int64) Result {
	t := tilesFor(id, s, n)
	memElems, extra := memoryElems(t, s, o)
	e := Result{
		Policy: id, Opts: o, Layer: l.Name, N: int(n),
		Tiles: t, DoubleBuffered: extra,
		MemoryElems: memElems, MemoryBytes: cfg.Bytes(memElems),
	}
	e.Feasible = e.MemoryBytes <= cfg.GLBBytes
	finishEstimate(&e, l, id, o, cfg, s, n)
	return e
}

// finishEstimate fills the traffic and latency fields of an estimate whose
// capacity fields are already set.
func finishEstimate(e *Result, l *layer.Layer, id ID, o Options, cfg Config, s *shapeOf, n int64) {
	x := ifmapLoads(id, s, n)
	b := cfg.BatchSize()

	accI := x * s.ifmapAll * b
	if o.ResidentIfmap {
		accI, x = 0, 0
	}
	fLoads := b
	if filterResident(id) {
		fLoads = 1
	}
	accF := fLoads * s.filterAll
	accO := s.ofmapAll * b
	if o.KeepOfmap {
		accO = 0
	}
	acc := accI + accF + accO

	e.IfmapLoads, e.FilterLoads = x, fLoads
	e.AccessIfmap, e.AccessFilter, e.AccessOfmap = accI, accF, accO
	e.AccessElems, e.AccessBytes = acc, cfg.Bytes(acc)
	e.ComputeCycles = ceilDiv(s.macs*b, cfg.MACsPerCycle())
	e.TransferCycles = ceilDiv(e.AccessBytes, int64(cfg.DRAMBytesPerCycle))
	e.LatencyCycles = latency(e, o, cfg)
}

// EstimateFast is Estimate for candidate sweeps: feasible results are
// byte-identical to Estimate's, but infeasible ones stop at the capacity
// check and carry only the identifying and memory fields (zero traffic and
// latency) — a planner discards an infeasible candidate after reading
// Feasible and, on its error paths, MemoryBytes, so the cheap contract is
// enough and skips roughly half the estimator's arithmetic on the sweeps'
// many non-fitting candidates.
func EstimateFast(l *layer.Layer, id ID, o Options, cfg Config) Result {
	sh := NewShape(l, cfg.IncludePadding)
	return sh.EstimateFast(id, o, cfg)
}

// tileCoef is one policy's tile sizes decomposed affinely in the filter-
// block size n: tiles(n) = base + (n−1)·perN, exact over the whole valid
// range (the P4/P5 tiles are linear in n; every other policy — and
// depth-wise P4/P5 — is constant, perN = 0). The coefficients are
// tilesFor's own values at n=1 and n=2, so the decomposition reproduces
// tilesFor bit-for-bit.
type tileCoef struct {
	base, perN Tiles
}

// Shape is the precomputed geometry of one layer under one padding rule.
// A candidate sweep evaluates up to sixteen (policy, ±prefetch) variants of
// the same layer; computing the derived extents — and each policy's affine
// tile coefficients — once and reusing them across the sweep removes the
// dominant per-candidate cost.
type Shape struct {
	l *layer.Layer
	s shapeOf
	// padded records the rule the shape was derived under; estimates must
	// be asked with a Config whose IncludePadding matches.
	padded bool
	coef   [numPolicies]tileCoef
}

// NewShape precomputes l's geometry. The padded flag must equal the
// IncludePadding of every Config later passed to this shape's estimators.
func NewShape(l *layer.Layer, padded bool) Shape {
	sh := Shape{l: l, s: newShape(l, padded), padded: padded}
	sh.initCoef()
	return sh
}

func (sh *Shape) initCoef() {
	for _, id := range allIDs {
		t1 := tilesFor(id, &sh.s, 1)
		t2 := tilesFor(id, &sh.s, 2)
		sh.coef[id] = tileCoef{base: t1, perN: Tiles{
			Ifmap:  t2.Ifmap - t1.Ifmap,
			Filter: t2.Filter - t1.Filter,
			Ofmap:  t2.Ofmap - t1.Ofmap,
		}}
	}
}

// tiles is tilesFor against the precomputed coefficients. n <= 1 covers
// both n=1 and the no-block-size n=0 (tilesFor ignores n there, and base
// is its constant value).
func (sh *Shape) tiles(id ID, n int64) Tiles {
	c := &sh.coef[id]
	if n <= 1 {
		return c.base
	}
	k := n - 1
	return Tiles{
		Ifmap:  c.base.Ifmap + k*c.perN.Ifmap,
		Filter: c.base.Filter + k*c.perN.Filter,
		Ofmap:  c.base.Ofmap + k*c.perN.Ofmap,
	}
}

// bestBlockSize is the package-level bestBlockSize against the precomputed
// coefficients: the same solve, with the two probe tile computations
// reduced to table reads.
func (sh *Shape) bestBlockSize(id ID, o Options, cfg Config) int64 {
	s := &sh.s
	maxN := blockSizeMax(id, s)
	if maxN <= 1 {
		return maxN
	}
	m1, _ := memoryElems(sh.tiles(id, 1), s, o)
	m2, _ := memoryElems(sh.tiles(id, 2), s, o)
	return solveBlockSize(maxN, m1, m2, cfg.CapacityElems())
}

// EstimateFast is EstimateFast against the precomputed geometry.
func (sh *Shape) EstimateFast(id ID, o Options, cfg Config) Result {
	var e Result
	sh.EstimateFastInto(&e, id, o, cfg)
	return e
}

// EstimateFastInto is EstimateFast writing its result in place, for sweeps
// that evaluate many candidates into one reused Result. A feasible result
// has every field written; an infeasible one has only the identifying and
// capacity fields plus Feasible written — the traffic and latency fields
// keep e's prior contents, so reuse-minded callers must read nothing else
// from a rejected candidate (the sweep contract; EstimateFast itself hands
// the Into form a zeroed Result, preserving its zero-fields guarantee).
func (sh *Shape) EstimateFastInto(e *Result, id ID, o Options, cfg Config) {
	s := &sh.s
	n := sh.bestBlockSize(id, o, cfg)
	t := sh.tiles(id, n)
	memElems, extra := memoryElems(t, s, o)
	e.Policy, e.Opts, e.Layer, e.N = id, o, sh.l.Name, int(n)
	e.Tiles, e.DoubleBuffered = t, extra
	e.MemoryElems = memElems
	e.MemoryBytes = cfg.Bytes(memElems)
	if e.MemoryBytes > cfg.GLBBytes {
		e.Feasible = false
		return
	}
	e.Feasible = true
	finishEstimate(e, sh.l, id, o, cfg, s, n)
}

// latency models the paper's estimate_latency: without prefetching, loads
// serialise with compute; with prefetching, the first input tile fills the
// pipeline, compute overlaps the remaining transfers, and the last output
// tile drains.
func latency(e *Result, o Options, cfg Config) int64 {
	if !o.Prefetch {
		return e.ComputeCycles + e.TransferCycles
	}
	bw := int64(cfg.DRAMBytesPerCycle)
	fill := ceilDiv(cfg.Bytes(e.Tiles.Ifmap+e.Tiles.Filter), bw)
	if o.ResidentIfmap {
		fill = ceilDiv(cfg.Bytes(e.Tiles.Filter), bw)
	}
	drain := ceilDiv(cfg.Bytes(e.Tiles.Ofmap), bw)
	if o.KeepOfmap {
		drain = 0
	}
	if fill+drain > e.TransferCycles {
		// Degenerate tiny layers: everything is one tile.
		fill, drain = e.TransferCycles, 0
	}
	steady := e.TransferCycles - fill - drain
	if e.ComputeCycles > steady {
		steady = e.ComputeCycles
	}
	return fill + steady + drain
}

// All evaluates every (policy, ±prefetch) pair for a layer, in the order of
// the paper's Algorithm 1 policy set (12 variants).
func All(l *layer.Layer, cfg Config) []Result {
	out := make([]Result, 0, 2*numPolicies)
	for _, id := range allIDs {
		out = append(out,
			Estimate(l, id, Options{}, cfg),
			Estimate(l, id, Options{Prefetch: true}, cfg))
	}
	return out
}

// MinAccessElems returns the theoretical minimum off-chip traffic of the
// layer under the configuration's padding rule: every ifmap, filter and
// ofmap element moved exactly once.
func MinAccessElems(l *layer.Layer, cfg Config) int64 {
	return l.IfmapElems(cfg.IncludePadding) + l.FilterElems() + l.OfmapElems()
}

// MaxMemoryKB returns, over the layers of a network slice, the maximum
// memory requirement of the policy in kB — the quantity tabulated in the
// paper's Table 3 (computed there with unpadded ifmaps and 8-bit data).
func MaxMemoryKB(layers []layer.Layer, id ID, cfg Config) float64 {
	var maxB int64
	for i := range layers {
		e := Estimate(&layers[i], id, Options{}, cfg)
		if e.MemoryBytes > maxB {
			maxB = e.MemoryBytes
		}
	}
	return float64(maxB) / 1024.0
}
