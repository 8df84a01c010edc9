// Package engine executes a planned layer for real: it walks the exact tile
// schedule a policy prescribes, moving data between a modelled DRAM and a
// capacity-checked unified scratchpad (internal/glb) and performing the
// actual multiply-accumulates on int32 tensors. It is the ground truth the
// analytical estimators are tested against — the off-chip traffic counted
// here must equal policy.Estimate's numbers, the scratchpad high-water mark
// must stay within the estimated memory requirement, and the numerical
// output must match internal/tensor's reference convolutions bit-for-bit.
package engine

import (
	"context"
	"fmt"

	"scratchmem/internal/glb"
	"scratchmem/internal/layer"
	"scratchmem/internal/policy"
	"scratchmem/internal/tensor"
	"scratchmem/internal/trace"
)

// Phase is one schedule step: a DMA load, a compute burst and a DMA store.
// Phases drive the timing models below.
type Phase struct {
	LoadElems  int64
	MACs       int64
	StoreElems int64
}

// Result is the outcome of executing one layer.
type Result struct {
	Output *tensor.Tensor
	// Off-chip traffic by data type, in elements (padded ifmap elements are
	// counted when the configuration says so, exactly like the estimator).
	AccessIfmap  int64
	AccessFilter int64
	AccessOfmap  int64
	// PeakElems is the scratchpad high-water mark.
	PeakElems int64
	Phases    []Phase
}

// AccessElems returns the total executed off-chip traffic.
func (r *Result) AccessElems() int64 {
	return r.AccessIfmap + r.AccessFilter + r.AccessOfmap
}

// Run executes layer l under the policy instantiation est (as produced by
// policy.Estimate) with input activations in and weights w.
//
// Weight layout: dense layers take a bank of l.F filters of FH x FW x CI;
// depth-wise layers take l.CI filters of FH x FW x 1.
func Run(l *layer.Layer, est *policy.Result, cfg policy.Config, in *tensor.Tensor, w *tensor.Filters) (*Result, error) {
	return RunTraced(l, est, cfg, in, w, nil)
}

// RunTraced is Run with an optional trace log: every DMA transfer and
// compute burst is appended as a trace.Event.
func RunTraced(l *layer.Layer, est *policy.Result, cfg policy.Config, in *tensor.Tensor, w *tensor.Filters, log *trace.Log) (*Result, error) {
	return RunTracedCtx(context.Background(), l, est, cfg, in, w, log)
}

// RunTracedCtx is RunTraced with cancellation: the tile schedule checks ctx
// at its outer loop (per filter block, channel or output row, depending on
// the policy), so a canceled execution returns within one schedule step.
// The per-element arithmetic itself is never interrupted.
func RunTracedCtx(ctx context.Context, l *layer.Layer, est *policy.Result, cfg policy.Config, in *tensor.Tensor, w *tensor.Filters, log *trace.Log) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Batch > 1 {
		return nil, fmt.Errorf("engine: batched execution is not supported (batch %d)", cfg.Batch)
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if in.H != l.IH || in.W != l.IW || in.C != l.CI {
		return nil, fmt.Errorf("engine: input %dx%dx%d does not match layer %s", in.H, in.W, in.C, l)
	}
	if l.Kind == layer.DepthwiseConv {
		if w.F != l.CI || w.CI != 1 || w.FH != l.FH || w.FW != l.FW {
			return nil, fmt.Errorf("engine: depth-wise weights %dx%dx%dx%d do not match layer %s",
				w.FH, w.FW, w.CI, w.F, l)
		}
	} else if w.F != l.F || w.CI != l.CI || w.FH != l.FH || w.FW != l.FW {
		return nil, fmt.Errorf("engine: weights %dx%dx%dx%d do not match layer %s", w.FH, w.FW, w.CI, w.F, l)
	}

	e := &executor{
		l: l, cfg: cfg, est: est, in: in, w: w,
		out:        tensor.New(l.OH(), l.OW(), l.CO()),
		buf:        glb.New(cfg.CapacityElems()),
		functional: true,
		log:        log,
		ctx:        ctx,
	}
	e.ihe, e.iwe = int64(l.IH), int64(l.IW)
	if cfg.IncludePadding {
		e.ihe, e.iwe = int64(l.PaddedIH()), int64(l.PaddedIW())
	}
	if reserve := est.DoubleBuffered.Total(); reserve > 0 {
		if err := e.buf.Alloc("prefetch-reserve", reserve); err != nil {
			return nil, err
		}
	}

	err := e.dispatch()
	if err != nil {
		return nil, err
	}
	e.res.Output = e.out
	e.res.PeakElems = e.buf.Peak()
	return &e.res, nil
}

// DryRunCtx executes the policy's tile schedule without tensors or
// arithmetic: it walks the same loops as Run, moving only byte counts, so
// whole ImageNet-scale layers validate in microseconds. The Result carries
// traffic, phases and the scratchpad high-water mark; Output is nil. An
// optional trace log records every event. It runs with cancellation, checked
// at the schedule's outer loop exactly like RunTracedCtx.
func DryRunCtx(ctx context.Context, l *layer.Layer, est *policy.Result, cfg policy.Config, log *trace.Log) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Batch > 1 {
		return nil, fmt.Errorf("engine: batched execution is not supported (batch %d)", cfg.Batch)
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	e := &executor{
		l: l, cfg: cfg, est: est,
		buf: glb.New(cfg.CapacityElems()),
		log: log,
		ctx: ctx,
	}
	e.ihe, e.iwe = int64(l.IH), int64(l.IW)
	if cfg.IncludePadding {
		e.ihe, e.iwe = int64(l.PaddedIH()), int64(l.PaddedIW())
	}
	if reserve := est.DoubleBuffered.Total(); reserve > 0 {
		if err := e.buf.Alloc("prefetch-reserve", reserve); err != nil {
			return nil, err
		}
	}
	if err := e.dispatch(); err != nil {
		return nil, err
	}
	e.res.PeakElems = e.buf.Peak()
	return &e.res, nil
}

// executor carries the execution state of one layer.
type executor struct {
	l   *layer.Layer
	cfg policy.Config
	est *policy.Result
	in  *tensor.Tensor
	w   *tensor.Filters
	out *tensor.Tensor
	buf *glb.Buffer
	res Result
	// functional selects real arithmetic (Run) over schedule-only walking
	// (DryRunCtx).
	functional bool
	// log, when non-nil, records every DMA transfer and compute burst.
	log *trace.Log
	// ctx, when non-nil, is polled at each schedule's outer loop so long
	// executions can be abandoned between tiles.
	ctx context.Context
	// Effective (possibly padded) ifmap extent — what the DMA streams.
	ihe, iwe int64
}

// canceled reports the executor's context error, if any; a nil context
// (legacy entry points) never cancels.
func (e *executor) canceled() error {
	if e.ctx == nil {
		return nil
	}
	return e.ctx.Err()
}

// dispatch runs the policy-specific executor.
func (e *executor) dispatch() error {
	switch e.est.Policy {
	case policy.IntraLayer:
		return e.execIntra()
	case policy.P1IfmapReuse:
		return e.execP1()
	case policy.P2FilterReuse:
		return e.execP2()
	case policy.P3PerChannel:
		return e.execP3()
	case policy.P4PartialIfmap:
		return e.execP4()
	case policy.P5PartialPerChannel:
		return e.execP5()
	case policy.FallbackTiled:
		return e.execFallback()
	default:
		return fmt.Errorf("engine: unknown policy %v", e.est.Policy)
	}
}

// loadIfmap counts an ifmap DMA load; resident ifmaps (inter-layer reuse)
// never touch DRAM.
func (e *executor) loadIfmap(elems int64) int64 {
	if e.est.Opts.ResidentIfmap {
		return 0
	}
	e.res.AccessIfmap += elems
	if e.log != nil {
		e.log.Add(e.l.Name, len(e.res.Phases), trace.LoadIfmap, elems)
	}
	return elems
}

func (e *executor) loadFilter(elems int64) int64 {
	e.res.AccessFilter += elems
	if e.log != nil {
		e.log.Add(e.l.Name, len(e.res.Phases), trace.LoadFilter, elems)
	}
	return elems
}

// storeOfmap counts an ofmap DMA store; retained ofmaps (inter-layer reuse)
// stay on-chip.
func (e *executor) storeOfmap(elems int64) int64 {
	if e.est.Opts.KeepOfmap {
		return 0
	}
	e.res.AccessOfmap += elems
	if e.log != nil {
		e.log.Add(e.l.Name, len(e.res.Phases), trace.StoreOfmap, elems)
	}
	return elems
}

func (e *executor) phase(load, macs, store int64) {
	if e.log != nil {
		e.log.Add(e.l.Name, len(e.res.Phases), trace.Compute, macs)
	}
	e.res.Phases = append(e.res.Phases, Phase{LoadElems: load, MACs: macs, StoreElems: store})
}

// allocIfmapRegion sizes the scratchpad ifmap region: the live (unpadded)
// footprint when the ifmap is resident, else the requested tile size.
func (e *executor) allocIfmapRegion(tileElems int64) error {
	if e.est.Opts.ResidentIfmap {
		tileElems = int64(e.l.IH) * int64(e.l.IW) * int64(e.l.CI)
	}
	return e.buf.Resize("ifmap", tileElems)
}

// allocOfmapRegion sizes the ofmap region: the whole ofmap when it must stay
// resident for the next layer, else the tile.
func (e *executor) allocOfmapRegion(tileElems int64) error {
	if e.est.Opts.KeepOfmap {
		tileElems = e.l.OfmapElems()
	}
	return e.buf.Resize("ofmap", tileElems)
}

// sweep tracks a height-wise sliding-window pass over the (padded) ifmap,
// charging each streamed row once. extendLast makes the final window flush
// the remaining rows so a full pass always streams the whole ifmap, exactly
// as the estimators assume.
type sweep struct {
	loadedTo int64
}

// windowRows returns how many new rows the window for output row oh brings
// in, advancing the sweep. The DMA streams the ifmap contiguously, so rows
// a large stride would skip are streamed through as well — every element of
// the ifmap crosses the boundary exactly once per pass, which is what the
// estimators charge.
func (s *sweep) windowRows(e *executor, oh int, last bool) int64 {
	hi := int64(oh)*int64(e.l.S) + int64(e.l.FH)
	if hi > e.ihe || last {
		hi = e.ihe
	}
	if hi <= s.loadedTo {
		return 0
	}
	n := hi - s.loadedTo
	s.loadedTo = hi
	return n
}

// macsRow is the MAC count of one output row restricted to a filter range
// and input-channel range.
func (e *executor) macsRow(f0, f1, c0, c1 int) int64 {
	return int64(e.l.OW()) * int64(f1-f0) * int64(e.l.FH) * int64(e.l.FW) * int64(c1-c0)
}

// computeRow computes (accumulate=false) or accumulates (accumulate=true)
// output row oh for dense filters [f0, f1) over input channels [c0, c1).
func (e *executor) computeRow(oh, f0, f1, c0, c1 int, accumulate bool) {
	if !e.functional {
		return
	}
	l := e.l
	for ow := 0; ow < l.OW(); ow++ {
		for f := f0; f < f1; f++ {
			var acc int32
			for kh := 0; kh < l.FH; kh++ {
				for kw := 0; kw < l.FW; kw++ {
					for c := c0; c < c1; c++ {
						acc += e.in.AtPadded(oh*l.S+kh, ow*l.S+kw, c, l.P) * e.w.At(f, kh, kw, c)
					}
				}
			}
			if accumulate {
				e.out.Add(oh, ow, f, acc)
			} else {
				e.out.Set(oh, ow, f, acc)
			}
		}
	}
}

// computeRowDW computes output row oh for depth-wise channels [c0, c1).
func (e *executor) computeRowDW(oh, c0, c1 int) {
	if !e.functional {
		return
	}
	l := e.l
	for ow := 0; ow < l.OW(); ow++ {
		for c := c0; c < c1; c++ {
			var acc int32
			for kh := 0; kh < l.FH; kh++ {
				for kw := 0; kw < l.FW; kw++ {
					acc += e.in.AtPadded(oh*l.S+kh, ow*l.S+kw, c, l.P) * e.w.At(c, kh, kw, 0)
				}
			}
			e.out.Set(oh, ow, c, acc)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
