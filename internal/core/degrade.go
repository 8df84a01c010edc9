package core

import (
	"context"

	"scratchmem/internal/faultinject"
	"scratchmem/internal/model"
	"scratchmem/internal/policy"
	"scratchmem/internal/progress"
	"scratchmem/internal/smmerr"
)

// DegradedBaseline names the degradation ladder's one rung below the
// request (scratchmem.PlanModelCtx), so the reason chain and the PlanDoc
// stay machine-readable: every layer runs fallback tiling — the analogue
// of SCALE-Sim's statically split, double-buffered scratchpad. It never
// reports infeasibility.
const DegradedBaseline = "baseline-fallback"

// DegradedReason records one failed rung of the degradation ladder.
type DegradedReason struct {
	// Mode is the rung that failed: "requested" for the original request,
	// otherwise one of the Degraded* mode names.
	Mode string
	// Err is the rung's failure rendered as text.
	Err string
}

// MarkDegraded stamps p as the product of the given ladder rung, carrying
// the chain of failures that preceded it.
func (p *Plan) MarkDegraded(mode string, reasons []DegradedReason) {
	p.Degraded = true
	p.DegradedMode = mode
	p.DegradedReasons = reasons
}

// BaselineFallbackCtx emits the conservative last-resort plan: every layer
// runs fallback tiling, double-buffered (prefetching) when that fits and
// plain otherwise — the management-free scheme a statically split
// double-buffered scratchpad would execute. It never reports
// infeasibility: when even the plain sliding window exceeds the GLB the
// layer keeps its over-capacity estimate, so the caller can read the exact
// shortfall from the plan instead of receiving ErrInfeasible. It fails
// only on cancellation, an invalid model, or an injected fault.
func (pl *Planner) BaselineFallbackCtx(ctx context.Context, n *model.Network, prog progress.Func) (*Plan, error) {
	if err := pl.Cfg.Validate(); err != nil {
		return nil, smmerr.BadModel(err)
	}
	if err := n.Validate(); err != nil {
		return nil, smmerr.BadModel(err)
	}
	plan := &Plan{
		Model: n.Name, Cfg: pl.Cfg, Objective: pl.Objective,
		Scheme:               DegradedBaseline,
		ChainableTransitions: countChainable(n),
	}
	plan.Layers = make([]LayerPlan, len(n.Layers))
	var accesses, cycles int64
	for i := range n.Layers {
		if err := layerGate(ctx); err != nil {
			return nil, smmerr.Layer(i, n.Layers[i].Name, err)
		}
		l := &n.Layers[i]
		e := policy.FallbackEstimate(l, policy.Options{Prefetch: true}, pl.Cfg)
		if !e.Feasible {
			// Double-buffering is a latency optimisation; shed it under
			// memory pressure (the plain estimate is never larger).
			e = policy.FallbackEstimate(l, policy.Options{}, pl.Cfg)
		}
		plan.Layers[i] = LayerPlan{Layer: *l, Est: e}
		accesses += e.AccessElems
		cycles += e.LatencyCycles
		prog.Emit(progress.Event{Phase: "plan", Index: i, Total: len(n.Layers), Name: l.Name,
			AccessElems: accesses, LatencyCycles: cycles})
	}
	return plan, nil
}

// layerGate is the per-layer check every planning loop runs: cancellation
// first, then the "core.layer" fault-injection site (a no-op unless a chaos
// run armed internal/faultinject).
func layerGate(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return faultinject.Hit("core.layer")
}
