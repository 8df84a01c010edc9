package scratchmem

import (
	"context"
	"errors"
	"os"
	"strings"

	"scratchmem/internal/core"
	"scratchmem/internal/model"
	"scratchmem/internal/obs"
	"scratchmem/internal/smmerr"
)

// Graph is a tensor-lifetime graph: layers as nodes, named tensors as
// edges, with explicit producers and consumers. It is the DAG-aware
// superset of Network — FromNetwork/Network convert losslessly for chains —
// and the input PlanGraph needs to schedule branches, place tensors at
// concrete GLB addresses and decide spills.
type Graph = model.Graph

// TensorAlloc is one tensor's lifetime decision in a DAG plan.
type TensorAlloc = core.TensorPlan

// BuiltinGraph returns a built-in model as a tensor-lifetime graph
// (case-insensitive): the same layers as BuiltinModel plus the true edge
// structure — inception concatenations, residual shortcuts, squeeze-and-
// excite side reads — that the linear Network serialises away.
func BuiltinGraph(name string) (*Graph, error) { return model.BuiltinGraph(name) }

// GraphFromNetwork lifts a linear network into the graph IR: chainable
// neighbours connect, every other layer reads an external tensor.
func GraphFromNetwork(n *Network) *Graph { return model.FromNetwork(n) }

// LoadGraph reads a model from disk as a tensor-lifetime graph. Files
// ending in .csv are parsed as SCALE-Sim topology files with the producer
// graph inferred (branches, concatenations and flattened depth-wise layers
// recovered); everything else as the JSON graph format, whose per-layer
// "inputs"/"residual" columns are optional — legacy linear files load as
// chains.
func LoadGraph(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(strings.ToLower(path), ".csv") {
		base := path[strings.LastIndexByte(path, '/')+1:]
		return model.ReadTopologyGraphCSV(strings.TrimSuffix(base, ".csv"), f)
	}
	return model.ReadGraphJSON(f)
}

// SaveGraph writes a graph description. .csv selects the SCALE-Sim
// topology format, which serialises the node order and loses the edge
// structure (reloading re-infers it); anything else writes the JSON graph
// format with explicit edges.
func SaveGraph(g *Graph, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(strings.ToLower(path), ".csv") {
		return g.Network().WriteTopologyCSV(f)
	}
	return g.WriteJSON(f)
}

// PlanGraph runs the memory-management technique on a tensor-lifetime
// graph: a DAG-aware schedule minimising peak live bytes, per-layer policy
// selection, and address-ranged GLB residency for every tensor worth
// keeping on-chip (branch ofmaps stay resident across joins instead of
// round-tripping through DRAM). Chain graphs — every FromNetwork graph of
// a plain CNN — take the exact linear planning path, so their plans and
// documents are byte-identical to PlanModel's.
func PlanGraph(g *Graph, o PlanOptions) (*Plan, error) {
	return PlanGraphCtx(context.Background(), g, o, nil)
}

// PlanGraphCtx is PlanGraph with cancellation and observation, mirroring
// PlanModelCtx: per-layer ctx checks and "plan" progress events, the typed
// error taxonomy, and — unless o.Strict — a degradation ladder. The DAG
// ladder descends requested → prefetch-relaxed → lifetime-spill (the
// minimal-footprint candidate set over the allocator) → the baseline
// fallback on the linearised node order, which always succeeds.
func PlanGraphCtx(ctx context.Context, g *Graph, o PlanOptions, prog Progress) (*Plan, error) {
	cfg, err := o.config()
	if err != nil {
		return nil, err
	}
	ctx, span := obs.StartSpan(ctx, "plan_graph")
	if span != nil {
		span.SetAttr("model", g.Name)
		span.SetAttr("layers", len(g.Nodes))
		span.SetAttr("objective", o.Objective.String())
		span.SetAttr("chain", g.IsChain())
		prog = obs.SpanProgress(span, prog)
		defer span.End()
	}
	var plan *Plan
	if g.IsChain() {
		// A chain has no joins for the allocator to improve on, and routing
		// it through the linear path keeps its PlanDoc byte-identical to
		// PlanModel's (same PlanKey-addressed cache entries).
		plan, err = planLadder(ctx, cfg, g.Network(), o, prog)
	} else {
		plan, err = planGraphLadder(ctx, cfg, g, o, prog)
	}
	if span != nil {
		if err != nil {
			span.SetAttr("error", err.Error())
		} else if plan.Degraded {
			span.SetAttr("degraded_mode", plan.DegradedMode)
		}
	}
	return plan, err
}

// planGraphLadder is the DAG counterpart of planLadder: the requested plan
// plus the degradation ladder, with the lifetime-spill rung planning over
// the graph and only the last-resort baseline linearising it.
func planGraphLadder(ctx context.Context, cfg Config, g *Graph, o PlanOptions, prog Progress) (*Plan, error) {
	pl := &core.Planner{
		Cfg:             cfg,
		Objective:       o.Objective,
		DisablePrefetch: o.DisablePrefetch,
		InterLayer:      o.InterLayerReuse,
	}
	plan, err := planGraphRequested(ctx, pl, g, o.Homogeneous, prog)
	if err == nil {
		return plan, nil
	}
	if o.Strict || !errors.Is(err, smmerr.ErrInfeasible) {
		return nil, err
	}
	reasons := []core.DegradedReason{{Mode: "requested", Err: err.Error()}}

	if !o.DisablePrefetch {
		relaxed := *pl
		relaxed.DisablePrefetch = true
		plan, err = planGraphRequested(ctx, &relaxed, g, o.Homogeneous, prog)
		if err == nil {
			plan.MarkDegraded(core.DegradedPrefetchRelaxed, reasons)
			return plan, nil
		}
		if !errors.Is(err, smmerr.ErrInfeasible) {
			return nil, err
		}
		reasons = append(reasons, core.DegradedReason{Mode: core.DegradedPrefetchRelaxed, Err: err.Error()})
	}

	plan, err = pl.LifetimeSpillGraphCtx(ctx, g, prog)
	if err == nil {
		plan.MarkDegraded(core.DegradedLifetimeSpill, reasons)
		return plan, nil
	}
	if !errors.Is(err, smmerr.ErrInfeasible) {
		return nil, err
	}
	reasons = append(reasons, core.DegradedReason{Mode: core.DegradedLifetimeSpill, Err: err.Error()})

	plan, err = pl.BaselineFallbackCtx(ctx, g.Network(), prog)
	if err != nil {
		return nil, err
	}
	plan.MarkDegraded(core.DegradedBaseline, reasons)
	return plan, nil
}

// planGraphRequested runs the DAG planner exactly as the options ask.
func planGraphRequested(ctx context.Context, pl *core.Planner, g *Graph, homogeneous bool, prog Progress) (*Plan, error) {
	if homogeneous {
		return pl.BestHomogeneousGraphCtx(ctx, g, prog)
	}
	return pl.PlanGraphCtx(ctx, g, prog)
}
