package core

import (
	"context"
	"errors"
	"fmt"

	"scratchmem/internal/layer"
	"scratchmem/internal/lifetime"
	"scratchmem/internal/model"
	"scratchmem/internal/policy"
	"scratchmem/internal/progress"
	"scratchmem/internal/smmerr"
)

// Spill strategies recorded for interior tensors the planner decided not to
// keep resident (Li et al.'s tensor-replacement test, adapted to the GLB
// traffic model). The choice is advisory: plan accounting always charges
// the evict figures — each consumer re-loads the tensor from DRAM — so a
// recorded "recompute" marks where a rematerialising backend could do
// strictly better than the plan's totals claim.
const (
	// SpillEvict streams the tensor to DRAM at its producer and re-loads it
	// at each consumer.
	SpillEvict = "evict"
	// SpillRecompute drops the tensor and re-runs its producer per
	// consumer — cheaper when the producer's whole off-chip traffic is
	// below the tensor's store-plus-reload cost.
	SpillRecompute = "recompute"
)

// TensorPlan is one produced tensor's lifetime decision in a DAG plan:
// its live interval in schedule steps and, when kept resident, the concrete
// GLB byte range the interval allocator assigned.
type TensorPlan struct {
	Name string
	// Producer and LastUse are plan positions (indices into Plan.Layers):
	// the tensor is born when Layers[Producer] runs and dies after
	// Layers[LastUse]. LastUse == Producer for tensors nothing consumes.
	Producer int
	LastUse  int
	Elems    int64
	Bytes    int64
	// Resident is true when the tensor parks in the GLB for its whole
	// lifetime at the address range [Base, End).
	Resident bool
	Base     int64
	End      int64
	// Spill names the cheaper replacement strategy (SpillEvict or
	// SpillRecompute) for interior tensors not kept resident; "" otherwise.
	Spill string
}

// nodeEstimator produces the winning estimate for one layer under the given
// inter-layer flags — the pluggable per-node half of the DAG planner, and
// the sweep a sweepTable runs on a miss. Implementations must be pure
// functions of the layer's shape and the flags, and must honour the flags:
// the returned estimate's Opts.ResidentIfmap/KeepOfmap equal the arguments
// even when infeasible, so the planner's demotion loop can attribute the
// shortfall.
type nodeEstimator func(e *policy.Result, l *layer.Layer, resident, keep bool)

// fullNodeEstimator is the Het per-node sweep: Algorithm 1's inner loop
// over every policy, prefetch variant and fallback tiling.
func (pl *Planner) fullNodeEstimator() nodeEstimator { return pl.sweepLayer }

// minimalNodeEstimator restricts each node to the smallest-footprint
// schedules — P4/P5 pinned to a single-filter block and fallback tiling,
// no prefetch — the candidate set of the lifetime_spill ladder rung.
func (pl *Planner) minimalNodeEstimator() nodeEstimator {
	return func(e *policy.Result, l *layer.Layer, resident, keep bool) {
		o := policy.Options{ResidentIfmap: resident, KeepOfmap: keep}
		cands := [3]policy.Result{
			policy.EstimateN(l, policy.P4PartialIfmap, o, pl.Cfg, 1),
			policy.EstimateN(l, policy.P5PartialPerChannel, o, pl.Cfg, 1),
			policy.FallbackEstimate(l, o, pl.Cfg),
		}
		found := false
		for j := range cands {
			if !cands[j].Feasible {
				continue
			}
			if !found || better(pl.Objective, &cands[j], e) {
				*e = cands[j]
				found = true
			}
		}
		if !found {
			// The infeasible fallback carries the precise shortfall.
			*e = cands[2]
		}
	}
}

// homNodeEstimator pins every node to one policy variant, falling back to
// the best fallback tiling only when the variant is infeasible with no
// inter-layer flags raised (with flags raised the demotion loop must see
// the failure and clear them first).
func (pl *Planner) homNodeEstimator(id policy.ID, prefetch bool) nodeEstimator {
	return func(e *policy.Result, l *layer.Layer, resident, keep bool) {
		o := policy.Options{Prefetch: prefetch, ResidentIfmap: resident, KeepOfmap: keep}
		*e = policy.EstimateFast(l, id, o, pl.Cfg)
		if !e.Feasible && !resident && !keep {
			pl.sweepFallback(e, l, false, false)
		}
	}
}

// PlanGraphCtx plans a tensor-lifetime graph heterogeneously: a DAG-aware
// schedule (lifetime.Schedule), per-node Algorithm-1 policy selection, and
// address-ranged GLB residency for every tensor worth keeping on-chip.
// Layers appear in the plan in schedule order; Plan.Schedule maps each
// position back to the graph node it runs and Plan.Tensors records every
// tensor's live interval, byte range and spill decision.
func (pl *Planner) PlanGraphCtx(ctx context.Context, g *model.Graph, prog progress.Func) (*Plan, error) {
	return pl.planGraph(ctx, g, pl.fullNodeEstimator(), "het dag", prog)
}

// PlanGraph is PlanGraphCtx without cancellation or observation.
func (pl *Planner) PlanGraph(g *model.Graph) (*Plan, error) {
	return pl.PlanGraphCtx(context.Background(), g, nil)
}

// BestHomogeneousGraphCtx searches every homogeneous policy variant over
// the DAG pipeline and returns the best whole-graph plan under the
// objective. Progress events are tagged with the variant's Cell label:
// every variant is planned in turn, and each pass emits its own events.
func (pl *Planner) BestHomogeneousGraphCtx(ctx context.Context, g *model.Graph, prog progress.Func) (*Plan, error) {
	var best *Plan
	var lastErr error
	for _, v := range homVariants(pl.prefetchChoices()) {
		cell := policy.ShortVariant(v.id, v.pf)
		var vprog progress.Func
		if prog != nil {
			vprog = func(ev progress.Event) {
				ev.Cell = cell
				prog(ev)
			}
		}
		p, err := pl.planGraph(ctx, g, pl.homNodeEstimator(v.id, v.pf),
			"hom "+policy.Variant(v.id, v.pf)+" dag", vprog)
		if err != nil {
			if !errors.Is(err, smmerr.ErrInfeasible) {
				return nil, err
			}
			lastErr = err
			continue
		}
		if best == nil || planBetter(pl.Objective, p, best) {
			best = p
		}
	}
	if best == nil {
		return nil, lastErr
	}
	return best, nil
}

// LifetimeSpillCtx is the degradation ladder's allocator-backed rung: the
// minimal-footprint candidate set planned over the network's tensor-lifetime
// graph, so inter-layer residency and explicit spill decisions recover
// traffic the flat minimal-tiling sweep left on the table. It succeeds
// whenever the old rung did — the residency search degrades to the
// all-demoted configuration, which is exactly the flat sweep.
func (pl *Planner) LifetimeSpillCtx(ctx context.Context, n *model.Network, prog progress.Func) (*Plan, error) {
	if err := n.Validate(); err != nil {
		return nil, smmerr.BadModel(err)
	}
	return pl.LifetimeSpillGraphCtx(ctx, model.FromNetwork(n), prog)
}

// LifetimeSpillGraphCtx is LifetimeSpillCtx for models that are already
// tensor-lifetime graphs — the graph ladder's penultimate rung.
func (pl *Planner) LifetimeSpillGraphCtx(ctx context.Context, g *model.Graph, prog progress.Func) (*Plan, error) {
	return pl.planGraph(ctx, g, pl.minimalNodeEstimator(), DegradedLifetimeSpill, prog)
}

// nodeDecision is the DAG planner's per-node choice: the winning estimate
// and the inter-layer flags it was estimated under.
type nodeDecision struct {
	est   policy.Result
	resIn bool // whole ifmap read from resident GLB tensors
	keep  bool // ofmap retained in its allocator range for later consumers
}

// planGraph is the engine behind every DAG entry point: schedule the graph,
// decide tensor residency, allocate address ranges, pick per-node policies
// and assemble the plan in schedule order. Every node question goes through
// one sweep table, whatever the estimator, so the residency search's
// demotion trials re-probe the table instead of re-running est.
func (pl *Planner) planGraph(ctx context.Context, g *model.Graph, est nodeEstimator, scheme string, prog progress.Func) (*Plan, error) {
	t := sweepTableGet()
	defer sweepTablePut(t)
	return pl.planGraphIn(ctx, t, g, est, scheme, prog)
}

// planGraphIn is planGraph answering every node question through t.
func (pl *Planner) planGraphIn(ctx context.Context, t *sweepTable, g *model.Graph, est nodeEstimator, scheme string, prog progress.Func) (*Plan, error) {
	if err := pl.Cfg.Validate(); err != nil {
		return nil, smmerr.BadModel(err)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	order := lifetime.Schedule(g)
	lv := lifetime.Analyze(g, order)
	exact := exactInputs(g)

	// Start from the most aggressive configuration — every interior tensor
	// resident — and let the feasibility, allocator and working-set checks
	// demote tensors until the whole schedule fits.
	resident := make(map[string]bool)
	for i := range lv.Tensors {
		if lv.Tensors[i].Interior() {
			resident[lv.Tensors[i].Name] = true
		}
	}
	dec, placed, err := pl.solveGraph(ctx, t, g, lv, exact, resident, est)
	if err != nil {
		return nil, err
	}

	// Residency is not free: a resident ifmap pins the full input in the
	// GLB, which can force a node onto a worse schedule than streaming
	// would. Greedily demote whichever single tensor most improves the plan
	// total until none does.
	cur := decTotals(dec)
	for {
		var bestSet map[string]bool
		var bestDec []nodeDecision
		var bestPlaced map[string]lifetime.Placement
		bestTot := cur
		for j := range lv.Tensors {
			name := lv.Tensors[j].Name
			if !resident[name] {
				continue
			}
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("core: planning graph %s: %w", g.Name, err)
			}
			trial := cloneSet(resident)
			trial[name] = false
			d2, p2, err := pl.solveGraph(ctx, t, g, lv, exact, trial, est)
			if err != nil {
				continue
			}
			if t2 := decTotals(d2); totalsBetter(pl.Objective, t2, bestTot) {
				bestSet, bestDec, bestPlaced, bestTot = trial, d2, p2, t2
			}
		}
		if bestSet == nil {
			break
		}
		resident, dec, placed, cur = bestSet, bestDec, bestPlaced, bestTot
	}

	// Final guard: never ship a DAG plan worse than the residency-free one,
	// which matches the linear planner's per-layer totals node for node.
	off := make(map[string]bool)
	if d0, err := pl.evalGraph(t, g, lv, exact, off, est); err == nil {
		if totalsBetter(pl.Objective, decTotals(d0), cur) {
			dec, placed = d0, map[string]lifetime.Placement{}
		}
	}

	plan := &Plan{
		Model: g.Name, Cfg: pl.Cfg, Objective: pl.Objective,
		Scheme:   scheme,
		Schedule: append([]int(nil), lv.Order...),
	}
	plan.Layers = make([]LayerPlan, len(lv.Order))
	var accesses, cycles int64
	for k, i := range lv.Order {
		if err := layerGate(ctx); err != nil {
			return nil, smmerr.Layer(i, g.Nodes[i].Layer.Name, err)
		}
		d := &dec[k]
		plan.Layers[k] = LayerPlan{Layer: g.Nodes[i].Layer, Est: d.est,
			ConsumesResident: d.resIn, KeepsResident: d.keep}
		accesses += d.est.AccessElems
		cycles += d.est.LatencyCycles
		prog.Emit(progress.Event{Phase: "plan", Index: k, Total: len(lv.Order), Name: g.Nodes[i].Layer.Name,
			Policy:      policy.ShortVariant(d.est.Policy, d.est.Opts.Prefetch),
			AccessElems: accesses, LatencyCycles: cycles})
	}
	for k := 0; k+1 < len(plan.Layers); k++ {
		if chainable(&plan.Layers[k].Layer, &plan.Layers[k+1].Layer) {
			plan.ChainableTransitions++
		}
	}
	plan.Tensors = pl.tensorTable(lv, dec, placed)
	return plan, nil
}

// solveGraph iterates the three feasibility checks to a fixed point:
// per-node estimates fit the GLB (evalGraph demotes on failure), the
// interval allocator places every resident tensor, and every step's
// resident high-water mark leaves room for the running node's working set.
// Each failed check demotes one tensor and retries, so the loop terminates
// (the resident set only shrinks, and the empty set always passes the
// allocator and working-set checks).
func (pl *Planner) solveGraph(ctx context.Context, t *sweepTable, g *model.Graph, lv *lifetime.Liveness, exact []bool, resident map[string]bool, est nodeEstimator) ([]nodeDecision, map[string]lifetime.Placement, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, nil, fmt.Errorf("core: planning graph %s: %w", g.Name, err)
		}
		dec, err := pl.evalGraph(t, g, lv, exact, resident, est)
		if err != nil {
			return nil, nil, err
		}
		placed, fail, ok := lifetime.Assign(lv, resident, pl.Cfg.GLBBytes, pl.Cfg.Bytes)
		if !ok {
			demoteLiveAt(lv, resident, lv.Tensors[fail].Step)
			continue
		}
		if k := pl.worksetOverflow(g, lv, dec, placed); k >= 0 {
			demoteLiveAt(lv, resident, k)
			continue
		}
		return dec, placed, nil
	}
}

// evalGraph computes every node's decision under the current resident set,
// demoting tensors out of residency whenever a node's estimate exceeds the
// GLB with inter-layer flags raised. It mutates resident. A node infeasible
// even with no flags raised fails the whole evaluation with ErrInfeasible.
func (pl *Planner) evalGraph(t *sweepTable, g *model.Graph, lv *lifetime.Liveness, exact []bool, resident map[string]bool, est nodeEstimator) ([]nodeDecision, error) {
restart:
	for {
		dec := make([]nodeDecision, len(lv.Order))
		for k, i := range lv.Order {
			nd := &g.Nodes[i]
			d := &dec[k]
			d.resIn = residentInputs(nd, exact[i], resident)
			d.keep = resident[nd.Layer.Name]
			t.answer(&d.est, &nd.Layer, d.resIn, d.keep, false, est)
			if d.est.Feasible {
				continue
			}
			if d.keep {
				resident[nd.Layer.Name] = false
				continue restart
			}
			if d.resIn {
				demoteLargestInput(nd, lv, resident)
				continue restart
			}
			return nil, smmerr.Layer(i, nd.Layer.Name,
				&smmerr.InfeasibleError{Model: g.Name, Layer: nd.Layer.Name, Need: d.est.MemoryBytes, Have: pl.Cfg.GLBBytes})
		}
		return dec, nil
	}
}

// residentInputs reports whether a node's whole ifmap can be read from the
// GLB: its inputs tile the ifmap exactly and every one is resident.
// Residual side-reads are intentionally excluded — the layer estimators
// model the main ifmap stream only, so residuals pin lifetimes but never
// flip a node's traffic accounting.
func residentInputs(nd *model.GraphNode, exact bool, resident map[string]bool) bool {
	if !exact {
		return false
	}
	for _, t := range nd.Inputs {
		if !resident[t] {
			return false
		}
	}
	return true
}

// exactInputs reports, per node, whether its produced inputs tile its ifmap
// exactly: every input tensor matches the node's spatial extent and the
// channel counts sum to CI. Only exact readers can consume a resident
// tensor for free — pooled and flattened views (ContinuousView's
// relaxations) read a transformed copy, which streams through working
// memory even when the source tensor sits in the GLB, exactly as the
// linear planner only retains ofmaps across chainable transitions.
func exactInputs(g *model.Graph) []bool {
	prod := make(map[string]*layer.Layer, len(g.Nodes))
	for i := range g.Nodes {
		prod[g.Nodes[i].Layer.Name] = &g.Nodes[i].Layer
	}
	out := make([]bool, len(g.Nodes))
	for i := range g.Nodes {
		nd := &g.Nodes[i]
		if len(nd.Inputs) == 0 {
			continue
		}
		sum, ok := 0, true
		for _, t := range nd.Inputs {
			p := prod[t]
			if p == nil || p.OH() != nd.Layer.IH || p.OW() != nd.Layer.IW {
				ok = false
				break
			}
			sum += p.CO()
		}
		out[i] = ok && sum == nd.Layer.CI
	}
	return out
}

// demoteLargestInput demotes the biggest resident input of a node whose
// estimate no longer fits — freeing the most bytes per decision.
func demoteLargestInput(nd *model.GraphNode, lv *lifetime.Liveness, resident map[string]bool) {
	victim, size := "", int64(-1)
	for _, t := range nd.Inputs {
		if model.IsExternalTensor(t) || !resident[t] {
			continue
		}
		if e := lv.Tensors[lv.Index[t]].Elems; e > size {
			victim, size = t, e
		}
	}
	resident[victim] = false
}

// demoteLiveAt demotes the largest resident tensor live at the given step —
// the allocator or working-set check found the step over capacity, and
// evicting the biggest parked tensor frees the most room per decision.
func demoteLiveAt(lv *lifetime.Liveness, resident map[string]bool, step int) {
	victim, size := "", int64(-1)
	for i := range lv.Tensors {
		t := &lv.Tensors[i]
		if !resident[t.Name] || t.Step > step || step > t.LastUse {
			continue
		}
		if t.Elems > size {
			victim, size = t.Name, t.Elems
		}
	}
	if victim == "" {
		// Unreachable: both callers fail on a step with at least one live
		// resident tensor.
		panic("core: no resident tensor to demote")
	}
	resident[victim] = false
}

// worksetOverflow checks, per schedule step, that the allocator's ranges
// leave room for the running node's working set. First-fit packs resident
// tensors low, so everything above the step's highest live End is free and
// contiguous; the node's tiles, double buffers and streaming terms must fit
// there. Returns the first overflowing step, or -1.
func (pl *Planner) worksetOverflow(g *model.Graph, lv *lifetime.Liveness, dec []nodeDecision, placed map[string]lifetime.Placement) int {
	for k, i := range lv.Order {
		var maxEnd int64
		for j := range lv.Tensors {
			t := &lv.Tensors[j]
			if t.Step > k || k > t.LastUse {
				continue
			}
			if s, ok := placed[t.Name]; ok && s.End > maxEnd {
				maxEnd = s.End
			}
		}
		if maxEnd+pl.workingBytes(&g.Nodes[i].Layer, &dec[k]) > pl.Cfg.GLBBytes {
			return k
		}
	}
	return -1
}

// workingBytes is the part of a node's estimated footprint the allocator
// does not already account for: the estimate minus the resident-ifmap and
// retained-ofmap terms, which live in allocator-managed ranges.
func (pl *Planner) workingBytes(l *layer.Layer, d *nodeDecision) int64 {
	elems := d.est.MemoryElems
	if d.resIn {
		elems -= l.IfmapElems(false)
	}
	if d.keep {
		elems -= l.OfmapElems()
	}
	if elems < 0 {
		elems = 0
	}
	return pl.Cfg.Bytes(elems)
}

// tensorTable renders the lifetime analysis plus residency decisions as the
// plan's tensor table, deciding the spill strategy for every interior
// tensor left non-resident.
func (pl *Planner) tensorTable(lv *lifetime.Liveness, dec []nodeDecision, placed map[string]lifetime.Placement) []TensorPlan {
	out := make([]TensorPlan, len(lv.Tensors))
	for i := range lv.Tensors {
		t := &lv.Tensors[i]
		tp := TensorPlan{
			Name: t.Name, Producer: t.Step, LastUse: t.LastUse,
			Elems: t.Elems, Bytes: pl.Cfg.Bytes(t.Elems),
		}
		if s, ok := placed[t.Name]; ok {
			tp.Resident, tp.Base, tp.End = true, s.Base, s.End
		} else if t.Interior() {
			evict := t.Elems * int64(1+len(t.Consumers))
			recompute := dec[t.Step].est.AccessElems * int64(len(t.Consumers))
			if recompute < evict {
				tp.Spill = SpillRecompute
			} else {
				tp.Spill = SpillEvict
			}
		}
		out[i] = tp
	}
	return out
}

// decTotals sums the decisions' traffic and latency as a totalsBetter pair.
func decTotals(dec []nodeDecision) [2]int64 {
	var t [2]int64
	for i := range dec {
		t[0] += dec[i].est.AccessElems
		t[1] += dec[i].est.LatencyCycles
	}
	return t
}

func cloneSet(m map[string]bool) map[string]bool {
	c := make(map[string]bool, len(m))
	for k, v := range m {
		if v {
			c[k] = true
		}
	}
	return c
}
