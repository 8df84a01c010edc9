package core

import (
	"context"
	"fmt"

	"scratchmem/internal/layer"
	"scratchmem/internal/model"
	"scratchmem/internal/policy"
	"scratchmem/internal/progress"
	"scratchmem/internal/smmerr"
)

// Planner is the analyser of the paper's operational flow (Figure 4): it
// takes a model description and accelerator specification and emits an
// execution plan per the configured objective.
type Planner struct {
	// Cfg is the accelerator specification (GLB size, data width, compute
	// rate, off-chip bandwidth, padding rule).
	Cfg policy.Config
	// Objective selects between paper Algorithm 1 (MinAccesses) and its
	// latency counterpart.
	Objective Objective
	// DisablePrefetch removes the "+p" variants from the policy set
	// (the paper's Figure 10 ablation).
	DisablePrefetch bool
	// InterLayer enables inter-layer reuse (§5.4): a layer's ofmap may stay
	// resident in the GLB and feed the next layer's ifmap.
	InterLayer bool
	// InterLayerGreedy replaces the dynamic program over retention states
	// with a one-pass greedy rule (enable retention whenever the local pair
	// improves); an ablation knob — the DP is never worse.
	InterLayerGreedy bool
}

// NewPlanner returns a Planner with the paper's default accelerator
// specification for the given GLB size in kB and the given objective.
func NewPlanner(glbKB int, obj Objective) *Planner {
	return &Planner{Cfg: policy.Default(glbKB), Objective: obj}
}

// planIDs and prefetchAll back prefetchChoices and the candidate loops
// without per-call allocations.
var (
	planIDs     = policy.IDs()
	prefetchAll = [2]bool{false, true}
)

// prefetchChoices returns the prefetch settings the planner may use. The
// result aliases a shared read-only array; callers must not mutate it.
func (pl *Planner) prefetchChoices() []bool {
	if pl.DisablePrefetch {
		return prefetchAll[:1]
	}
	return prefetchAll[:]
}

// bestForLayer runs Algorithm 1's inner loop (lines 6-19) for layer idx
// under the given inter-layer options, returning the winning estimate or an
// infeasible fallback estimate if nothing fits. The question is answered
// through t, so the inter-layer DP's re-probes and repeated layer shapes
// sweep once per table.
func (pl *Planner) bestForLayer(t *sweepTable, n *model.Network, idx int, resident, keep bool) policy.Result {
	var r policy.Result
	t.answer(&r, &n.Layers[idx], resident, keep, false, pl.sweepLayer)
	return r
}

// sweepLayer is the candidate sweep behind bestForLayer: every policy and
// prefetch variant plus fallback tiling, keeping the first best under the
// planner's objective.
func (pl *Planner) sweepLayer(best *policy.Result, l *layer.Layer, resident, keep bool) {
	found := false
	consider := func(e *policy.Result) {
		if !found || better(pl.Objective, e, best) {
			*best = *e
			found = true
		}
	}
	sh := policy.NewShape(l, pl.Cfg.IncludePadding)
	var e policy.Result
	for _, id := range planIDs {
		for _, pf := range pl.prefetchChoices() {
			o := policy.Options{Prefetch: pf, ResidentIfmap: resident, KeepOfmap: keep}
			sh.EstimateFastInto(&e, id, o, pl.Cfg)
			if !e.Feasible {
				continue
			}
			consider(&e)
		}
	}
	// Algorithm 1's escape hatch — fallback tiling — is evaluated as a
	// first-class candidate: for some layers (e.g. tiny filter banks under
	// the latency objective) it beats every feasible standard policy, and
	// including it keeps Het dominant over every homogeneous scheme.
	for _, pf := range pl.prefetchChoices() {
		o := policy.Options{Prefetch: pf, ResidentIfmap: resident, KeepOfmap: keep}
		sh.FallbackInto(&e, o, pl.Cfg)
		if !e.Feasible {
			continue
		}
		consider(&e)
	}
	if !found {
		// Even fallback tiling does not fit; report the (infeasible)
		// fallback so callers can surface a precise error.
		sh.FallbackInto(best, policy.Options{ResidentIfmap: resident, KeepOfmap: keep}, pl.Cfg)
	}
}

// Heterogeneous produces the paper's Het scheme: the best feasible policy
// per layer. With InterLayer enabled it additionally decides, via dynamic
// programming over the resident/non-resident state, which transitions keep
// the producer's ofmap on-chip.
func (pl *Planner) Heterogeneous(n *model.Network) (*Plan, error) {
	return pl.HeterogeneousCtx(context.Background(), n, nil)
}

// HeterogeneousCtx is Heterogeneous with cancellation and observation: it
// checks ctx between layers (the paper's Algorithm 1 outer loop) and emits
// one progress event per planned layer. A canceled context returns an error
// wrapping ctx.Err() and identifying the layer reached. Like HomogeneousCtx
// and BestHomogeneousCtx, it answers through ctx's SweepTables when ctx
// carries one (WithSweepTables).
func (pl *Planner) HeterogeneousCtx(ctx context.Context, n *model.Network, prog progress.Func) (*Plan, error) {
	t := pl.sweepTableFor(ctx)
	defer sweepTablePut(t)
	return pl.heterogeneousIn(ctx, t, n, prog)
}

// heterogeneousIn is HeterogeneousCtx answering every per-layer question
// through t.
func (pl *Planner) heterogeneousIn(ctx context.Context, t *sweepTable, n *model.Network, prog progress.Func) (*Plan, error) {
	if err := pl.Cfg.Validate(); err != nil {
		return nil, smmerr.BadModel(err)
	}
	if err := n.Validate(); err != nil {
		return nil, smmerr.BadModel(err)
	}
	plan := &Plan{
		Model: n.Name, Cfg: pl.Cfg, Objective: pl.Objective,
		Scheme:               "het",
		ChainableTransitions: countChainable(n),
	}
	var err error
	switch {
	case pl.InterLayer && pl.InterLayerGreedy:
		plan.Layers, err = pl.interLayerGreedy(ctx, t, n, prog)
	case pl.InterLayer:
		plan.Layers, err = pl.interLayerDP(ctx, t, n, prog)
	default:
		plan.Layers, err = pl.independentLayers(ctx, t, n, prog)
	}
	if err != nil {
		return nil, err
	}
	return plan, nil
}

func (pl *Planner) independentLayers(ctx context.Context, t *sweepTable, n *model.Network, prog progress.Func) ([]LayerPlan, error) {
	out := make([]LayerPlan, len(n.Layers))
	var accesses, cycles int64
	for i := range n.Layers {
		if err := layerGate(ctx); err != nil {
			return nil, smmerr.Layer(i, n.Layers[i].Name, err)
		}
		out[i].Layer = n.Layers[i]
		e := &out[i].Est
		t.answer(e, &n.Layers[i], false, false, false, pl.sweepLayer)
		if !e.Feasible {
			return nil, smmerr.Layer(i, n.Layers[i].Name,
				&smmerr.InfeasibleError{Model: n.Name, Layer: n.Layers[i].Name, Need: e.MemoryBytes, Have: pl.Cfg.GLBBytes})
		}
		accesses += e.AccessElems
		cycles += e.LatencyCycles
		if prog != nil {
			prog(progress.Event{Phase: "plan", Index: i, Total: len(n.Layers), Name: n.Layers[i].Name,
				Policy: policy.ShortVariant(e.Policy, e.Opts.Prefetch), AccessElems: accesses, LatencyCycles: cycles})
		}
	}
	return out, nil
}

// dpInf marks an unreachable DP state's cost.
const dpInf = int64(1) << 62

// dpCell is one state of the inter-layer DP table: the best cumulative
// (prim, sec) objective cost entering a layer with the given resident state,
// plus the decision (estimate, keep, predecessor state) that achieved it.
type dpCell struct {
	prim, sec int64
	est       policy.Result
	keep      bool
	prev      int // predecessor state
	ok        bool
}

// dpStep computes dp[i+1] from dp[i]: the transition over layer i, trying
// KeepOfmap only when the shapes chain.
func (pl *Planner) dpStep(t *sweepTable, n *model.Network, i int, cur *[2]dpCell) [2]dpCell {
	L := len(n.Layers)
	next := [2]dpCell{{prim: dpInf, sec: dpInf}, {prim: dpInf, sec: dpInf}}
	canKeep := i+1 < L && chainable(&n.Layers[i], &n.Layers[i+1])
	for s := 0; s < 2; s++ {
		if !cur[s].ok {
			continue
		}
		keeps := prefetchAll[:1] // {false}
		if canKeep {
			keeps = prefetchAll[:] // {false, true}
		}
		for _, keep := range keeps {
			e := pl.bestForLayer(t, n, i, s == 1, keep)
			if !e.Feasible {
				continue
			}
			p, sc := objectiveKey(pl.Objective, &e)
			cand := dpCell{
				prim: cur[s].prim + p, sec: cur[s].sec + sc,
				est: e, keep: keep, prev: s, ok: true,
			}
			ns := 0
			if keep {
				ns = 1
			}
			c := &next[ns]
			if !c.ok || cand.prim < c.prim || (cand.prim == c.prim && cand.sec < c.sec) {
				*c = cand
			}
		}
	}
	return next
}

// dpInfeasible reports the no-feasible-plan failure precisely: the first
// layer that cannot be scheduled at all, or the generic inter-layer error
// when every layer fits in isolation.
func (pl *Planner) dpInfeasible(t *sweepTable, n *model.Network) error {
	for i := range n.Layers {
		e := pl.bestForLayer(t, n, i, false, false)
		if !e.Feasible {
			return smmerr.Layer(i, n.Layers[i].Name,
				&smmerr.InfeasibleError{Model: n.Name, Layer: n.Layers[i].Name, Need: e.MemoryBytes, Have: pl.Cfg.GLBBytes})
		}
	}
	return fmt.Errorf("core: %s: no feasible inter-layer plan: %w", n.Name, smmerr.ErrInfeasible)
}

// interLayerDP chooses per-layer policies and inter-layer retention jointly:
// state s indicates whether layer i's ifmap is resident in the GLB. The
// transition cost is the layer's objective key; retention (KeepOfmap) is
// only permitted on transitions whose shapes chain.
func (pl *Planner) interLayerDP(ctx context.Context, t *sweepTable, n *model.Network, prog progress.Func) ([]LayerPlan, error) {
	L := len(n.Layers)
	// dp[i][s]: best cumulative cost entering layer i with resident state s.
	dp := dpTableGet(L + 1)
	defer dpTablePut(dp)
	dp[0][0] = dpCell{ok: true}
	dp[0][1] = dpCell{prim: dpInf, sec: dpInf}

	for i := 0; i < L; i++ {
		if err := layerGate(ctx); err != nil {
			return nil, smmerr.Layer(i, n.Layers[i].Name, err)
		}
		dp[i+1] = pl.dpStep(t, n, i, &dp[i])
		prog.Emit(progress.Event{Phase: "plan", Index: i, Total: L, Name: n.Layers[i].Name})
	}
	// Pick the terminal state (the usual prim-then-sec order), then walk
	// the predecessor links back into layer plans.
	last := &dp[L]
	s := 0
	if last[1].ok && (!last[0].ok || last[1].prim < last[0].prim ||
		(last[1].prim == last[0].prim && last[1].sec < last[0].sec)) {
		s = 1
	}
	if !last[s].ok {
		return nil, pl.dpInfeasible(t, n)
	}
	out := make([]LayerPlan, L)
	for i := L - 1; i >= 0; i-- {
		c := &dp[i+1][s]
		out[i] = LayerPlan{
			Layer:            n.Layers[i],
			Est:              c.est,
			ConsumesResident: c.prev == 1,
			KeepsResident:    c.keep,
		}
		s = c.prev
	}
	return out, nil
}

// HomogeneousCtx produces a plan that applies one (policy, ±prefetch)
// variant to every layer, falling back to fallback tiling on layers where
// the variant does not fit (the paper's Hom schemes must still execute every
// layer). It runs with per-layer cancellation checks and progress events.
func (pl *Planner) HomogeneousCtx(ctx context.Context, n *model.Network, id policy.ID, prefetch bool, prog progress.Func) (*Plan, error) {
	if err := pl.Cfg.Validate(); err != nil {
		return nil, smmerr.BadModel(err)
	}
	if err := n.Validate(); err != nil {
		return nil, smmerr.BadModel(err)
	}
	t := pl.sweepTableFor(ctx)
	defer sweepTablePut(t)
	return pl.homogeneousPlanned(ctx, t, n, id, prefetch, prog)
}

// homogeneousPlanned is HomogeneousCtx after validation — also the walk
// that materialises BestHomogeneousCtx's winning variant.
func (pl *Planner) homogeneousPlanned(ctx context.Context, t *sweepTable, n *model.Network, id policy.ID, prefetch bool, prog progress.Func) (*Plan, error) {
	plan := &Plan{
		Model: n.Name, Cfg: pl.Cfg, Objective: pl.Objective,
		Scheme:               "hom " + policy.Variant(id, prefetch),
		ChainableTransitions: countChainable(n),
	}
	plan.Layers = make([]LayerPlan, 0, len(n.Layers))
	var accesses, cycles int64
	for i := range n.Layers {
		if err := layerGate(ctx); err != nil {
			return nil, smmerr.Layer(i, n.Layers[i].Name, err)
		}
		l := &n.Layers[i]
		// Fill the plan slot in place: the estimate lands directly in its
		// final location instead of bouncing through stack copies.
		plan.Layers = append(plan.Layers, LayerPlan{Layer: *l})
		e := &plan.Layers[i].Est
		*e = policy.EstimateFast(l, id, policy.Options{Prefetch: prefetch}, pl.Cfg)
		if !e.Feasible {
			t.answer(e, l, false, false, true, pl.sweepFallback)
			if !e.Feasible {
				return nil, smmerr.Layer(i, l.Name,
					&smmerr.InfeasibleError{Model: n.Name, Layer: l.Name, Need: e.MemoryBytes, Have: pl.Cfg.GLBBytes})
			}
		}
		accesses += e.AccessElems
		cycles += e.LatencyCycles
		if prog != nil {
			prog(progress.Event{Phase: "plan", Index: i, Total: len(n.Layers), Name: l.Name,
				Policy: policy.ShortVariant(e.Policy, e.Opts.Prefetch), AccessElems: accesses, LatencyCycles: cycles})
		}
	}
	return plan, nil
}

// sweepFallback writes the best fallback tiling for l under the inter-layer
// flags: the escape hatch of a homogeneous variant that does not fit.
func (pl *Planner) sweepFallback(best *policy.Result, l *layer.Layer, resident, keep bool) {
	found := false
	for _, pf := range pl.prefetchChoices() {
		e := policy.FallbackEstimate(l, policy.Options{Prefetch: pf, ResidentIfmap: resident, KeepOfmap: keep}, pl.Cfg)
		if e.Feasible && (!found || better(pl.Objective, &e, best)) {
			*best = e
			found = true
		}
	}
	if !found {
		*best = policy.FallbackEstimate(l, policy.Options{ResidentIfmap: resident, KeepOfmap: keep}, pl.Cfg)
	}
}

// homVariant is one homogeneous candidate scheme: a policy with or without
// prefetching.
type homVariant struct {
	id policy.ID
	pf bool
}

func homVariants(prefetch []bool) []homVariant {
	variants := make([]homVariant, 0, 2*len(planIDs))
	for _, id := range planIDs {
		for _, pf := range prefetch {
			variants = append(variants, homVariant{id, pf})
		}
	}
	return variants
}

// maxHomVariants bounds the homogeneous candidate set: every policy with
// and without prefetching.
const maxHomVariants = 2 * policy.NumPolicies

// homContrib is one (shape, variant) cell of the homogeneous search: the
// totals a layer of this shape adds under that variant, or the fallback's
// footprint when even it does not fit (the infeasibility report needs it).
type homContrib struct {
	acc, lat, need int64
	ok             bool
}

// homContribs is the dense per-variant contribution row for one shape,
// indexed by position in homVariants' deterministic order.
type homContribs [maxHomVariants]homContrib

// BestHomogeneousCtx evaluates every homogeneous scheme (each policy, with
// and without prefetching) and returns the one minimising the objective —
// the paper's Hom bars. It runs with cancellation and observation. Networks
// repeat layer shapes heavily, and the estimators are pure functions of
// (shape, variant, config), so the search dedupes the network into its
// distinct shapes, sweeps every variant once per shape, and scores variants
// by accumulating the dense per-shape contributions in layer order. Totals,
// failure layers and tie-breaks are exactly those of planning each variant
// in turn; only the winning variant's plan is materialised, and prog
// receives that walk's one event per layer. Cancellation and injected faults
// surface immediately rather than being mistaken for an infeasible variant.
func (pl *Planner) BestHomogeneousCtx(ctx context.Context, n *model.Network, prog progress.Func) (*Plan, error) {
	t := pl.sweepTableFor(ctx)
	defer sweepTablePut(t)
	return pl.bestHomogeneousIn(ctx, t, n, prog)
}

// bestHomogeneousIn is BestHomogeneousCtx answering every fallback
// question through t.
func (pl *Planner) bestHomogeneousIn(ctx context.Context, t *sweepTable, n *model.Network, prog progress.Func) (*Plan, error) {
	if err := pl.Cfg.Validate(); err != nil {
		return nil, smmerr.BadModel(err)
	}
	if err := n.Validate(); err != nil {
		return nil, smmerr.BadModel(err)
	}
	variants := homVariants(pl.prefetchChoices())
	L := len(n.Layers)
	hs := homScratchGet(L)
	defer homScratchPut(hs)
	shapeIdx := hs.shapeIdx // layer -> dense shape index
	idxOf := hs.idxOf
	for i := range n.Layers {
		k := policy.KeyOf(&n.Layers[i])
		j, ok := idxOf[k]
		if !ok {
			j = len(hs.repLayer)
			idxOf[k] = j
			hs.repLayer = append(hs.repLayer, i)
		}
		shapeIdx[i] = j
	}
	repLayer := hs.repLayer // shape index -> representative layer
	if cap(hs.contribs) < len(repLayer) {
		hs.contribs = make([]homContribs, len(repLayer))
	}
	contribs := hs.contribs[:len(repLayer)]
	for si, li := range repLayer {
		if err := layerGate(ctx); err != nil {
			return nil, smmerr.Layer(li, n.Layers[li].Name, err)
		}
		l := &n.Layers[li]
		sh := policy.NewShape(l, pl.Cfg.IncludePadding)
		row := &contribs[si]
		var e policy.Result
		for vi, v := range variants {
			sh.EstimateFastInto(&e, v.id, policy.Options{Prefetch: v.pf}, pl.Cfg)
			if !e.Feasible {
				t.answer(&e, l, false, false, true, pl.sweepFallback)
			}
			if e.Feasible {
				row[vi] = homContrib{acc: e.AccessElems, lat: e.LatencyCycles, ok: true}
			} else {
				row[vi] = homContrib{need: e.MemoryBytes}
			}
		}
	}
	// Score variants in variant order; within one, walk layers in order so
	// the failure layer and the running sums match the sequential pass.
	bestIdx := -1
	var bestTotals [2]int64
	var firstErr error
	for vi := range variants {
		var acc, lat int64
		var verr error
		for i := 0; i < L; i++ {
			c := &contribs[shapeIdx[i]][vi]
			if !c.ok {
				verr = smmerr.Layer(i, n.Layers[i].Name,
					&smmerr.InfeasibleError{Model: n.Name, Layer: n.Layers[i].Name, Need: c.need, Have: pl.Cfg.GLBBytes})
				break
			}
			acc += c.acc
			lat += c.lat
		}
		if verr != nil {
			if firstErr == nil {
				firstErr = verr
			}
			continue
		}
		totals := [2]int64{acc, lat}
		if bestIdx < 0 || totalsBetter(pl.Objective, totals, bestTotals) {
			bestIdx, bestTotals = vi, totals
		}
	}
	if bestIdx < 0 {
		return nil, firstErr
	}
	return pl.homogeneousPlanned(ctx, t, n, variants[bestIdx].id, variants[bestIdx].pf, prog)
}

// totalsBetter reports whether the {accesses, cycles} sums a beat b under
// the objective.
func totalsBetter(o Objective, a, b [2]int64) bool {
	ap, as, bp, bs := a[0], a[1], b[0], b[1]
	if o == MinLatency {
		ap, as, bp, bs = a[1], a[0], b[1], b[0]
	}
	if ap != bp {
		return ap < bp
	}
	return as < bs
}

// interLayerGreedy makes retention decisions in one forward pass: at each
// chainable transition it compares the local cost of (keep producer ofmap +
// consumer reads resident ifmap) against both layers running plainly, and
// retains when the pair improves. Unlike the DP it cannot see that an early
// retention forecloses a better one later, so it serves as the ablation
// baseline for interLayerDP.
func (pl *Planner) interLayerGreedy(ctx context.Context, t *sweepTable, n *model.Network, prog progress.Func) ([]LayerPlan, error) {
	L := len(n.Layers)
	out := make([]LayerPlan, L)
	resident := false
	var accesses, cycles int64
	for i := 0; i < L; i++ {
		if err := layerGate(ctx); err != nil {
			return nil, smmerr.Layer(i, n.Layers[i].Name, err)
		}
		plain := pl.bestForLayer(t, n, i, resident, false)
		keep := false
		best := plain
		if i+1 < L && chainable(&n.Layers[i], &n.Layers[i+1]) {
			withKeep := pl.bestForLayer(t, n, i, resident, true)
			if withKeep.Feasible {
				nextPlain := pl.bestForLayer(t, n, i+1, false, false)
				nextResident := pl.bestForLayer(t, n, i+1, true, false)
				if nextResident.Feasible {
					kp, ks := objectiveKey(pl.Objective, &withKeep)
					np, ns := objectiveKey(pl.Objective, &nextResident)
					pp, psec := objectiveKey(pl.Objective, &plain)
					qp, qs := objectiveKey(pl.Objective, &nextPlain)
					pairKeep, pairKeepSec := kp+np, ks+ns
					pairPlain, pairPlainSec := pp+qp, psec+qs
					if pairKeep < pairPlain || (pairKeep == pairPlain && pairKeepSec < pairPlainSec) {
						keep, best = true, withKeep
					}
				}
			}
		}
		if !best.Feasible {
			return nil, smmerr.Layer(i, n.Layers[i].Name,
				&smmerr.InfeasibleError{Model: n.Name, Layer: n.Layers[i].Name, Need: best.MemoryBytes, Have: pl.Cfg.GLBBytes})
		}
		out[i] = LayerPlan{Layer: n.Layers[i], Est: best, ConsumesResident: resident, KeepsResident: keep}
		accesses += best.AccessElems
		cycles += best.LatencyCycles
		prog.Emit(progress.Event{Phase: "plan", Index: i, Total: L, Name: n.Layers[i].Name,
			Policy: policy.ShortVariant(best.Policy, best.Opts.Prefetch), AccessElems: accesses, LatencyCycles: cycles})
		resident = keep
	}
	return out, nil
}
