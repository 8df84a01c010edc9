// Incremental (differential) planning: most serving traffic — DSE sweeps,
// batch requests, multi-tenant re-plans — consists of near-identical
// neighbors of networks the server has already planned. A Checkpoint
// captures the reusable state of one heterogeneous run (the shape chain,
// the per-layer decisions and, in inter-layer mode, the full DP table);
// HeterogeneousDiffCtx resumes from it so only the changed layers are
// re-estimated. The contract is strict: a spliced plan is byte-identical
// (canonical PlanDoc JSON) to what from-scratch planning would produce —
// reuse happens only where the DP provably makes the same decisions.
package core

import (
	"context"

	"scratchmem/internal/layer"
	"scratchmem/internal/model"
	"scratchmem/internal/policy"
	"scratchmem/internal/smmerr"
)

// Checkpoint is the immutable residue of one successful heterogeneous
// planning run, sufficient to resume a neighbor's plan. Safe for concurrent
// reuse by any number of later runs.
type Checkpoint struct {
	cfg             policy.Config
	objective       Objective
	disablePrefetch bool
	interLayer      bool

	chain  []policy.LayerKey // per-layer shape signatures, names excluded
	layers []LayerPlan       // the run's decisions (aliases the plan's Layers)
	dp     [][2]dpCell       // inter-layer mode only
}

// Chain returns the shape-signature chain of the checkpointed network,
// for indexing. Callers must not mutate it.
func (ck *Checkpoint) Chain() []policy.LayerKey { return ck.chain }

// compatible reports whether ck was captured under exactly the planner's
// knobs — the precondition for any reuse. The estimators are pure functions
// of (shape, options, config), so matching knobs plus matching shapes mean
// matching per-layer sweeps.
func (ck *Checkpoint) compatible(pl *Planner) bool {
	return ck != nil && ck.cfg == pl.Cfg && ck.objective == pl.Objective &&
		ck.disablePrefetch == pl.DisablePrefetch && ck.interLayer == pl.InterLayer
}

// DiffStats reports how much of an incremental plan was reused.
type DiffStats struct {
	// Outcome is "spliced" when at least one layer decision was reused
	// from the checkpoint, "full" otherwise.
	Outcome string
	// LayersReused counts output layers whose decisions were spliced from
	// the checkpoint without re-running their sweeps.
	LayersReused int
}

// Outcome values of DiffStats (and of the server's
// smm_incremental_plans_total label).
const (
	OutcomeSpliced = "spliced"
	OutcomeFull    = "full"
)

// Differ is the context-carried seam between the façade's planning ladder
// and a caller-owned fingerprint index (the server's, or one /v1/plan/batch
// request's). Lookup is consulted with the request's shape chain before
// planning; afterwards the planner reports the reuse outcome and the fresh
// checkpoint back through the struct. One Differ serves exactly one
// planning call — install a new one per request.
type Differ struct {
	// Lookup returns the best-overlapping checkpoint for the chain, or nil.
	// May be nil (capture-only). Incompatible checkpoints are tolerated —
	// the planner re-checks knob compatibility before reuse.
	Lookup func(chain []policy.LayerKey) *Checkpoint

	// Outcome and LayersReused mirror the run's DiffStats; Checkpoint is
	// the capture for future neighbors. All three stay zero when the run
	// failed or bypassed the differential path (homogeneous, greedy,
	// progress-observed).
	Outcome      string
	LayersReused int
	Checkpoint   *Checkpoint
}

type differCtxKey struct{}

// WithDiffer returns a context carrying d. Installing nil detaches any
// inherited differ (the degradation ladder does this after the requested
// rung, so relaxed re-plans are never indexed or counted).
func WithDiffer(ctx context.Context, d *Differ) context.Context {
	return context.WithValue(ctx, differCtxKey{}, d)
}

// DifferFrom returns the context's differ, or nil.
func DifferFrom(ctx context.Context) *Differ {
	d, _ := ctx.Value(differCtxKey{}).(*Differ)
	return d
}

// HeterogeneousDiffCtx is HeterogeneousCtx with differential planning: when
// ck — a checkpoint of a previous run under identical planner knobs —
// shares a layer-shape prefix and/or suffix with n, only the changed span
// is re-estimated and the cached decisions are spliced in. The returned
// plan is byte-identical to HeterogeneousCtx's, and a fresh checkpoint of
// this run is returned for future neighbors (nil in greedy mode, which
// falls back to full planning). prog-style observation is unsupported here
// by design: callers that stream progress want the full walk.
func (pl *Planner) HeterogeneousDiffCtx(ctx context.Context, n *model.Network, ck *Checkpoint) (*Plan, *Checkpoint, DiffStats, error) {
	stats := DiffStats{Outcome: OutcomeFull}
	if pl.InterLayer && pl.InterLayerGreedy {
		p, err := pl.HeterogeneousCtx(ctx, n, nil)
		return p, nil, stats, err
	}
	if err := pl.Cfg.Validate(); err != nil {
		return nil, nil, stats, smmerr.BadModel(err)
	}
	if err := n.Validate(); err != nil {
		return nil, nil, stats, smmerr.BadModel(err)
	}
	t := sweepTableGet()
	defer sweepTablePut(t)
	plan := &Plan{
		Model: n.Name, Cfg: pl.Cfg, Objective: pl.Objective,
		Scheme:               "het",
		ChainableTransitions: countChainable(n),
	}
	chain := policy.ChainOf(n.Layers)
	var (
		out []LayerPlan
		dp  [][2]dpCell
		err error
	)
	switch {
	case ck.compatible(pl) && pl.InterLayer:
		out, dp, err = pl.interLayerDPResume(ctx, t, n, chain, ck, &stats)
	case ck.compatible(pl):
		out, err = pl.independentResume(ctx, t, n, chain, ck, &stats)
	case pl.InterLayer:
		out, dp, err = pl.interLayerDPKeep(ctx, t, n, nil, true)
	default:
		out, err = pl.independentLayers(ctx, t, n, nil)
	}
	if err != nil {
		return nil, nil, stats, err
	}
	plan.Layers = out
	nck := &Checkpoint{
		cfg: pl.Cfg, objective: pl.Objective,
		disablePrefetch: pl.DisablePrefetch, interLayer: pl.InterLayer,
		chain: chain,
		// The checkpoint aliases the plan's layer slice rather than copying
		// it: plans are immutable by convention (plancache already shares
		// one *Plan across concurrent requests), and copying ~6KB per plan
		// was half the splice path's allocation cost.
		layers: out,
		dp:     dp,
	}
	return plan, nck, stats, nil
}

// spliceLayer copies a checkpointed decision into the new plan, re-patching
// the layer identity: shape chains ignore names, so the matched cached
// layer may be an identically-shaped layer under a different name.
func spliceLayer(dst, src *LayerPlan, l *layer.Layer) {
	*dst = *src
	dst.Layer = *l
	dst.Est.Layer = l.Name
}

// overlap computes the matched prefix p and suffix s of the new chain a
// against the cached chain b, clamping so the two spans cover each position
// of either chain at most once (a layer matched by both ends is taken as
// prefix).
func overlap(a, b []policy.LayerKey) (p, s int) {
	p = policy.CommonPrefix(a, b)
	s = policy.CommonSuffix(a, b)
	if n := min(len(a), len(b)); p+s > n {
		s = n - p
	}
	return p, s
}

// independentResume is independentLayers reusing a compatible checkpoint:
// without inter-layer state every layer's decision is a pure function of
// (shape, config, options), so decisions for shape-matched prefix and
// suffix layers splice verbatim and only the middle span is re-swept.
func (pl *Planner) independentResume(ctx context.Context, t *sweepTable, n *model.Network, chain []policy.LayerKey, ck *Checkpoint, stats *DiffStats) ([]LayerPlan, error) {
	L, Lc := len(chain), len(ck.chain)
	p, s := overlap(chain, ck.chain)
	if p == 0 && s == 0 {
		return pl.independentLayers(ctx, t, n, nil)
	}
	out := make([]LayerPlan, L)
	for i := 0; i < p; i++ {
		spliceLayer(&out[i], &ck.layers[i], &n.Layers[i])
	}
	for i := L - s; i < L; i++ {
		spliceLayer(&out[i], &ck.layers[i-L+Lc], &n.Layers[i])
	}
	for i := p; i < L-s; i++ {
		if err := layerGate(ctx); err != nil {
			return nil, smmerr.Layer(i, n.Layers[i].Name, err)
		}
		out[i].Layer = n.Layers[i]
		e := &out[i].Est
		t.answer(e, &n.Layers[i], false, false, false, pl.sweepLayer)
		if !e.Feasible {
			// Spliced layers were feasible in the cached run, so this is
			// also the first infeasible layer the full walk would report.
			return nil, smmerr.Layer(i, n.Layers[i].Name,
				&smmerr.InfeasibleError{Model: n.Name, Layer: n.Layers[i].Name, Need: e.MemoryBytes, Have: pl.Cfg.GLBBytes})
		}
	}
	stats.Outcome, stats.LayersReused = OutcomeSpliced, p+s
	return out, nil
}

// uniformShift reports whether row a (the resumed run) differs from row b
// (the cached run) only by one additive (prim, sec) shift across its
// reachable states, with identical reachability. Every DP comparison —
// within a row, and the terminal pick — is invariant under such a shift,
// so from a uniformly-shifted row onward (over identical layers) the two
// runs make identical decisions.
func uniformShift(a, b *[2]dpCell) bool {
	if a[0].ok != b[0].ok || a[1].ok != b[1].ok {
		return false
	}
	if !a[0].ok && !a[1].ok {
		return false // dead row: the run is infeasible, report it fully
	}
	if a[0].ok && a[1].ok {
		return a[0].prim-b[0].prim == a[1].prim-b[1].prim &&
			a[0].sec-b[0].sec == a[1].sec-b[1].sec
	}
	return true // single live state: one shift by construction
}

// interLayerDPResume is interLayerDPKeep reusing a compatible checkpoint.
// Two reuse seams, both exact:
//
//   - Prefix resume: dp[j] depends only on layers[0..j] (the keep decision
//     at step j-1 peeks at layer j), so with a matched prefix of p layers
//     the cached rows dp[0..p-1] are this run's rows verbatim and the
//     recurrence resumes at step p-1.
//
//   - Suffix convergence: once inside the matched suffix, if a freshly
//     computed row is a uniform (prim, sec) shift of the cached run's
//     aligned row (uniformShift), all remaining transitions and the
//     terminal pick coincide — the cached tail decisions splice verbatim
//     and the remaining table rows are the cached rows plus the shift.
func (pl *Planner) interLayerDPResume(ctx context.Context, t *sweepTable, n *model.Network, chain []policy.LayerKey, ck *Checkpoint, stats *DiffStats) ([]LayerPlan, [][2]dpCell, error) {
	L, Lc := len(chain), len(ck.chain)
	p, s := overlap(chain, ck.chain)
	d := Lc - L // cached-table position offset of the matched suffix

	if p == L && L == Lc {
		// Identical chain (a rename, or a cache-key miss on metadata): the
		// whole cached run replays, table included.
		out := make([]LayerPlan, L)
		for i := range out {
			spliceLayer(&out[i], &ck.layers[i], &n.Layers[i])
		}
		stats.Outcome, stats.LayersReused = OutcomeSpliced, L
		return out, ck.dp, nil
	}

	dp := make([][2]dpCell, L+1) // captured by the new checkpoint: not pooled
	start := 0                   // first step to recompute
	if p > 0 {
		copy(dp[:p], ck.dp[:p])
		start = p - 1
	} else {
		dp[0][0] = dpCell{ok: true}
		dp[0][1] = dpCell{prim: dpInf, sec: dpInf}
	}

	conv := -1 // first recomputed position proven convergent with the cache
	for i := start; i < L; i++ {
		if err := layerGate(ctx); err != nil {
			return nil, nil, smmerr.Layer(i, n.Layers[i].Name, err)
		}
		dp[i+1] = pl.dpStep(t, n, i, &dp[i])
		if j := i + 1; s > 0 && j >= L-s && j < L && uniformShift(&dp[j], &ck.dp[j+d]) {
			conv = j
			break
		}
	}

	if conv < 0 {
		out, err := pl.dpFinish(t, n, dp)
		if err != nil {
			return nil, nil, err
		}
		if start > 0 {
			stats.Outcome, stats.LayersReused = OutcomeSpliced, start
		}
		return out, dp, nil
	}

	// Converged at position conv: splice the cached tail decisions, then
	// complete this run's table as cached-plus-shift so the checkpoint we
	// hand out is whole.
	var s0 int
	if !dp[conv][0].ok {
		s0 = 1
	}
	dPrim := dp[conv][s0].prim - ck.dp[conv+d][s0].prim
	dSec := dp[conv][s0].sec - ck.dp[conv+d][s0].sec
	for j := conv + 1; j <= L; j++ {
		row := ck.dp[j+d]
		for st := 0; st < 2; st++ {
			if row[st].ok {
				row[st].prim += dPrim
				row[st].sec += dSec
			}
		}
		dp[j] = row
	}
	out := make([]LayerPlan, L)
	for i := conv; i < L; i++ {
		spliceLayer(&out[i], &ck.layers[i+d], &n.Layers[i])
	}
	// The spliced decision at conv records which state the walk-back passes
	// through there; continue it through the recomputed head.
	entry := 0
	if out[conv].ConsumesResident {
		entry = 1
	}
	dpWalkBack(n, dp, out, conv, entry)
	reused := L - conv
	if start > 0 {
		reused += start
	}
	stats.Outcome, stats.LayersReused = OutcomeSpliced, reused
	return out, dp, nil
}
