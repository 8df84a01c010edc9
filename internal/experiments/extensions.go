package experiments

import (
	"context"
	"fmt"

	"scratchmem/internal/core"
	"scratchmem/internal/dse"
	"scratchmem/internal/energy"
	"scratchmem/internal/model"
	"scratchmem/internal/parallel"
	"scratchmem/internal/policy"
	"scratchmem/internal/progress"
	"scratchmem/internal/report"
	"scratchmem/internal/scalesim"
	"scratchmem/internal/stats"
)

// The experiments in this file extend the paper: an energy account of the
// access reductions (the paper motivates with the 10-100x off-chip cost but
// reports accesses only), a batch-size study (the Escher-style weight
// amortisation the paper cites as related work) and a DP-vs-greedy ablation
// of the inter-layer retention decision.

// EnergyCell is one (model, size) cell of the energy extension.
type EnergyCell struct {
	Model        string
	SizeKB       int
	BaselinePJ   float64 // best fixed-split baseline, DRAM+GLB+compute
	HetPJ        float64
	ReductionPct float64
}

// ExtEnergyCtx compares the end-to-end energy of the heterogeneous scheme
// against the best baseline split, using the reference energy model. It runs
// with cancellation and per-cell progress events ("energy").
func ExtEnergyCtx(ctx context.Context, s Setup, prog progress.Func) ([]EnergyCell, *report.Table, error) {
	models := model.BuiltinNames()
	sizes := s.sizes()
	m := energy.Default()
	nets := builtinsByName(models)
	cells := make([]EnergyCell, len(models)*len(sizes))
	err := forEachCtx(ctx, s, len(cells), func(ctx context.Context, i int) error {
		name, kb := models[i/len(sizes)], sizes[i%len(sizes)]
		n := nets[i/len(sizes)]
		_, baseBytes, err := baselineBestCtx(ctx, n, kb, 8)
		if err != nil {
			return err
		}
		cfg := policy.Default(kb)
		base := energy.DRAMOnly(baseBytes, n.MACs(), cfg, m)
		het, err := core.NewPlanner(kb, core.MinAccesses).HeterogeneousCtx(ctx, n, nil)
		if err != nil {
			return err
		}
		hetE, err := energy.Plan(het, m)
		if err != nil {
			return err
		}
		cells[i] = EnergyCell{
			Model: name, SizeKB: kb,
			BaselinePJ:   base.Total(),
			HetPJ:        hetE.Total(),
			ReductionPct: 100 * (1 - hetE.Total()/base.Total()),
		}
		cellDone(prog, "energy", i, len(cells), fmt.Sprintf("%s@%dkB", name, kb))
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	t := report.NewTable("Extension: inference energy, best baseline vs Het (uJ)",
		"Network", "GLB kB", "baseline uJ", "Het uJ", "reduction %")
	for _, c := range cells {
		t.Row(c.Model, c.SizeKB, c.BaselinePJ/1e6, c.HetPJ/1e6, c.ReductionPct)
	}
	return cells, t, nil
}

// BatchCell is one batch size of the batching extension.
type BatchCell struct {
	Batch              int
	PerInputAccessElem int64
	FilterSharePct     float64 // share of traffic that is weights
}

// ExtBatchCtx studies how batching amortises weight traffic for a
// filter-heavy model under the heterogeneous scheme. It runs with
// cancellation and per-cell progress events ("batch").
func ExtBatchCtx(ctx context.Context, s Setup, modelName string, glbKB int, prog progress.Func) ([]BatchCell, *report.Table, error) {
	n := mustBuiltin(modelName)
	batches := []int{1, 2, 4, 8, 16}
	cells := make([]BatchCell, len(batches))
	err := forEachCtx(ctx, s, len(batches), func(ctx context.Context, i int) error {
		pl := core.NewPlanner(glbKB, core.MinAccesses)
		pl.Cfg.Batch = batches[i]
		p, err := pl.HeterogeneousCtx(ctx, n, nil)
		if err != nil {
			return err
		}
		var filter int64
		for j := range p.Layers {
			filter += p.Layers[j].Est.AccessFilter
		}
		total := p.AccessElems()
		cells[i] = BatchCell{
			Batch:              batches[i],
			PerInputAccessElem: total / int64(batches[i]),
			FilterSharePct:     100 * float64(filter) / float64(total),
		}
		cellDone(prog, "batch", i, len(cells), fmt.Sprintf("batch=%d", batches[i]))
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	t := report.NewTable(
		fmt.Sprintf("Extension: batching on %s @%d kB (Het, per-input traffic)", modelName, glbKB),
		"batch", "elems/input", "filter share %")
	for _, c := range cells {
		t.Row(c.Batch, c.PerInputAccessElem, c.FilterSharePct)
	}
	return cells, t, nil
}

// AblationCell is one (model, size) cell of the inter-layer DP-vs-greedy
// ablation.
type AblationCell struct {
	Model      string
	SizeKB     int
	DP, Greedy int64 // access elements
	DPGainPct  float64
}

// ExtInterLayerAblationCtx compares the retention DP against the one-pass
// greedy rule. It runs with cancellation and per-cell progress events
// ("ablation").
func ExtInterLayerAblationCtx(ctx context.Context, s Setup, prog progress.Func) ([]AblationCell, *report.Table, error) {
	models := model.BuiltinNames()
	sizes := s.sizes()
	nets := builtinsByName(models)
	cells := make([]AblationCell, len(models)*len(sizes))
	err := forEachCtx(ctx, s, len(cells), func(ctx context.Context, i int) error {
		name, kb := models[i/len(sizes)], sizes[i%len(sizes)]
		n := nets[i/len(sizes)]
		dpPl := core.NewPlanner(kb, core.MinAccesses)
		dpPl.InterLayer = true
		grPl := core.NewPlanner(kb, core.MinAccesses)
		grPl.InterLayer = true
		grPl.InterLayerGreedy = true
		dpPlan, err := dpPl.HeterogeneousCtx(ctx, n, nil)
		if err != nil {
			return err
		}
		grPlan, err := grPl.HeterogeneousCtx(ctx, n, nil)
		if err != nil {
			return err
		}
		dp, gr := dpPlan.AccessElems(), grPlan.AccessElems()
		cells[i] = AblationCell{Model: name, SizeKB: kb, DP: dp, Greedy: gr,
			DPGainPct: stats.Benefit(gr, dp)}
		cellDone(prog, "ablation", i, len(cells), fmt.Sprintf("%s@%dkB", name, kb))
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	t := report.NewTable("Ablation: inter-layer retention, DP vs greedy (access elements)",
		"Network", "GLB kB", "DP", "greedy", "DP gain %")
	for _, c := range cells {
		t.Row(c.Model, c.SizeKB, c.DP, c.Greedy, c.DPGainPct)
	}
	return cells, t, nil
}

// TenancyCell is one co-tenant pair of the multi-tenancy extension.
type TenancyCell struct {
	Pair           string
	GLBKB          int
	BaselineHalf   int64 // each tenant on fixed-split buffers of half the GLB
	HetHalf        int64 // each tenant Het-planned on half the GLB (static partition)
	HetTimeShared  int64 // tenants time-share the full unified GLB per layer
	SharingGainPct float64
}

// ExtTenancyCtx studies the paper's multi-tenancy motivation: two models
// co-resident on one accelerator. A static partition gives each tenant half
// the scratchpad for its whole run; the unified buffer with per-layer
// management instead lets whichever layer is executing use all of it (layers
// are time-multiplexed anyway). The gap between HetHalf and HetTimeShared is
// what flexible management buys multi-tenant deployments. It runs with
// cancellation and per-cell progress events ("tenancy").
func ExtTenancyCtx(ctx context.Context, s Setup, modelA, modelB string, glbKB int, prog progress.Func) (TenancyCell, *report.Table, error) {
	na, nb := mustBuiltin(modelA), mustBuiltin(modelB)
	traffic := func(ctx context.Context, n *model.Network, kb int) (int64, error) {
		p, err := core.NewPlanner(kb, core.MinAccesses).HeterogeneousCtx(ctx, n, nil)
		if err != nil {
			return 0, err
		}
		return p.AccessElems(), nil
	}
	baseline := func(ctx context.Context, n *model.Network, kb int) (int64, error) {
		_, b, err := baselineBestCtx(ctx, n, kb, 8)
		return b, err
	}
	var cell TenancyCell
	results, err := parallel.MapCtx(ctx, 6, s.Workers, func(ctx context.Context, i int) (int64, error) {
		defer cellDone(prog, "tenancy", i, 6, cell.Pair)
		switch i {
		case 0:
			return baseline(ctx, na, glbKB/2)
		case 1:
			return baseline(ctx, nb, glbKB/2)
		case 2:
			return traffic(ctx, na, glbKB/2)
		case 3:
			return traffic(ctx, nb, glbKB/2)
		case 4:
			return traffic(ctx, na, glbKB)
		default:
			return traffic(ctx, nb, glbKB)
		}
	})
	if err != nil {
		return TenancyCell{}, nil, err
	}
	cell = TenancyCell{
		Pair:          modelA + "+" + modelB,
		GLBKB:         glbKB,
		BaselineHalf:  results[0] + results[1],
		HetHalf:       results[2] + results[3],
		HetTimeShared: results[4] + results[5],
	}
	cell.SharingGainPct = stats.Benefit(cell.HetHalf, cell.HetTimeShared)
	t := report.NewTable(
		fmt.Sprintf("Extension: multi-tenancy %s on a %d kB GLB (access elements)", cell.Pair, glbKB),
		"strategy", "accesses", "vs static Het %")
	t.Row("baseline splits, half GLB each", cell.BaselineHalf, stats.Benefit(cell.HetHalf, cell.BaselineHalf))
	t.Row("Het, static half-GLB partition", cell.HetHalf, 0.0)
	t.Row("Het, time-shared unified GLB", cell.HetTimeShared, cell.SharingGainPct)
	return cell, t, nil
}

// DataflowCell is one (model, dataflow) cell of the dataflow-comparison
// extension.
type DataflowCell struct {
	Model   string
	Flow    string
	DRAMMB  float64
	MCycles float64
}

// ExtDataflowCtx compares the three classic dataflows (paper §2.3
// background) on the fixed 50-50 baseline at the given size:
// output-stationary wins on partial-sum traffic for deep convolutions, which
// is why both the paper's baseline and its own schemes use it. It runs with
// cancellation and per-cell progress events ("dataflow").
func ExtDataflowCtx(ctx context.Context, s Setup, glbKB int, prog progress.Func) ([]DataflowCell, *report.Table, error) {
	models := model.BuiltinNames()
	flows := []scalesim.Dataflow{scalesim.OutputStationary, scalesim.WeightStationary, scalesim.InputStationary}
	nets := builtinsByName(models)
	cells := make([]DataflowCell, len(models)*len(flows))
	err := forEachCtx(ctx, s, len(cells), func(ctx context.Context, i int) error {
		name, flow := models[i/len(flows)], flows[i%len(flows)]
		n := nets[i/len(flows)]
		cfg := scalesim.Split("sa_50_50", glbKB, 50, 8)
		cfg.Flow = flow
		res, err := scalesim.SimulateNetworkCtx(ctx, n, cfg, nil)
		if err != nil {
			return err
		}
		cells[i] = DataflowCell{
			Model:   name,
			Flow:    flow.String(),
			DRAMMB:  float64(res.DRAMBytes()) / (1 << 20),
			MCycles: float64(res.Cycles()) / 1e6,
		}
		cellDone(prog, "dataflow", i, len(cells), fmt.Sprintf("%s/%s", name, flow))
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	t := report.NewTable(
		fmt.Sprintf("Extension: baseline dataflow comparison @%d kB (sa_50_50)", glbKB),
		"Network", "dataflow", "DRAM MB", "Mcycles")
	for _, c := range cells {
		t.Row(c.Model, c.Flow, c.DRAMMB, c.MCycles)
	}
	return cells, t, nil
}

// SensitivityCell is one hardware point of the co-design sensitivity sweep.
type SensitivityCell struct {
	ArrayDim        int // PEs per side (the paper uses 16)
	BWBytesPerCycle int
	BaselineMCycles float64
	HetLMCycles     float64
	ReductionPct    float64
}

// ExtSensitivityCtx sweeps the accelerator design space around the paper's
// operating point (16x16 PEs, 16 B/cycle) in the spirit of the authors'
// RAINBOW co-design tool: how does the latency advantage of the managed
// unified buffer move with compute width and off-chip bandwidth? Off-chip
// traffic is unaffected (it depends only on the GLB size), so the sweep
// reports latency. It runs with cancellation and per-cell progress events
// ("sensitivity").
func ExtSensitivityCtx(ctx context.Context, s Setup, modelName string, glbKB int, prog progress.Func) ([]SensitivityCell, *report.Table, error) {
	dims := []int{8, 16, 32}
	bws := []int{8, 16, 32}
	n := mustBuiltin(modelName)
	cells := make([]SensitivityCell, len(dims)*len(bws))
	err := forEachCtx(ctx, s, len(cells), func(ctx context.Context, i int) error {
		dim, bw := dims[i/len(bws)], bws[i%len(bws)]
		bcfg := scalesim.Split("sa_50_50", glbKB, 50, 8)
		bcfg.Rows, bcfg.Cols = dim, dim
		base, err := scalesim.SimulateNetworkCtx(ctx, n, bcfg, nil)
		if err != nil {
			return err
		}
		pl := core.NewPlanner(glbKB, core.MinLatency)
		pl.Cfg.OpsPerCycle = 2 * dim * dim
		pl.Cfg.DRAMBytesPerCycle = bw
		het, err := pl.HeterogeneousCtx(ctx, n, nil)
		if err != nil {
			return err
		}
		cells[i] = SensitivityCell{
			ArrayDim:        dim,
			BWBytesPerCycle: bw,
			BaselineMCycles: float64(base.Cycles()) / 1e6,
			HetLMCycles:     float64(het.LatencyCycles()) / 1e6,
			ReductionPct:    stats.Benefit(base.Cycles(), het.LatencyCycles()),
		}
		cellDone(prog, "sensitivity", i, len(cells), fmt.Sprintf("%dx%d/bw%d", dim, dim, bw))
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	t := report.NewTable(
		fmt.Sprintf("Extension: hardware sensitivity for %s @%d kB (latency)", modelName, glbKB),
		"array", "BW B/cyc", "baseline Mcyc", "Het_l Mcyc", "reduction %")
	for _, c := range cells {
		t.Row(fmt.Sprintf("%dx%d", c.ArrayDim, c.ArrayDim), c.BWBytesPerCycle,
			c.BaselineMCycles, c.HetLMCycles, c.ReductionPct)
	}
	return cells, t, nil
}

// DSECell compares the heterogeneous policy plan against the exhaustive
// tile-size DSE optimum.
type DSECell struct {
	Model    string
	SizeKB   int
	Het, DSE int64 // access elements
	GapPct   float64
}

// ExtDSECtx quantifies how near-optimal the paper's six lightweight policies
// are: for every model it compares the Het plan's traffic against an
// exhaustive tiling search (the related-work approach). The two searches'
// costs, the paper's "minutes of estimation instead of hours of
// simulation" argument, are wall-clock figures that never reproduce, so
// they are measured by BenchmarkExtDSE and BenchmarkDSELayer rather than
// reported here. It runs with cancellation (threaded into both the planner
// and the exhaustive grid search) and per-cell progress events ("extdse").
func ExtDSECtx(ctx context.Context, s Setup, glbKB int, prog progress.Func) ([]DSECell, *report.Table, error) {
	models := model.BuiltinNames()
	cells := make([]DSECell, len(models))
	err := forEachCtx(ctx, s, len(models), func(ctx context.Context, i int) error {
		n := mustBuiltin(models[i])
		cfg := policy.Default(glbKB)

		het, err := core.NewPlanner(glbKB, core.MinAccesses).HeterogeneousCtx(ctx, n, nil)
		if err != nil {
			return err
		}
		dseTotal, _, err := dse.NetworkAccessElemsCtx(ctx, n, cfg, nil)
		if err != nil {
			return err
		}
		cells[i] = DSECell{
			Model: models[i], SizeKB: glbKB,
			Het: het.AccessElems(), DSE: dseTotal,
			GapPct: 100 * (float64(het.AccessElems())/float64(dseTotal) - 1),
		}
		cellDone(prog, "extdse", i, len(cells), models[i])
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	t := report.NewTable(
		fmt.Sprintf("Extension: Het vs exhaustive tiling DSE @%d kB", glbKB),
		"Network", "Het elems", "DSE elems", "gap %")
	for _, c := range cells {
		t.Row(c.Model, c.Het, c.DSE, c.GapPct)
	}
	return cells, t, nil
}

// SizingCell reports the smallest unified buffer with which a model reaches
// its once-per-element traffic minimum.
type SizingCell struct {
	Model        string
	NeedKB       float64
	BoundLayer   string
	BestTable3KB float64 // min over the Table-3 policy columns, for reference
}

// ExtSizingCtx answers the designer question behind Table 3: how much
// unified scratchpad does each network need so that some policy moves every
// element exactly once on every layer? The binding layer is the network's
// worst-case; the per-policy Table 3 maxima upper-bound it (a heterogeneous
// choice can dodge each policy's worst layer). It runs with cancellation and
// per-cell progress events ("sizing").
func ExtSizingCtx(ctx context.Context, s Setup, prog progress.Func) ([]SizingCell, *report.Table, error) {
	models := model.BuiltinNames()
	cells := make([]SizingCell, len(models))
	err := forEachCtx(ctx, s, len(models), func(ctx context.Context, i int) error {
		n := mustBuiltin(models[i])
		cfg := policy.Default(1 << 20) // size is irrelevant to the frontier
		var needB int64
		var bound string
		for j := range n.Layers {
			l := &n.Layers[j]
			b := policy.SmallestGLBForMinimum(l, cfg)
			if b > needB {
				needB, bound = b, l.Name
			}
		}
		cfg3 := cfg
		cfg3.IncludePadding = false
		best := policy.MaxMemoryKB(n.Layers, policy.P1IfmapReuse, cfg3)
		for _, id := range []policy.ID{policy.P2FilterReuse, policy.P3PerChannel} {
			if v := policy.MaxMemoryKB(n.Layers, id, cfg3); v < best {
				best = v
			}
		}
		cells[i] = SizingCell{
			Model:        models[i],
			NeedKB:       float64(needB) / 1024,
			BoundLayer:   bound,
			BestTable3KB: best,
		}
		cellDone(prog, "sizing", i, len(cells), models[i])
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	t := report.NewTable(
		"Extension: smallest GLB reaching minimum traffic (heterogeneous choice per layer)",
		"Network", "need kB", "binding layer", "best hom policy kB (Table 3)")
	for _, c := range cells {
		t.Row(c.Model, c.NeedKB, c.BoundLayer, c.BestTable3KB)
	}
	return cells, t, nil
}

// ClassicCell extends the Figure-5 comparison to the pre-mobile classics.
type ClassicCell struct {
	Model        string
	SizeKB       int
	BaselineMB   float64
	HetMB        float64
	ReductionPct float64
}

// ExtClassicsCtx runs the headline comparison on AlexNet and VGG16 —
// networks outside the paper's set whose enormous FC weight tensors stress
// the weight-streaming policies instead of the activation-heavy mobile nets.
// It runs with cancellation and per-cell progress events ("classics").
func ExtClassicsCtx(ctx context.Context, s Setup, prog progress.Func) ([]ClassicCell, *report.Table, error) {
	models := []string{"AlexNet", "VGG16"}
	sizes := s.sizes()
	nets := builtinsByName(models)
	cells := make([]ClassicCell, len(models)*len(sizes))
	err := forEachCtx(ctx, s, len(cells), func(ctx context.Context, i int) error {
		name, kb := models[i/len(sizes)], sizes[i%len(sizes)]
		n := nets[i/len(sizes)]
		_, base, err := baselineBestCtx(ctx, n, kb, 8)
		if err != nil {
			return err
		}
		het, err := core.NewPlanner(kb, core.MinAccesses).HeterogeneousCtx(ctx, n, nil)
		if err != nil {
			return err
		}
		cells[i] = ClassicCell{
			Model: name, SizeKB: kb,
			BaselineMB:   float64(base) / (1 << 20),
			HetMB:        float64(het.AccessBytes()) / (1 << 20),
			ReductionPct: stats.Benefit(base, het.AccessBytes()),
		}
		cellDone(prog, "classics", i, len(cells), fmt.Sprintf("%s@%dkB", name, kb))
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	t := report.NewTable("Extension: the classics (outside the paper's model set)",
		"Network", "GLB kB", "best baseline MB", "Het MB", "reduction %")
	for _, c := range cells {
		t.Row(c.Model, c.SizeKB, c.BaselineMB, c.HetMB, c.ReductionPct)
	}
	return cells, t, nil
}
