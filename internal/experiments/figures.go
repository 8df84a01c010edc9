package experiments

import (
	"context"
	"fmt"

	"scratchmem/internal/core"
	"scratchmem/internal/model"
	"scratchmem/internal/progress"
	"scratchmem/internal/report"
	"scratchmem/internal/scalesim"
	"scratchmem/internal/stats"
)

// Fig5Cell is one (model, buffer size) cell of Figure 5: off-chip traffic
// in bytes for the three baselines and the two proposed schemes.
type Fig5Cell struct {
	Model     string
	SizeKB    int
	Baselines map[string]int64 // split name -> bytes
	Hom, Het  int64            // bytes
}

// Fig5 reproduces the off-chip access volumes across models and buffer
// sizes: three fixed-split baselines against the best homogeneous and the
// heterogeneous scheme (access objective).
func Fig5(s Setup) ([]Fig5Cell, *report.Table) {
	cells, t, err := Fig5Ctx(context.Background(), s, nil)
	mustCells(err)
	return cells, t
}

// Fig5Ctx is Fig5 with cancellation and per-cell progress events ("fig5").
func Fig5Ctx(ctx context.Context, s Setup, prog progress.Func) ([]Fig5Cell, *report.Table, error) {
	models := model.BuiltinNames()
	sizes := s.sizes()
	nets := builtinsByName(models)
	cells := make([]Fig5Cell, len(models)*len(sizes))
	err := forEachCtx(ctx, s, len(cells), func(ctx context.Context, i int) error {
		m, kb := models[i/len(sizes)], sizes[i%len(sizes)]
		n := nets[i/len(sizes)]
		cell := Fig5Cell{Model: m, SizeKB: kb, Baselines: map[string]int64{}}
		for _, c := range scalesim.PaperSplits(kb, 8) {
			r, err := scalesim.SimulateNetworkCtx(ctx, n, c, nil)
			if err != nil {
				return err
			}
			cell.Baselines[c.Name] = r.DRAMBytes()
		}
		pl := core.NewPlanner(kb, core.MinAccesses)
		hom, err := pl.BestHomogeneousCtx(ctx, n, nil)
		if err != nil {
			return err
		}
		het, err := pl.HeterogeneousCtx(ctx, n, nil)
		if err != nil {
			return err
		}
		cell.Hom, cell.Het = hom.AccessBytes(), het.AccessBytes()
		cells[i] = cell
		cellDone(prog, "fig5", i, len(cells), fmt.Sprintf("%s@%dkB", m, kb))
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	t := report.NewTable("Figure 5: off-chip memory accesses (MB)",
		"Network", "GLB kB", "sa_25_75", "sa_50_50", "sa_75_25", "Hom", "Het", "Het vs best-sa %")
	for _, c := range cells {
		best := c.Baselines["sa_25_75"]
		for _, v := range c.Baselines {
			if v < best {
				best = v
			}
		}
		t.Row(c.Model, c.SizeKB,
			mb(c.Baselines["sa_25_75"]), mb(c.Baselines["sa_50_50"]), mb(c.Baselines["sa_75_25"]),
			mb(c.Hom), mb(c.Het), stats.Benefit(best, c.Het))
	}
	return cells, t, nil
}

func mb(b int64) float64 { return float64(b) / (1024 * 1024) }

// Fig7Cell is one (width, size) cell of Figure 7: the benefit of Het over
// Hom for MobileNetV2.
type Fig7Cell struct {
	WidthBits, SizeKB int
	Hom, Het          int64 // access elements
	BenefitPct        float64
}

// Fig7Ctx reproduces the data-width study: Het's access reduction over Hom
// for MobileNetV2 across data widths, where wider elements squeeze the GLB.
// It runs with cancellation and per-cell progress events ("fig7").
func Fig7Ctx(ctx context.Context, s Setup, prog progress.Func) ([]Fig7Cell, *report.Table, error) {
	widths := []int{8, 16, 32}
	sizes := s.sizes()
	n := mustBuiltin("MobileNetV2")
	cells := make([]Fig7Cell, len(widths)*len(sizes))
	err := forEachCtx(ctx, s, len(cells), func(ctx context.Context, i int) error {
		w, kb := widths[i/len(sizes)], sizes[i%len(sizes)]
		pl := core.NewPlanner(kb, core.MinAccesses)
		pl.Cfg.DataWidthBits = w
		homPlan, err := pl.BestHomogeneousCtx(ctx, n, nil)
		if err != nil {
			return err
		}
		hetPlan, err := pl.HeterogeneousCtx(ctx, n, nil)
		if err != nil {
			return err
		}
		hom, het := homPlan.AccessElems(), hetPlan.AccessElems()
		cells[i] = Fig7Cell{WidthBits: w, SizeKB: kb, Hom: hom, Het: het,
			BenefitPct: stats.Benefit(hom, het)}
		cellDone(prog, "fig7", i, len(cells), fmt.Sprintf("%d-bit@%dkB", w, kb))
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	t := report.NewTable("Figure 7: Het-over-Hom access benefit for MobileNetV2 (%)",
		"Width", "GLB kB", "Hom Melem", "Het Melem", "Benefit %")
	for _, c := range cells {
		t.Row(fmt.Sprintf("%d-bit", c.WidthBits), c.SizeKB,
			float64(c.Hom)/1e6, float64(c.Het)/1e6, c.BenefitPct)
	}
	return cells, t, nil
}

// Fig8Cell is one (model, size) cell of Figure 8: latency in cycles for the
// zero-stall baseline and the four proposed scheme variants.
type Fig8Cell struct {
	Model                  string
	SizeKB                 int
	Baseline               int64
	HomA, HetA, HomL, HetL int64
}

// Fig8 reproduces the inference-latency comparison: the buffer-independent
// zero-stall baseline against Hom/Het optimised for accesses (suffix _a)
// and for latency (suffix _l).
func Fig8(s Setup) ([]Fig8Cell, *report.Table) {
	cells, t, err := Fig8Ctx(context.Background(), s, nil)
	mustCells(err)
	return cells, t
}

// Fig8Ctx is Fig8 with cancellation and per-cell progress events ("fig8").
func Fig8Ctx(ctx context.Context, s Setup, prog progress.Func) ([]Fig8Cell, *report.Table, error) {
	models := model.BuiltinNames()
	sizes := s.sizes()
	nets := builtinsByName(models)
	cells := make([]Fig8Cell, len(models)*len(sizes))
	err := forEachCtx(ctx, s, len(cells), func(ctx context.Context, i int) error {
		m, kb := models[i/len(sizes)], sizes[i%len(sizes)]
		n := nets[i/len(sizes)]
		base, err := scalesim.SimulateNetworkCtx(ctx, n, scalesim.Split("sa_50_50", kb, 50, 8), nil)
		if err != nil {
			return err
		}
		plA := core.NewPlanner(kb, core.MinAccesses)
		plL := core.NewPlanner(kb, core.MinLatency)
		cell := Fig8Cell{Model: m, SizeKB: kb, Baseline: base.Cycles()}
		for _, p := range []struct {
			dst *int64
			run func() (*core.Plan, error)
		}{
			{&cell.HomA, func() (*core.Plan, error) { return plA.BestHomogeneousCtx(ctx, n, nil) }},
			{&cell.HetA, func() (*core.Plan, error) { return plA.HeterogeneousCtx(ctx, n, nil) }},
			{&cell.HomL, func() (*core.Plan, error) { return plL.BestHomogeneousCtx(ctx, n, nil) }},
			{&cell.HetL, func() (*core.Plan, error) { return plL.HeterogeneousCtx(ctx, n, nil) }},
		} {
			plan, err := p.run()
			if err != nil {
				return err
			}
			*p.dst = plan.LatencyCycles()
		}
		cells[i] = cell
		cellDone(prog, "fig8", i, len(cells), fmt.Sprintf("%s@%dkB", m, kb))
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	t := report.NewTable("Figure 8: inference latency (Mcycles)",
		"Network", "GLB kB", "baseline", "Hom_a", "Het_a", "Hom_l", "Het_l", "Het_l vs base %")
	for _, c := range cells {
		t.Row(c.Model, c.SizeKB, mc(c.Baseline), mc(c.HomA), mc(c.HetA), mc(c.HomL), mc(c.HetL),
			stats.Benefit(c.Baseline, c.HetL))
	}
	return cells, t, nil
}

func mc(cycles int64) float64 { return float64(cycles) / 1e6 }

// Fig9Cell is one model of Figure 9: the benefit (positive) or penalty
// (negative) in accesses and latency of Het optimised for latency relative
// to Het optimised for accesses, at a fixed GLB size.
type Fig9Cell struct {
	Model                    string
	AccessBenefitPct         float64
	LatencyBenefitPct        float64
	HetAAccess, HetLAccess   int64
	HetALatency, HetLLatency int64
}

// Fig9Ctx reproduces the accesses-vs-latency trade-off at the given size
// (64 kB in the paper). It runs with cancellation and per-cell progress
// events ("fig9").
func Fig9Ctx(ctx context.Context, s Setup, glbKB int, prog progress.Func) ([]Fig9Cell, *report.Table, error) {
	models := model.BuiltinNames()
	cells := make([]Fig9Cell, len(models))
	err := forEachCtx(ctx, s, len(models), func(ctx context.Context, i int) error {
		n := mustBuiltin(models[i])
		pla := core.NewPlanner(glbKB, core.MinAccesses)
		pll := core.NewPlanner(glbKB, core.MinLatency)
		pa, err := pla.HeterogeneousCtx(ctx, n, nil)
		if err != nil {
			return err
		}
		pl, err := pll.HeterogeneousCtx(ctx, n, nil)
		if err != nil {
			return err
		}
		cells[i] = Fig9Cell{
			Model:             models[i],
			AccessBenefitPct:  stats.Benefit(pa.AccessElems(), pl.AccessElems()),
			LatencyBenefitPct: stats.Benefit(pa.LatencyCycles(), pl.LatencyCycles()),
			HetAAccess:        pa.AccessElems(), HetLAccess: pl.AccessElems(),
			HetALatency: pa.LatencyCycles(), HetLLatency: pl.LatencyCycles(),
		}
		cellDone(prog, "fig9", i, len(cells), models[i])
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	t := report.NewTable(
		fmt.Sprintf("Figure 9: Het_l vs Het_a benefit at %d kB (negative = penalty)", glbKB),
		"Network", "accesses %", "latency %")
	for _, c := range cells {
		t.Row(c.Model, c.AccessBenefitPct, c.LatencyBenefitPct)
	}
	return cells, t, nil
}

// Fig10Cell is one buffer size of Figure 10: prefetching enabled vs
// disabled for the latency-optimised Het scheme.
type Fig10Cell struct {
	SizeKB            int
	AccessBenefitPct  float64
	LatencyBenefitPct float64
	CoveragePct       float64
}

// Fig10Ctx reproduces the prefetching ablation on the given model (MobileNet
// in the paper). It runs with cancellation and per-cell progress events
// ("fig10").
func Fig10Ctx(ctx context.Context, s Setup, modelName string, prog progress.Func) ([]Fig10Cell, *report.Table, error) {
	sizes := s.sizes()
	n := mustBuiltin(modelName)
	cells := make([]Fig10Cell, len(sizes))
	err := forEachCtx(ctx, s, len(sizes), func(ctx context.Context, i int) error {
		kb := sizes[i]
		with := core.NewPlanner(kb, core.MinLatency)
		without := core.NewPlanner(kb, core.MinLatency)
		without.DisablePrefetch = true
		pw, err := with.HeterogeneousCtx(ctx, n, nil)
		if err != nil {
			return err
		}
		pwo, err := without.HeterogeneousCtx(ctx, n, nil)
		if err != nil {
			return err
		}
		cells[i] = Fig10Cell{
			SizeKB:            kb,
			AccessBenefitPct:  stats.Benefit(pwo.AccessElems(), pw.AccessElems()),
			LatencyBenefitPct: stats.Benefit(pwo.LatencyCycles(), pw.LatencyCycles()),
			CoveragePct:       stats.Percent(pw.PrefetchCoverage()),
		}
		cellDone(prog, "fig10", i, len(cells), fmt.Sprintf("%dkB", kb))
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	t := report.NewTable(
		fmt.Sprintf("Figure 10: prefetching on/off for %s (negative = penalty)", modelName),
		"GLB kB", "accesses %", "latency %", "coverage %")
	for _, c := range cells {
		t.Row(c.SizeKB, c.AccessBenefitPct, c.LatencyBenefitPct, c.CoveragePct)
	}
	return cells, t, nil
}

// Fig11Cell is one buffer size of Figure 11: inter-layer reuse enabled vs
// disabled for the access-optimised Het scheme.
type Fig11Cell struct {
	SizeKB            int
	AccessBenefitPct  float64
	LatencyBenefitPct float64
	CoveragePct       float64
}

// Fig11Ctx reproduces the inter-layer-reuse study on the given model
// (MnasNet in the paper) and additionally reports the geometric-mean benefit
// across all six models at the largest size, as §5.4 does. It runs with
// cancellation and per-cell progress events ("fig11").
func Fig11Ctx(ctx context.Context, s Setup, modelName string, prog progress.Func) ([]Fig11Cell, *report.Table, *report.Table, error) {
	sizes := s.sizes()
	n := mustBuiltin(modelName)
	cells := make([]Fig11Cell, len(sizes))
	err := forEachCtx(ctx, s, len(sizes), func(ctx context.Context, i int) error {
		kb := sizes[i]
		base := core.NewPlanner(kb, core.MinAccesses)
		inter := core.NewPlanner(kb, core.MinAccesses)
		inter.InterLayer = true
		pb, err := base.HeterogeneousCtx(ctx, n, nil)
		if err != nil {
			return err
		}
		pi, err := inter.HeterogeneousCtx(ctx, n, nil)
		if err != nil {
			return err
		}
		cells[i] = Fig11Cell{
			SizeKB:            kb,
			AccessBenefitPct:  stats.Benefit(pb.AccessElems(), pi.AccessElems()),
			LatencyBenefitPct: stats.Benefit(pb.LatencyCycles(), pi.LatencyCycles()),
			CoveragePct:       stats.Percent(pi.InterLayerCoverage()),
		}
		cellDone(prog, "fig11", i, len(cells), fmt.Sprintf("%dkB", kb))
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	t := report.NewTable(
		fmt.Sprintf("Figure 11: inter-layer reuse on/off for %s", modelName),
		"GLB kB", "accesses %", "latency %", "coverage %")
	for _, c := range cells {
		t.Row(c.SizeKB, c.AccessBenefitPct, c.LatencyBenefitPct, c.CoveragePct)
	}

	// Geometric mean across all models at the largest size.
	big := sizes[len(sizes)-1]
	models := model.BuiltinNames()
	baseAcc := make([]int64, len(models))
	interAcc := make([]int64, len(models))
	baseLat := make([]int64, len(models))
	interLat := make([]int64, len(models))
	if err := forEachCtx(ctx, s, len(models), func(ctx context.Context, i int) error {
		nn := mustBuiltin(models[i])
		bpl := core.NewPlanner(big, core.MinAccesses)
		pb, err := bpl.HeterogeneousCtx(ctx, nn, nil)
		if err != nil {
			return err
		}
		ipl := core.NewPlanner(big, core.MinAccesses)
		ipl.InterLayer = true
		pi, err := ipl.HeterogeneousCtx(ctx, nn, nil)
		if err != nil {
			return err
		}
		baseAcc[i], interAcc[i] = pb.AccessElems(), pi.AccessElems()
		baseLat[i], interLat[i] = pb.LatencyCycles(), pi.LatencyCycles()
		cellDone(prog, "fig11", len(cells)+i, len(cells)+len(models), models[i])
		return nil
	}); err != nil {
		return nil, nil, nil, err
	}
	g := report.NewTable(fmt.Sprintf("Figure 11b: geomean inter-layer benefit at %d kB, all models", big),
		"metric", "geomean benefit %")
	g.Row("accesses", stats.Percent(stats.GeoMeanReduction(baseAcc, interAcc)))
	g.Row("latency", stats.Percent(stats.GeoMeanReduction(baseLat, interLat)))
	return cells, t, g, nil
}

// Headline summarises the paper's headline claims against this
// implementation: the maximum access reduction at the smallest buffer and
// the maximum latency reduction anywhere.
type Headline struct {
	MaxAccessReductionPct  float64
	MaxAccessModel         string
	MaxLatencyReductionPct float64
	MaxLatencyModel        string
	MaxLatencySizeKB       int
}

// Headlines computes the abstract's headline numbers from the Fig5/Fig8
// cell data.
func Headlines(f5 []Fig5Cell, f8 []Fig8Cell) (Headline, *report.Table) {
	var h Headline
	minSize := 0
	for _, c := range f5 {
		if minSize == 0 || c.SizeKB < minSize {
			minSize = c.SizeKB
		}
	}
	for _, c := range f5 {
		if c.SizeKB != minSize {
			continue
		}
		best := int64(0)
		for _, v := range c.Baselines {
			if best == 0 || v < best {
				best = v
			}
		}
		if r := stats.Benefit(best, c.Het); r > h.MaxAccessReductionPct {
			h.MaxAccessReductionPct, h.MaxAccessModel = r, c.Model
		}
	}
	for _, c := range f8 {
		if r := stats.Benefit(c.Baseline, c.HetL); r > h.MaxLatencyReductionPct {
			h.MaxLatencyReductionPct, h.MaxLatencyModel, h.MaxLatencySizeKB = r, c.Model, c.SizeKB
		}
	}
	t := report.NewTable("Headline results (paper: up to 80% accesses, up to 56% latency)",
		"metric", "value", "where")
	t.Row("max access reduction %", h.MaxAccessReductionPct,
		fmt.Sprintf("%s @%dkB", h.MaxAccessModel, minSize))
	t.Row("max latency reduction %", h.MaxLatencyReductionPct,
		fmt.Sprintf("%s @%dkB", h.MaxLatencyModel, h.MaxLatencySizeKB))
	return h, t
}
