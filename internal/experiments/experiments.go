// Package experiments regenerates every table and figure of the paper's
// evaluation (§4-§5): the model inventory (Table 2), policy memory maxima
// (Table 3), chosen policy mixes (Table 4), the ResNet18 memory breakdown
// (Figure 3), off-chip access volumes against the SCALE-Sim baseline
// (Figure 5), the heterogeneous-scheme allocation anatomy (Figure 6), the
// data-width study (Figure 7), latency (Figure 8), the accesses-vs-latency
// trade-off (Figure 9), the prefetching ablation (Figure 10) and
// inter-layer reuse (Figure 11). Each driver returns structured data plus a
// rendered table so the CLI, the benchmarks and the tests share one code
// path.
package experiments

import (
	"context"
	"fmt"

	"scratchmem/internal/core"
	"scratchmem/internal/layer"
	"scratchmem/internal/model"
	"scratchmem/internal/parallel"
	"scratchmem/internal/policy"
	"scratchmem/internal/progress"
	"scratchmem/internal/report"
	"scratchmem/internal/scalesim"
)

// PaperSizesKB are the GLB sizes of the paper's experimental setup.
var PaperSizesKB = []int{64, 128, 256, 512, 1024}

// Setup parameterises the experiment drivers.
type Setup struct {
	// SizesKB are the GLB sizes to sweep (defaults to PaperSizesKB).
	SizesKB []int
	// Workers bounds the fan-out concurrency (0 = GOMAXPROCS).
	Workers int
}

// DefaultSetup returns the paper's configuration.
func DefaultSetup() Setup { return Setup{SizesKB: PaperSizesKB} }

func (s Setup) sizes() []int {
	if len(s.SizesKB) == 0 {
		return PaperSizesKB
	}
	return s.SizesKB
}

// mustBuiltin panics on an unknown model name; experiment drivers only use
// the six built-ins.
func mustBuiltin(name string) *model.Network {
	n, err := model.Builtin(name)
	if err != nil {
		panic(err)
	}
	return n
}

// builtinsByName materialises the named built-ins once, so cell loops that
// fan out over (model, size) grids share one read-only network per model
// instead of rebuilding it in every cell.
func builtinsByName(names []string) []*model.Network {
	out := make([]*model.Network, len(names))
	for i, name := range names {
		out[i] = mustBuiltin(name)
	}
	return out
}

func mustPlan(p *core.Plan, err error) *core.Plan {
	if err != nil {
		panic(fmt.Sprintf("experiments: planning failed: %v", err))
	}
	return p
}

// Table2 reproduces the model inventory.
func Table2() *report.Table {
	t := report.NewTable("Table 2: DL models studied", "Network", "Layers", "Types")
	for _, n := range model.Builtins() {
		types := ""
		for i, k := range n.Types() {
			if i > 0 {
				types += ", "
			}
			types += k.String()
		}
		t.Row(n.Name, len(n.Layers), types)
	}
	return t
}

// Table3Data holds the per-model maxima in kB for the minimal-transfer
// policies.
type Table3Data struct {
	Model             string
	Intra, P1, P2, P3 float64
}

// Table3 reproduces the maximum memory requirements of the policies where
// every element moves once. Following the paper's own accounting (see
// DESIGN.md §2) ifmaps are unpadded here; note the paper's printed "Policy
// 1"/"Policy 3" columns are swapped relative to its §3.2 definitions, and
// this table uses the definitions.
func Table3() ([]Table3Data, *report.Table) {
	cfg := policy.Default(1024)
	cfg.IncludePadding = false
	t := report.NewTable(
		"Table 3: max memory (kB) for single-transfer policies (text definitions; the paper's printed P1/P3 columns are swapped)",
		"Network", "intra-layer", "policy 1", "policy 2", "policy 3")
	var data []Table3Data
	for _, n := range model.Builtins() {
		d := Table3Data{
			Model: n.Name,
			Intra: policy.MaxMemoryKB(n.Layers, policy.IntraLayer, cfg),
			P1:    policy.MaxMemoryKB(n.Layers, policy.P1IfmapReuse, cfg),
			P2:    policy.MaxMemoryKB(n.Layers, policy.P2FilterReuse, cfg),
			P3:    policy.MaxMemoryKB(n.Layers, policy.P3PerChannel, cfg),
		}
		data = append(data, d)
		t.Row(d.Model, d.Intra, d.P1, d.P2, d.P3)
	}
	return data, t
}

// Table4 reproduces the per-network policy mixes of the heterogeneous
// scheme at the given GLB size (64 kB in the paper).
func Table4(glbKB int) *report.Table {
	t := report.NewTable(fmt.Sprintf("Table 4: memory policies used by Het at %d kB", glbKB),
		"Network", "Policies")
	pl := core.NewPlanner(glbKB, core.MinAccesses)
	for _, n := range model.Builtins() {
		p := mustPlan(pl.Heterogeneous(n))
		mix := ""
		for i, v := range p.PolicyMix() {
			if i > 0 {
				mix += ", "
			}
			mix += v
		}
		t.Row(n.Name, mix)
	}
	return t
}

// Fig3 reproduces the ResNet18 per-layer memory breakdown (kB per data
// type, 8-bit, unpadded).
func Fig3() *report.Table {
	n := mustBuiltin("ResNet18")
	t := report.NewTable("Figure 3: ResNet18 per-layer memory breakdown (kB)",
		"Layer", "Name", "ifmap", "filter", "ofmap")
	for i := range n.Layers {
		l := &n.Layers[i]
		t.Row(fmt.Sprintf("L%d", i+1), l.Name,
			layer.KB(l.IfmapElems(false), 8),
			layer.KB(l.FilterElems(), 8),
			layer.KB(l.OfmapElems(), 8))
	}
	return t
}

// Fig6 reproduces the heterogeneous scheme's allocation anatomy: per layer,
// the space the chosen policy assigns to each data type (including the
// double-buffered prefetch reserve) and the policy label, for ResNet18 at
// the given size.
func Fig6(glbKB int) *report.Table {
	n := mustBuiltin("ResNet18")
	p := mustPlan(core.NewPlanner(glbKB, core.MinAccesses).Heterogeneous(n))
	t := report.NewTable(
		fmt.Sprintf("Figure 6: Het memory breakdown for ResNet18 at %d kB", glbKB),
		"Layer", "Name", "Policy", "ifmap kB", "filter kB", "ofmap kB", "total kB")
	for i := range p.Layers {
		lp := &p.Layers[i]
		e := &lp.Est
		label := e.Policy.Short()
		if e.Opts.Prefetch {
			label += "+p"
		}
		ifKB := layer.KB(e.Tiles.Ifmap+e.DoubleBuffered.Ifmap, p.Cfg.DataWidthBits)
		flKB := layer.KB(e.Tiles.Filter+e.DoubleBuffered.Filter, p.Cfg.DataWidthBits)
		ofKB := layer.KB(e.Tiles.Ofmap+e.DoubleBuffered.Ofmap, p.Cfg.DataWidthBits)
		t.Row(fmt.Sprintf("L%d", i+1), lp.Layer.Name, label, ifKB, flKB, ofKB,
			float64(e.MemoryBytes)/1024.0)
	}
	return t
}

// baselineBestCtx returns the lowest-traffic baseline configuration result
// for a model at a GLB size, with cancellation threaded through the
// per-split baseline simulations.
func baselineBestCtx(ctx context.Context, n *model.Network, kb, width int) (string, int64, error) {
	bestName, best := "", int64(0)
	for _, c := range scalesim.PaperSplits(kb, width) {
		r, err := scalesim.SimulateNetworkCtx(ctx, n, c, nil)
		if err != nil {
			return "", 0, err
		}
		if b := r.DRAMBytes(); bestName == "" || b < best {
			bestName, best = c.Name, b
		}
	}
	return bestName, best, nil
}

// forEachCtx fans a driver's cells over the setup's worker pool with
// cancellation: dispatching stops at the first worker error or at ctx
// cancellation, in-flight cells drain, and the first error wins.
func forEachCtx(ctx context.Context, s Setup, n int, f func(ctx context.Context, i int) error) error {
	return parallel.ForEachCtx(ctx, n, s.Workers, f)
}

// mustCells adapts a Ctx driver to the legacy panic-on-failure contract:
// the context-free wrappers cannot be canceled, so any error is the
// planning failure the old drivers panicked on.
func mustCells(err error) {
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
}

// cellDone emits one progress event for a finished experiment cell.
func cellDone(prog progress.Func, phase string, i, total int, name string) {
	prog.Emit(progress.Event{Phase: phase, Index: i, Total: total, Name: name})
}
