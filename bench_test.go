package scratchmem

// One benchmark per paper table and figure: each bench regenerates the
// artefact through the same experiment drivers the CLI uses and reports the
// headline quantity as a custom metric, so `go test -bench` doubles as a
// reproduction run. Micro-benchmarks for the planner, the estimators and
// the functional engine follow.

import (
	"context"
	"math/rand"
	"testing"

	"scratchmem/internal/core"
	"scratchmem/internal/dse"
	"scratchmem/internal/engine"
	"scratchmem/internal/experiments"
	"scratchmem/internal/layer"
	"scratchmem/internal/model"
	"scratchmem/internal/obs"
	"scratchmem/internal/policy"
	"scratchmem/internal/scalesim"
	"scratchmem/internal/simulate"
	"scratchmem/internal/tensor"
)

func benchSetup() experiments.Setup {
	s := experiments.DefaultSetup()
	return s
}

func BenchmarkTable2_Models(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := experiments.Table2(); t.Rows() != 6 {
			b.Fatal("wrong row count")
		}
	}
}

func BenchmarkTable3_PolicyMemory(b *testing.B) {
	var maxKB float64
	for i := 0; i < b.N; i++ {
		data, _ := experiments.Table3()
		for _, d := range data {
			if d.Intra > maxKB {
				maxKB = d.Intra
			}
		}
	}
	b.ReportMetric(maxKB, "max_intra_kB")
}

func BenchmarkTable4_PolicyMix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := experiments.Table4(64); t.Rows() != 6 {
			b.Fatal("wrong row count")
		}
	}
}

func BenchmarkFig3_MemoryBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := experiments.Fig3(); t.Rows() != 21 {
			b.Fatal("wrong row count")
		}
	}
}

func BenchmarkFig5_Accesses(b *testing.B) {
	var red float64
	for i := 0; i < b.N; i++ {
		cells, _ := experiments.Fig5(benchSetup())
		for _, c := range cells {
			if c.Model == "ResNet18" && c.SizeKB == 64 {
				best := int64(0)
				for _, v := range c.Baselines {
					if best == 0 || v < best {
						best = v
					}
				}
				red = 100 * (1 - float64(c.Het)/float64(best))
			}
		}
	}
	b.ReportMetric(red, "resnet18_64kB_reduction_%")
}

func BenchmarkFig6_HetBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := experiments.Fig6(64); t.Rows() != 21 {
			b.Fatal("wrong row count")
		}
	}
}

func BenchmarkFig7_DataWidth(b *testing.B) {
	var ben float64
	for i := 0; i < b.N; i++ {
		cells, _, err := experiments.Fig7Ctx(context.Background(), benchSetup(), nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if c.WidthBits == 32 && c.SizeKB == 64 {
				ben = c.BenefitPct
			}
		}
	}
	b.ReportMetric(ben, "32bit_64kB_het_vs_hom_%")
}

func BenchmarkFig8_Latency(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		cells, _ := experiments.Fig8(benchSetup())
		for _, c := range cells {
			if r := 100 * (1 - float64(c.HetL)/float64(c.Baseline)); r > best {
				best = r
			}
		}
	}
	b.ReportMetric(best, "max_latency_reduction_%")
}

func BenchmarkFig9_AccessVsLatency(b *testing.B) {
	var lat float64
	for i := 0; i < b.N; i++ {
		cells, _, err := experiments.Fig9Ctx(context.Background(), benchSetup(), 64, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if c.LatencyBenefitPct > lat {
				lat = c.LatencyBenefitPct
			}
		}
	}
	b.ReportMetric(lat, "max_hetl_latency_benefit_%")
}

func BenchmarkFig10_Prefetch(b *testing.B) {
	var cov float64
	for i := 0; i < b.N; i++ {
		cells, _, err := experiments.Fig10Ctx(context.Background(), benchSetup(), "MobileNet", nil)
		if err != nil {
			b.Fatal(err)
		}
		cov = cells[len(cells)-1].CoveragePct
	}
	b.ReportMetric(cov, "prefetch_coverage_1MB_%")
}

func BenchmarkFig11_InterLayer(b *testing.B) {
	var ben float64
	for i := 0; i < b.N; i++ {
		cells, _, _, err := experiments.Fig11Ctx(context.Background(), benchSetup(), "MnasNet", nil)
		if err != nil {
			b.Fatal(err)
		}
		ben = cells[len(cells)-1].AccessBenefitPct
	}
	b.ReportMetric(ben, "interlayer_access_benefit_1MB_%")
}

// BenchmarkExtEnergy regenerates the energy extension table.
func BenchmarkExtEnergy(b *testing.B) {
	var red float64
	for i := 0; i < b.N; i++ {
		cells, _, err := experiments.ExtEnergyCtx(context.Background(), benchSetup(), nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if c.Model == "ResNet18" && c.SizeKB == 64 {
				red = c.ReductionPct
			}
		}
	}
	b.ReportMetric(red, "resnet18_64kB_energy_reduction_%")
}

// BenchmarkExtBatch regenerates the batching extension.
func BenchmarkExtBatch(b *testing.B) {
	var saved float64
	for i := 0; i < b.N; i++ {
		cells, _, err := experiments.ExtBatchCtx(context.Background(), benchSetup(), "GoogLeNet", 256, nil)
		if err != nil {
			b.Fatal(err)
		}
		first, last := cells[0], cells[len(cells)-1]
		saved = 100 * (1 - float64(last.PerInputAccessElem)/float64(first.PerInputAccessElem))
	}
	b.ReportMetric(saved, "batch16_per_input_saving_%")
}

// BenchmarkExtInterLayerAblation regenerates the DP-vs-greedy ablation.
func BenchmarkExtInterLayerAblation(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		cells, _, err := experiments.ExtInterLayerAblationCtx(context.Background(), benchSetup(), nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if c.DPGainPct > gain {
				gain = c.DPGainPct
			}
		}
	}
	b.ReportMetric(gain, "max_dp_gain_%")
}

// BenchmarkExtTenancy regenerates the multi-tenancy extension.
func BenchmarkExtTenancy(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		cell, _, err := experiments.ExtTenancyCtx(context.Background(), benchSetup(), "ResNet18", "MobileNet", 128, nil)
		if err != nil {
			b.Fatal(err)
		}
		gain = cell.SharingGainPct
	}
	b.ReportMetric(gain, "timeshare_gain_%")
}

// BenchmarkExtDSE regenerates the Het-vs-DSE near-optimality comparison.
func BenchmarkExtDSE(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		cells, _, err := experiments.ExtDSECtx(context.Background(), benchSetup(), 64, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if c.GapPct > worst {
				worst = c.GapPct
			}
		}
	}
	b.ReportMetric(worst, "max_gap_vs_dse_%")
}

// BenchmarkExtDataflow regenerates the dataflow comparison.
func BenchmarkExtDataflow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, _, err := experiments.ExtDataflowCtx(context.Background(), benchSetup(), 64, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) != 18 {
			b.Fatal("wrong cell count")
		}
	}
}

// BenchmarkExtSensitivity regenerates the hardware co-design sweep.
func BenchmarkExtSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, _, err := experiments.ExtSensitivityCtx(context.Background(), benchSetup(), "MobileNetV2", 64, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) != 9 {
			b.Fatal("wrong cell count")
		}
	}
}

// BenchmarkDSELayer measures one layer's exhaustive tiling search — the
// planning-cost comparison behind ExtDSE.
func BenchmarkDSELayer(b *testing.B) {
	l := layer.MustNew("c", layer.Conv, 14, 14, 256, 3, 3, 512, 1, 1)
	cfg := policy.Default(64)
	for i := 0; i < b.N; i++ {
		if r := dse.Best(&l, cfg); !r.Feasible {
			b.Fatal("infeasible")
		}
	}
}

// BenchmarkSimulateNetwork measures the end-to-end plan simulation.
func BenchmarkSimulateNetwork(b *testing.B) {
	n, _ := model.Builtin("ResNet18")
	p, err := core.NewPlanner(64, core.MinAccesses).Heterogeneous(n)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simulate.Run(p, simulate.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlannerHet measures the paper's "one minute for all models"
// claim: the full heterogeneous planning of one ResNet18 configuration.
func BenchmarkPlannerHet(b *testing.B) {
	n, _ := model.Builtin("ResNet18")
	pl := core.NewPlanner(64, core.MinAccesses)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.Heterogeneous(n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanModel is the context-free façade path on the reference
// configuration (ResNet18 @ 64 kB); its _Ctx twin below measures the same
// work through the context-aware path. Compare them to verify that ctx
// plumbing (one ctx.Err() poll per layer, nil progress hook) costs within
// noise of the legacy path — the estimator math itself never sees a context.
func BenchmarkPlanModel(b *testing.B) {
	n, _ := model.Builtin("ResNet18")
	opts := PlanOptions{GLBKiloBytes: 64}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PlanModel(n, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanModel_Ctx is BenchmarkPlanModel through PlanModelCtx with a
// background context and nil progress hook.
func BenchmarkPlanModel_Ctx(b *testing.B) {
	n, _ := model.Builtin("ResNet18")
	opts := PlanOptions{GLBKiloBytes: 64}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PlanModelCtx(ctx, n, opts, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanModelTraced measures PlanModelCtx the way smm-serve calls
// it: with a tracer in the context, so every plan opens a span that
// records the planner's progress events. GLB sizes cycle from 16 kB to
// 4 MB, so both roomy and degraded plans are in the mix.
func BenchmarkPlanModelTraced(b *testing.B) {
	ctx := obs.WithTracer(context.Background(), obs.NewTracer(0))
	sizes := []int{16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
	for _, name := range []string{"ResNet18", "MobileNetV2", "GoogLeNet"} {
		n, err := model.Builtin(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, hom := range []bool{false, true} {
			scheme := "het"
			if hom {
				scheme = "hom"
			}
			b.Run(scheme+"/"+name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					o := PlanOptions{GLBKiloBytes: sizes[i%len(sizes)], Homogeneous: hom}
					if _, err := PlanModelCtx(ctx, n, o, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPlanGraph measures the DAG planner through PlanGraph: the
// residency search, whose demotion trials re-ask the same node questions,
// for the het sweep and the homogeneous search over every variant. GLB
// sizes cycle from 16 kB to 1 MB.
func BenchmarkPlanGraph(b *testing.B) {
	sizes := []int{16, 32, 64, 128, 256, 512, 1024}
	for _, name := range []string{"ResNet18", "GoogLeNet", "MobileNetV2"} {
		g, err := BuiltinGraph(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, hom := range []bool{false, true} {
			scheme := "het"
			if hom {
				scheme = "hom"
			}
			b.Run(scheme+"/"+name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					o := PlanOptions{GLBKiloBytes: sizes[i%len(sizes)], Homogeneous: hom}
					if _, err := PlanGraph(g, o); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPlannerAllModels plans all six models at all five sizes for both
// objectives — the paper's whole §5.1/§5.2 planning workload.
func BenchmarkPlannerAllModels(b *testing.B) {
	nets := model.Builtins()
	for i := 0; i < b.N; i++ {
		for _, n := range nets {
			for _, kb := range experiments.PaperSizesKB {
				for _, obj := range []core.Objective{core.MinAccesses, core.MinLatency} {
					if _, err := core.NewPlanner(kb, obj).Heterogeneous(n); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
}

// BenchmarkEstimate measures one policy estimation — the planner's inner
// loop.
func BenchmarkEstimate(b *testing.B) {
	l := layer.MustNew("c", layer.Conv, 56, 56, 64, 3, 3, 128, 1, 1)
	cfg := policy.Default(64)
	for i := 0; i < b.N; i++ {
		policy.Estimate(&l, policy.P5PartialPerChannel, policy.Options{Prefetch: true}, cfg)
	}
}

// BenchmarkBaselineNetwork measures the analytical SCALE-Sim baseline over
// a whole network (the artefact the paper contrasts with hours of trace
// simulation).
func BenchmarkBaselineNetwork(b *testing.B) {
	n, _ := model.Builtin("GoogLeNet")
	cfg := scalesim.Split("sa_50_50", 64, 50, 8)
	for i := 0; i < b.N; i++ {
		if _, err := scalesim.SimulateNetwork(n, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselineTrace measures the element-exact trace mode on a small
// layer, showing why analytical estimation wins.
func BenchmarkBaselineTrace(b *testing.B) {
	l := layer.MustNew("c", layer.Conv, 28, 28, 16, 3, 3, 32, 1, 0)
	cfg := scalesim.Split("sa_50_50", 64, 50, 8)
	for i := 0; i < b.N; i++ {
		if _, err := scalesim.Trace(&l, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineLayer measures the functional execution of one layer under
// policy 1 (real MACs through the scratchpad model).
func BenchmarkEngineLayer(b *testing.B) {
	l := layer.MustNew("c", layer.Conv, 28, 28, 16, 3, 3, 32, 1, 1)
	cfg := policy.Default(256)
	est := policy.Estimate(&l, policy.P1IfmapReuse, policy.Options{}, cfg)
	r := rand.New(rand.NewSource(1))
	in := tensor.New(l.IH, l.IW, l.CI).Random(r)
	w := tensor.NewFilters(l.FH, l.FW, l.CI, l.F).Random(r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run(&l, &est, cfg, in, w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanKey times the content hash a planning request is cached
// under: the network's canonical JSON, the options, SHA-256.
func BenchmarkPlanKey(b *testing.B) {
	for _, name := range []string{"MobileNetV2", "GoogLeNet"} {
		b.Run(name, func(b *testing.B) {
			n, err := model.Builtin(name)
			if err != nil {
				b.Fatal(err)
			}
			opts := PlanOptions{GLBKiloBytes: 64}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := PlanKey(n, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
