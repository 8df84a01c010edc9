// Command smm-bench measures the planning hot paths and emits a
// machine-readable before/after document (BENCH_10.json by default), so
// the planner and a batch's shared sweep tables stay pinned to numbers
// anyone can diff — the shared tables against planning each network on its
// own — and, with -against, acts as the CI regression gate over a
// previously committed document.
//
// Document format (schema "smm-bench/v1"):
//
//	{
//	  "schema": "smm-bench/v1",
//	  "gomaxprocs": 1,
//	  "benchmarks": [
//	    {
//	      "name": "PlannerAllModels",         // matches the Go benchmark name
//	      "before_ns_per_op": 7160979,        // pre-optimisation cost
//	      "before_source": "seed",            // "seed": recorded at the seed
//	                                          // commit; "measured": the
//	                                          // from-scratch baseline run by
//	                                          // this invocation
//	      "after_ns_per_op": 2262410,         // measured by this invocation
//	      "speedup": 3.17,
//	      "allocs_per_op": 12,                // heap allocations per op on
//	                                          // the measured (after) path
//	      "sequential_ns_per_op": 7011234     // optional: the from-scratch
//	                                          // baseline measured live, for
//	                                          // workloads that expose one
//	    }, ...
//	  ]
//	}
//
// Usage:
//
//	smm-bench                 # ~1s per workload, writes BENCH_10.json
//	smm-bench -time 5 -count 3 -o /tmp/bench.json
//	smm-bench -quick          # single iteration per workload (CI smoke)
//	smm-bench -against BENCH_10.json  # regression gate: non-zero exit when
//	                                  # any shared benchmark slowed >10%
//	                                  # (tune with -tolerance)
//	smm-bench -cpuprofile cpu.pprof -memprofile mem.pprof
//	                          # diagnose a gate failure with go tool pprof
//
// The -against gate is what CI runs: it compares this invocation's
// after_ns_per_op against the named document's, per benchmark name, so the
// BENCH trajectory only ever moves one way.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	scratchmem "scratchmem"
	"scratchmem/internal/cli"
	"scratchmem/internal/core"
	"scratchmem/internal/dse"
	"scratchmem/internal/experiments"
	"scratchmem/internal/layer"
	"scratchmem/internal/model"
	"scratchmem/internal/policy"
)

// seedNsPerOp records `go test -bench -benchtime 30x` at the seed commit
// (the tree immediately before this PR) on the reference machine, so every
// emitted document carries the baseline the optimisation was measured
// against even where the old code path no longer exists.
var seedNsPerOp = map[string]int64{
	"Estimate":         237,
	"PlanModel":        45006,
	"PlannerHet":       45351,
	"PlannerAllModels": 7160979,
	"Fig5_Accesses":    14971223,
	"Fig8_Latency":     26905313,
	"DSELayer":         85865,
}

// entry is one benchmark row of the emitted document.
type entry struct {
	Name         string  `json:"name"`
	BeforeNsOp   int64   `json:"before_ns_per_op"`
	BeforeSource string  `json:"before_source"`
	AfterNsOp    int64   `json:"after_ns_per_op"`
	Speedup      float64 `json:"speedup"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	SequentialNs int64   `json:"sequential_ns_per_op,omitempty"`
}

// document is the whole BENCH_10.json payload.
type document struct {
	Schema     string  `json:"schema"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Benchmarks []entry `json:"benchmarks"`
}

// workload names one measured code path. run must perform exactly one
// operation (one figure regeneration, one plan, one estimate); sequential
// optionally performs the same work without shared sweep tables, every
// network planned on its own.
type workload struct {
	name       string
	run        func()
	sequential func()
}

func mustPlan(_ *core.Plan, err error) {
	if err != nil {
		panic(err)
	}
}

// neighborsOf builds count variants of base that each differ from it in
// exactly one layer — the shape of a design-space sweep or an NAS inner
// loop, where consecutive planning requests are near-duplicates. Variant i
// mutates layer i%L (bumping F, or CI for depth-wise layers whose F is
// pinned to 1) and takes a unique name so plan keys never collide.
func neighborsOf(base *model.Network, count int) []*model.Network {
	L := len(base.Layers)
	out := make([]*model.Network, 0, count)
	for i := 0; i < count; i++ {
		layers := append([]layer.Layer(nil), base.Layers...)
		l := layers[i%L]
		delta := 1 + i/L
		if l.Kind == layer.DepthwiseConv {
			layers[i%L] = layer.MustNew(l.Name, l.Kind, l.IH, l.IW, l.CI+delta, l.FH, l.FW, l.F, l.S, l.P)
		} else {
			layers[i%L] = layer.MustNew(l.Name, l.Kind, l.IH, l.IW, l.CI, l.FH, l.FW, l.F+delta, l.S, l.P)
		}
		n := &model.Network{Name: fmt.Sprintf("%s-n%d", base.Name, i), Layers: layers}
		if err := n.Validate(); err != nil {
			panic(err)
		}
		out = append(out, n)
	}
	return out
}

// workloads mirrors the headline Go benchmarks (bench_test.go) so the JSON
// rows line up with `go test -bench` output by name.
func workloads() []workload {
	resnet, err := model.Builtin("ResNet18")
	if err != nil {
		panic(err)
	}
	nets := model.Builtins()
	batchNets := append([]*model.Network{resnet}, neighborsOf(resnet, 16)...)
	dseL := layer.MustNew("c", layer.Conv, 14, 14, 256, 3, 3, 512, 1, 1)
	estL := layer.MustNew("c", layer.Conv, 56, 56, 64, 3, 3, 128, 1, 1)
	cfg64 := policy.Default(64)

	return []workload{
		{
			name: "Estimate",
			run:  func() { policy.Estimate(&estL, policy.P5PartialPerChannel, policy.Options{Prefetch: true}, cfg64) },
		},
		{
			name: "PlanModel",
			run: func() {
				if _, err := scratchmem.PlanModel(resnet, scratchmem.PlanOptions{GLBKiloBytes: 64}); err != nil {
					panic(err)
				}
			},
		},
		{
			name: "PlannerHet",
			run:  func() { mustPlan(core.NewPlanner(64, core.MinAccesses).Heterogeneous(resnet)) },
		},
		{
			name: "PlannerAllModels",
			run: func() {
				for _, n := range nets {
					for _, kb := range experiments.PaperSizesKB {
						for _, obj := range []core.Objective{core.MinAccesses, core.MinLatency} {
							mustPlan(core.NewPlanner(kb, obj).Heterogeneous(n))
						}
					}
				}
			},
		},
		{
			// NeighborSweep times the batch seam at the core: ResNet18 and
			// 16 one-layer variants planned through one set of shared
			// sweep tables, so each variant sweeps only what its changed
			// layer asks, versus planning all 17 on their own.
			name: "NeighborSweep",
			run: func() {
				pl := core.NewPlanner(64, core.MinAccesses)
				ctx := core.WithSweepTables(context.Background(), new(core.SweepTables))
				for _, nn := range batchNets {
					mustPlan(pl.HeterogeneousCtx(ctx, nn, nil))
				}
			},
			sequential: func() {
				pl := core.NewPlanner(64, core.MinAccesses)
				for _, nn := range batchNets {
					mustPlan(pl.Heterogeneous(nn))
				}
			},
		},
		{
			// BatchNeighbors is the same network set through the public
			// façade, wired the way /v1/plan/batch wires it: one set of
			// shared sweep tables in every call's context, versus
			// independent PlanModel calls.
			name: "BatchNeighbors",
			run: func() {
				ctx := core.WithSweepTables(context.Background(), new(core.SweepTables))
				opts := scratchmem.PlanOptions{GLBKiloBytes: 64}
				for _, nn := range batchNets {
					if _, err := scratchmem.PlanModelCtx(ctx, nn, opts, nil); err != nil {
						panic(err)
					}
				}
			},
			sequential: func() {
				for _, nn := range batchNets {
					if _, err := scratchmem.PlanModel(nn, scratchmem.PlanOptions{GLBKiloBytes: 64}); err != nil {
						panic(err)
					}
				}
			},
		},
		{
			name: "Fig5_Accesses",
			run:  func() { experiments.Fig5(experiments.DefaultSetup()) },
		},
		{
			name: "Fig8_Latency",
			run:  func() { experiments.Fig8(experiments.DefaultSetup()) },
		},
		{
			name: "DSELayer",
			run: func() {
				if r := dse.Best(&dseL, cfg64); !r.Feasible {
					panic("dse infeasible")
				}
			},
		},
	}
}

// measure times f like a testing.B loop: warm once, then grow the iteration
// count until one timed run lasts at least minTime, and report ns/op plus
// heap allocations/op (runtime mallocs delta) of the final run. Repeated
// count times, keeping the fastest (least-noisy) run.
func measure(f func(), minTime time.Duration, count int) (nsPerOp, allocsPerOp int64) {
	f() // warm caches, page in code
	var ms runtime.MemStats
	for c := 0; c < count; c++ {
		n := 1
		for {
			runtime.ReadMemStats(&ms)
			mallocs := ms.Mallocs
			start := time.Now()
			for i := 0; i < n; i++ {
				f()
			}
			elapsed := time.Since(start)
			if elapsed >= minTime || n >= 1<<20 {
				ns := elapsed.Nanoseconds() / int64(n)
				if nsPerOp == 0 || ns < nsPerOp {
					runtime.ReadMemStats(&ms)
					nsPerOp = ns
					allocsPerOp = int64(ms.Mallocs-mallocs) / int64(n)
				}
				break
			}
			// Grow geometrically toward the target duration.
			n *= 2
			if elapsed > 0 {
				if pred := int(int64(n) * int64(minTime) / elapsed.Nanoseconds()); pred > n {
					n = pred
				}
			}
		}
	}
	return nsPerOp, allocsPerOp
}

func main() {
	err := run(os.Args[1:], os.Stdout)
	cli.Exit("smm-bench", err)
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("smm-bench", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		outPath    = fs.String("o", "BENCH_10.json", "output path for the benchmark document")
		benchTime  = fs.Float64("time", 1.0, "minimum seconds to spend per workload")
		count      = fs.Int("count", 1, "repetitions per workload (fastest run wins)")
		quick      = fs.Bool("quick", false, "single iteration per workload — a CI smoke run, not a measurement")
		against    = fs.String("against", "", "reference document: fail when any shared benchmark slowed past -tolerance")
		tolerance  = fs.Float64("tolerance", 0.10, "allowed fractional slowdown vs -against before failing")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the measured workloads to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile taken after the workloads to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tolerance < 0 {
		return fmt.Errorf("-tolerance must be >= 0, got %g", *tolerance)
	}
	minTime := time.Duration(*benchTime * float64(time.Second))
	if *quick {
		minTime, *count = 0, 1
	}
	if *count < 1 {
		return fmt.Errorf("-count must be >= 1, got %d", *count)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	doc := document{Schema: "smm-bench/v1", GoMaxProcs: runtime.GOMAXPROCS(0)}
	for _, w := range workloads() {
		after, allocs := measure(w.run, minTime, *count)
		e := entry{Name: w.name, AfterNsOp: after, AllocsPerOp: allocs}
		if w.sequential != nil {
			e.SequentialNs, _ = measure(w.sequential, minTime, *count)
		}
		if seed, ok := seedNsPerOp[w.name]; ok {
			e.BeforeNsOp, e.BeforeSource = seed, "seed"
		} else if e.SequentialNs > 0 {
			e.BeforeNsOp, e.BeforeSource = e.SequentialNs, "measured"
		} else {
			e.BeforeNsOp, e.BeforeSource = after, "measured"
		}
		if after > 0 {
			e.Speedup = float64(e.BeforeNsOp) / float64(after)
		}
		doc.Benchmarks = append(doc.Benchmarks, e)
		fmt.Fprintf(out, "%-18s before %12d ns/op  after %12d ns/op  %.2fx\n",
			w.name, e.BeforeNsOp, e.AfterNsOp, e.Speedup)
	}

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(*outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", *outPath)
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile reflects live objects
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
	}
	if *against != "" {
		return gate(out, &doc, *against, *tolerance)
	}
	return nil
}

// gate compares doc's measurements against the reference document at path:
// any benchmark present in both whose after_ns_per_op grew past
// (1 + tolerance)× the reference fails the gate. Benchmarks only one side
// knows are reported and skipped — adding a workload must not break CI —
// and the error names every regressed benchmark, not just the first.
func gate(out io.Writer, doc *document, path string, tolerance float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("-against: %w", err)
	}
	var ref document
	if err := json.Unmarshal(data, &ref); err != nil {
		return fmt.Errorf("-against %s: %w", path, err)
	}
	refNs := make(map[string]int64, len(ref.Benchmarks))
	for _, e := range ref.Benchmarks {
		refNs[e.Name] = e.AfterNsOp
	}
	var regressed []string
	for _, e := range doc.Benchmarks {
		old, ok := refNs[e.Name]
		if !ok || old <= 0 {
			fmt.Fprintf(out, "gate: %-18s not in %s, skipped\n", e.Name, path)
			continue
		}
		ratio := float64(e.AfterNsOp) / float64(old)
		verdict := "ok"
		if ratio > 1+tolerance {
			verdict = "REGRESSED"
			regressed = append(regressed, fmt.Sprintf("%s %.2fx (%d -> %d ns/op)", e.Name, ratio, old, e.AfterNsOp))
		}
		fmt.Fprintf(out, "gate: %-18s %12d -> %12d ns/op  %.2fx  %s\n", e.Name, old, e.AfterNsOp, ratio, verdict)
	}
	if len(regressed) > 0 {
		return fmt.Errorf("performance gate vs %s (tolerance %.0f%%): %s",
			path, tolerance*100, strings.Join(regressed, "; "))
	}
	fmt.Fprintf(out, "gate: all benchmarks within %.0f%% of %s\n", tolerance*100, path)
	return nil
}
