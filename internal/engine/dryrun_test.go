package engine

import (
	"context"
	"testing"

	"scratchmem/internal/core"
	"scratchmem/internal/model"
	"scratchmem/internal/policy"
	"scratchmem/internal/trace"
)

// TestDryRunValidatesWholeModels is the at-scale version of the estimator
// cross-check: for every layer of every Table-2 model, the heterogeneous
// plan's tile schedule — walked for real by the dry-run executor, including
// the scratchpad capacity checks — must move exactly the estimated number
// of elements.
func TestDryRunValidatesWholeModels(t *testing.T) {
	for _, kb := range []int{64, 1024} {
		pl := core.NewPlanner(kb, core.MinAccesses)
		for _, n := range model.Builtins() {
			p, err := pl.Heterogeneous(n)
			if err != nil {
				t.Fatalf("%s @%dkB: %v", n.Name, kb, err)
			}
			for i := range p.Layers {
				lp := &p.Layers[i]
				res, err := DryRunCtx(context.Background(), &lp.Layer, &lp.Est, p.Cfg, nil)
				if err != nil {
					t.Fatalf("%s/%s @%dkB: %v", n.Name, lp.Layer.Name, kb, err)
				}
				if res.AccessIfmap != lp.Est.AccessIfmap ||
					res.AccessFilter != lp.Est.AccessFilter ||
					res.AccessOfmap != lp.Est.AccessOfmap {
					t.Errorf("%s/%s @%dkB (%s): executed (%d,%d,%d) != estimated (%d,%d,%d)",
						n.Name, lp.Layer.Name, kb, lp.Est.Policy,
						res.AccessIfmap, res.AccessFilter, res.AccessOfmap,
						lp.Est.AccessIfmap, lp.Est.AccessFilter, lp.Est.AccessOfmap)
				}
				if res.PeakElems > lp.Est.MemoryElems {
					t.Errorf("%s/%s @%dkB: peak %d > estimate %d",
						n.Name, lp.Layer.Name, kb, res.PeakElems, lp.Est.MemoryElems)
				}
				if res.Output != nil {
					t.Errorf("%s/%s: dry run produced a tensor", n.Name, lp.Layer.Name)
				}
			}
		}
	}
}

// TestDryRunLatencyObjective repeats the validation for latency-optimised
// plans (which prefer prefetching variants).
func TestDryRunLatencyObjective(t *testing.T) {
	pl := core.NewPlanner(256, core.MinLatency)
	n, _ := model.Builtin("MobileNetV2")
	p, err := pl.Heterogeneous(n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Layers {
		lp := &p.Layers[i]
		res, err := DryRunCtx(context.Background(), &lp.Layer, &lp.Est, p.Cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.AccessElems() != lp.Est.AccessElems {
			t.Errorf("%s (%s): executed %d != estimated %d",
				lp.Layer.Name, policy.Variant(lp.Est.Policy, lp.Est.Opts.Prefetch),
				res.AccessElems(), lp.Est.AccessElems)
		}
	}
}

// TestTraceEventsMatchCounters: the trace log's per-kind totals must equal
// the executor's counters, and compute events must sum to the layer MACs.
func TestTraceEventsMatchCounters(t *testing.T) {
	n, _ := model.Builtin("TinyCNN")
	pl := core.NewPlanner(32, core.MinAccesses)
	p, err := pl.Heterogeneous(n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Layers {
		lp := &p.Layers[i]
		var log trace.Log
		res, err := DryRunCtx(context.Background(), &lp.Layer, &lp.Est, p.Cfg, &log)
		if err != nil {
			t.Fatal(err)
		}
		tot := log.Totals()
		if tot[trace.LoadIfmap] != res.AccessIfmap ||
			tot[trace.LoadFilter] != res.AccessFilter ||
			tot[trace.StoreOfmap] != res.AccessOfmap {
			t.Errorf("%s: trace totals %v != counters (%d,%d,%d)",
				lp.Layer.Name, tot, res.AccessIfmap, res.AccessFilter, res.AccessOfmap)
		}
		if tot[trace.Compute] != lp.Layer.MACs() {
			t.Errorf("%s: compute events %d != MACs %d", lp.Layer.Name, tot[trace.Compute], lp.Layer.MACs())
		}
	}
}

// TestRunTracedMatchesRun: tracing must not perturb execution.
func TestRunTracedMatchesRun(t *testing.T) {
	l := testLayers()[0]
	cfg := policy.Default(256)
	in, w := operands(&l, 3)
	est := policy.Estimate(&l, policy.P3PerChannel, policy.Options{}, cfg)
	plain, err := Run(&l, &est, cfg, in, w)
	if err != nil {
		t.Fatal(err)
	}
	var log trace.Log
	traced, err := RunTraced(&l, &est, cfg, in, w, &log)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Output.Equal(traced.Output) || plain.AccessElems() != traced.AccessElems() {
		t.Error("tracing changed the execution")
	}
	if log.Len() == 0 {
		t.Error("no events recorded")
	}
}

// TestDryRunRejectsInvalid: validation still applies without tensors.
func TestDryRunRejectsInvalid(t *testing.T) {
	l := testLayers()[0]
	cfg := policy.Default(256)
	est := policy.Estimate(&l, policy.P1IfmapReuse, policy.Options{}, cfg)
	bad := cfg
	bad.GLBBytes = 0
	if _, err := DryRunCtx(context.Background(), &l, &est, bad, nil); err == nil {
		t.Error("invalid config accepted")
	}
	tiny := policy.Default(0)
	tiny.GLBBytes = 16
	if _, err := DryRunCtx(context.Background(), &l, &est, tiny, nil); err == nil {
		t.Error("over-capacity schedule accepted")
	}
}
