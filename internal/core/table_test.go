package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"scratchmem/internal/layer"
	"scratchmem/internal/model"
	"scratchmem/internal/policy"
	"scratchmem/internal/smmerr"
)

// TestInterLayerInfeasibleReportsFirstLayer: when the inter-layer DP finds
// no feasible schedule, the error names exactly the first layer whose best
// candidate does not fit — established independently here by a direct
// sweep with no table.
func TestInterLayerInfeasibleReportsFirstLayer(t *testing.T) {
	n, _ := model.Builtin("ResNet18")
	pl := NewPlanner(0, MinAccesses)
	pl.Cfg.GLBBytes = 256
	pl.InterLayer = true

	_, err := pl.Heterogeneous(n)
	var le *smmerr.LayerError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want a *LayerError", err)
	}
	var ie *InfeasibleError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v, want an *InfeasibleError inside", err)
	}

	// The independent reference: first layer with no feasible candidate.
	ref := &Planner{Cfg: pl.Cfg, Objective: MinAccesses}
	first := -1
	for i := range n.Layers {
		if e := ref.bestForLayer(nil, n, i, false, false); !e.Feasible {
			first = i
			break
		}
	}
	if first < 0 {
		t.Fatal("test premise broken: every layer fits in a 256-byte GLB")
	}
	if le.Index != first || le.Name != n.Layers[first].Name {
		t.Errorf("reported layer %d (%s), want first infeasible %d (%s)",
			le.Index, le.Name, first, n.Layers[first].Name)
	}
}

// bestHomogeneousGraphDirect is BestHomogeneousGraphCtx with no table: every
// variant planned in turn, each node question swept afresh.
func bestHomogeneousGraphDirect(pl *Planner, g *model.Graph) (*Plan, error) {
	var best *Plan
	var lastErr error
	for _, v := range homVariants(pl.prefetchChoices()) {
		p, err := pl.planGraphIn(context.Background(), nil, g, pl.homNodeEstimator(v.id, v.pf),
			"hom "+policy.Variant(v.id, v.pf)+" dag", nil)
		if err != nil {
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

// samePlan fails the test unless got and want are the same outcome: equal
// error texts, or deeply equal plans.
func samePlan(t *testing.T, tag string, got, want *Plan, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: errors diverge: table=%v direct=%v", tag, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: plan built with the sweep table diverges from the direct one", tag)
	}
}

// TestSweepTablePlanningEquivalence is the whole-plan reference for the
// per-call sweep table: across every builtin, the paper's GLB sizes, both
// objectives and the het, hom and inter-layer schemes — plus the DAG
// planner's het and hom searches on every builtin whose graph is not a
// chain — plans built through the public entry points, which answer every
// per-layer question through a pooled table, deeply equal plans built with
// no table, where every question is swept afresh.
func TestSweepTablePlanningEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, name := range model.AllBuiltinNames() {
		n, err := model.Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, kb := range paperSizesKB {
			for _, obj := range []Objective{MinAccesses, MinLatency} {
				tag := fmt.Sprintf("%s@%dkB/%v", name, kb, obj)
				pl := NewPlanner(kb, obj)
				got, gotErr := pl.HeterogeneousCtx(ctx, n, nil)
				want, wantErr := pl.heterogeneousIn(ctx, nil, n, nil)
				samePlan(t, tag+"/het", got, want, gotErr, wantErr)

				got, gotErr = pl.BestHomogeneousCtx(ctx, n, nil)
				want, wantErr = pl.bestHomogeneousIn(ctx, nil, n, nil)
				samePlan(t, tag+"/hom", got, want, gotErr, wantErr)

				pl.InterLayer = true
				got, gotErr = pl.HeterogeneousCtx(ctx, n, nil)
				want, wantErr = pl.heterogeneousIn(ctx, nil, n, nil)
				samePlan(t, tag+"/inter", got, want, gotErr, wantErr)
			}
		}
	}
	dags := 0
	for _, name := range model.AllBuiltinNames() {
		g, err := model.BuiltinGraph(name)
		if err != nil {
			t.Fatal(err)
		}
		if g.IsChain() {
			continue
		}
		dags++
		for _, kb := range []int{64, 256, 1024} {
			for _, obj := range []Objective{MinAccesses, MinLatency} {
				tag := fmt.Sprintf("graph/%s@%dkB/%v", name, kb, obj)
				pl := NewPlanner(kb, obj)
				got, gotErr := pl.PlanGraphCtx(ctx, g, nil)
				want, wantErr := pl.planGraphIn(ctx, nil, g, pl.fullNodeEstimator(), "het dag", nil)
				samePlan(t, tag+"/het", got, want, gotErr, wantErr)

				got, gotErr = pl.BestHomogeneousGraphCtx(ctx, g, nil)
				want, wantErr = bestHomogeneousGraphDirect(pl, g)
				samePlan(t, tag+"/hom", got, want, gotErr, wantErr)
			}
		}
	}
	if dags != 5 {
		t.Fatalf("%d builtin graphs are DAGs, want 5", dags)
	}
}

// TestPlanGraphSweepsEachQuestionOnce pins the DAG planner's use of its
// sweep table: however many residency and demotion trials the search runs,
// each distinct (shape, resident, keep) question reaches the node
// estimator at most once — for the het sweep, a homogeneous variant and
// the lifetime_spill rung's minimal candidate set alike.
func TestPlanGraphSweepsEachQuestionOnce(t *testing.T) {
	g, err := model.BuiltinGraph("GoogLeNet")
	if err != nil {
		t.Fatal(err)
	}
	type question struct {
		shape          policy.LayerKey
		resident, keep bool
	}
	for _, kb := range []int{64, 256} {
		pl := NewPlanner(kb, MinAccesses)
		for _, c := range []struct {
			name string
			est  nodeEstimator
		}{
			{"het", pl.fullNodeEstimator()},
			{"hom", pl.homNodeEstimator(policy.P4PartialIfmap, true)},
			{DegradedLifetimeSpill, pl.minimalNodeEstimator()},
		} {
			calls := map[question]int{}
			counting := func(e *policy.Result, l *layer.Layer, resident, keep bool) {
				calls[question{policy.KeyOf(l), resident, keep}]++
				c.est(e, l, resident, keep)
			}
			if _, err := pl.planGraph(context.Background(), g, counting, c.name, nil); err != nil {
				t.Fatalf("%s@%dkB: %v", c.name, kb, err)
			}
			if len(calls) == 0 {
				t.Fatalf("%s@%dkB: the estimator was never called", c.name, kb)
			}
			for q, n := range calls {
				if n > 1 {
					t.Errorf("%s@%dkB: question %+v swept %d times, want once", c.name, kb, q, n)
				}
			}
		}
	}
}

// TestPooledPlanningConcurrent plans several networks under every scheme
// and both objectives from several goroutines at once, so the planners
// draw their sweep tables, DP tables and homogeneous scratch from the
// shared pools concurrently, and checks every plan against one built
// sequentially beforehand. CI runs it under -race -count=10.
func TestPooledPlanningConcurrent(t *testing.T) {
	ctx := context.Background()
	type job struct {
		net   *model.Network
		obj   Objective
		inter bool
		hom   bool
	}
	var jobs []job
	for _, name := range []string{"ResNet18", "MobileNetV2", "GoogLeNet", "TinyCNN"} {
		n, err := model.Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, obj := range []Objective{MinAccesses, MinLatency} {
			jobs = append(jobs, job{n, obj, false, false}, job{n, obj, true, false}, job{n, obj, false, true})
		}
	}
	run := func(j job) (*Plan, error) {
		pl := &Planner{Cfg: policy.Default(64), Objective: j.obj, InterLayer: j.inter}
		if j.hom {
			return pl.BestHomogeneousCtx(ctx, j.net, nil)
		}
		return pl.HeterogeneousCtx(ctx, j.net, nil)
	}
	want := make([]*Plan, len(jobs))
	for i, j := range jobs {
		p, err := run(j)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p
	}
	const goroutines = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine walks the jobs from a different offset, so
			// different networks and schemes recycle the same pooled
			// structures.
			for x := range jobs {
				i := (x + g*len(jobs)/goroutines) % len(jobs)
				got, err := run(jobs[i])
				if err != nil {
					t.Errorf("goroutine %d job %d: %v", g, i, err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d job %d (%s): plan diverges from the sequential one", g, i, jobs[i].net.Name)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
