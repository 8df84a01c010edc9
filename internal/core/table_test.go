package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

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
// objectives and the het, hom and inter-layer schemes, plans built through
// the public entry points, which answer every per-layer question through a
// pooled table, deeply equal plans built with no table, where every
// question is swept afresh.
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
