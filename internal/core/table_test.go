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

// bumpLayer returns a copy of n with layer i reshaped: F grows by delta
// (CI for depth-wise layers, whose F is pinned to 1).
func bumpLayer(n *model.Network, i, delta int) *model.Network {
	layers := append([]layer.Layer(nil), n.Layers...)
	l := layers[i]
	if l.Kind == layer.DepthwiseConv {
		layers[i] = layer.MustNew(l.Name, l.Kind, l.IH, l.IW, l.CI+delta, l.FH, l.FW, l.F, l.S, l.P)
	} else {
		layers[i] = layer.MustNew(l.Name, l.Kind, l.IH, l.IW, l.CI, l.FH, l.FW, l.F+delta, l.S, l.P)
	}
	return &model.Network{Name: n.Name + "-mut", Layers: layers}
}

// neighbours returns the one-layer neighbours of n a batch typically
// carries: first-, middle- and last-layer bumps, an inserted and a deleted
// middle layer, and a copy with every layer renamed.
func neighbours(n *model.Network) []*model.Network {
	mid := len(n.Layers) / 2
	ins := append([]layer.Layer(nil), n.Layers[:mid]...)
	ins = append(ins, layer.MustNew("inserted", layer.Conv, 14, 14, 32, 3, 3, 32, 1, 1))
	ins = append(ins, n.Layers[mid:]...)
	del := append([]layer.Layer(nil), n.Layers[:mid]...)
	del = append(del, n.Layers[mid+1:]...)
	ren := append([]layer.Layer(nil), n.Layers...)
	for i := range ren {
		ren[i].Name = fmt.Sprintf("renamed%d", i)
	}
	return []*model.Network{
		bumpLayer(n, 0, 1), bumpLayer(n, mid, 1), bumpLayer(n, len(n.Layers)-1, 1),
		{Name: n.Name + "-ins", Layers: ins},
		{Name: n.Name + "-del", Layers: del},
		{Name: n.Name + "-ren", Layers: ren},
	}
}

// TestCheckpointKnobCompatibility pins the precondition of reusing one
// planning call's answers in another, which a checkpoint once carried and a
// batch's SweepTables carry now: answers never cross a knob set. After
// ResNet18 is planned at 64 kB under MinAccesses through a set, replanning
// it asks its table no new question; a plan that changes the GLB size, the
// objective or prefetch answers through a table of its own; an inter-layer
// plan, which asks other questions but reads no other knob, answers through
// the base's table; and each deeply equals the plan built with no table.
func TestCheckpointKnobCompatibility(t *testing.T) {
	n, err := model.Builtin("ResNet18")
	if err != nil {
		t.Fatal(err)
	}
	ctx := WithSweepTables(context.Background(), new(SweepTables))
	base := NewPlanner(64, MinAccesses)
	if _, err := base.HeterogeneousCtx(ctx, n, nil); err != nil {
		t.Fatal(err)
	}
	baseTable := base.sweepTableFor(ctx)
	asked := len(baseTable.wins)
	if asked == 0 {
		t.Fatal("the base plan left no answer in its shared table")
	}
	got, gotErr := base.HeterogeneousCtx(ctx, n, nil)
	want, wantErr := base.heterogeneousIn(context.Background(), nil, n, nil)
	samePlan(t, "same-knobs", got, want, gotErr, wantErr)
	if len(baseTable.wins) != asked {
		t.Fatalf("replanning with the same knobs swept %d new questions", len(baseTable.wins)-asked)
	}

	for _, tc := range []struct {
		name     string
		mut      func(pl *Planner)
		ownTable bool
	}{
		{"glb-size", func(pl *Planner) { pl.Cfg = policy.Default(128) }, true},
		{"objective", func(pl *Planner) { pl.Objective = MinLatency }, true},
		{"prefetch", func(pl *Planner) { pl.DisablePrefetch = true }, true},
		{"inter-layer", func(pl *Planner) { pl.InterLayer = true }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pl := NewPlanner(64, MinAccesses)
			tc.mut(pl)
			got, gotErr := pl.HeterogeneousCtx(ctx, n, nil)
			want, wantErr := pl.heterogeneousIn(context.Background(), nil, n, nil)
			samePlan(t, tc.name, got, want, gotErr, wantErr)
			if own := pl.sweepTableFor(ctx) != baseTable; own != tc.ownTable {
				t.Fatalf("answers through its own table = %v, want %v", own, tc.ownTable)
			}
		})
	}
}

// TestSharedSweepTablesEquivalence is the reference for sweep tables shared
// by the planning calls of a batch: every builtin and its neighbours, at
// three GLB sizes, under both objectives, with and without prefetch, as
// het, inter-layer and hom plans, planned from several goroutines through
// one SweepTables, deeply equal the plans built with no table, error texts
// included. The set holds one table per knob set, so a table answering
// another knob set's questions would show here. CI runs it under -race.
func TestSharedSweepTablesEquivalence(t *testing.T) {
	type job struct {
		pl  Planner
		net *model.Network
		hom bool
	}
	var jobs []job
	for _, name := range model.AllBuiltinNames() {
		base, err := model.Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		nets := append([]*model.Network{base}, neighbours(base)...)
		for _, kb := range []int{32, 128, 512} {
			for _, obj := range []Objective{MinAccesses, MinLatency} {
				for _, nopf := range []bool{false, true} {
					pl := Planner{Cfg: policy.Default(kb), Objective: obj, DisablePrefetch: nopf}
					inter := pl
					inter.InterLayer = true
					for _, nn := range nets {
						jobs = append(jobs, job{pl, nn, false}, job{inter, nn, false}, job{pl, nn, true})
					}
				}
			}
		}
	}
	ctx := WithSweepTables(context.Background(), new(SweepTables))
	const goroutines = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Neighbouring jobs share a knob set and mostly their layers,
			// so the goroutines ask one table the same questions at once.
			for i := g; i < len(jobs); i += goroutines {
				j := &jobs[i]
				var got, want *Plan
				var gotErr, wantErr error
				if j.hom {
					got, gotErr = j.pl.BestHomogeneousCtx(ctx, j.net, nil)
					want, wantErr = j.pl.bestHomogeneousIn(ctx, nil, j.net, nil)
				} else {
					got, gotErr = j.pl.HeterogeneousCtx(ctx, j.net, nil)
					want, wantErr = j.pl.heterogeneousIn(ctx, nil, j.net, nil)
				}
				tag := fmt.Sprintf("%s@%dB/%v/nopf=%v/inter=%v/hom=%v", j.net.Name, j.pl.Cfg.GLBBytes,
					j.pl.Objective, j.pl.DisablePrefetch, j.pl.InterLayer, j.hom)
				if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
					t.Errorf("%s: errors diverge: shared=%v direct=%v", tag, gotErr, wantErr)
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: plan built through the shared tables diverges from the direct one", tag)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
