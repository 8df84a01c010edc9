package core

import (
	"context"
	"testing"

	"scratchmem/internal/model"
)

// TestWarmPlanAllocs bounds steady-state planning allocations: with the
// scratch pools (sweep table, DP table, homogeneous scratch) warm, a plan
// costs only its returned value — the Plan struct and its layer slice —
// plus a couple of unavoidable escapes, not per-layer or per-policy
// garbage. Generous bounds (2-3x the measured
// counts) keep the test meaningful without being flaky.
func TestWarmPlanAllocs(t *testing.T) {
	n, err := model.Builtin("ResNet18")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	cases := []struct {
		name  string
		plan  func(pl *Planner) error
		inter bool
		bound float64
	}{
		{"het", func(pl *Planner) error { _, err := pl.HeterogeneousCtx(ctx, n, nil); return err }, false, 6},
		{"inter", func(pl *Planner) error { _, err := pl.HeterogeneousCtx(ctx, n, nil); return err }, true, 8},
		{"hom", func(pl *Planner) error { _, err := pl.BestHomogeneousCtx(ctx, n, nil); return err }, false, 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pl := NewPlanner(64, MinAccesses)
			pl.InterLayer = tc.inter
			if err := tc.plan(pl); err != nil { // warm the pools
				t.Fatal(err)
			}
			got := testing.AllocsPerRun(50, func() {
				if err := tc.plan(pl); err != nil {
					t.Fatal(err)
				}
			})
			if got > tc.bound {
				t.Errorf("warm %s plan allocates %.1f objects/op, want <= %.0f", tc.name, got, tc.bound)
			}
		})
	}
}
