package scratchmem

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"scratchmem/internal/core"
	"scratchmem/internal/layer"
	"scratchmem/internal/model"
	"scratchmem/internal/plancache"
	"scratchmem/internal/policy"
)

// mutation names one way a serving neighbor differs from its base network.
type mutation struct {
	name  string
	apply func(*Network) *Network
}

// bumpLayer returns a copy of n with layer i reshaped: F grows by delta
// (CI for depth-wise layers, whose F is pinned to 1).
func bumpLayer(n *Network, i, delta int) *Network {
	layers := append([]layer.Layer(nil), n.Layers...)
	l := layers[i]
	if l.Kind == layer.DepthwiseConv {
		layers[i] = layer.MustNew(l.Name, l.Kind, l.IH, l.IW, l.CI+delta, l.FH, l.FW, l.F, l.S, l.P)
	} else {
		layers[i] = layer.MustNew(l.Name, l.Kind, l.IH, l.IW, l.CI, l.FH, l.FW, l.F+delta, l.S, l.P)
	}
	return &Network{Name: n.Name + "-mut", Layers: layers}
}

var mutations = []mutation{
	{"first-layer", func(n *Network) *Network { return bumpLayer(n, 0, 1) }},
	{"middle-layer", func(n *Network) *Network { return bumpLayer(n, len(n.Layers)/2, 1) }},
	{"last-layer", func(n *Network) *Network { return bumpLayer(n, len(n.Layers)-1, 1) }},
	{"insert-mid", func(n *Network) *Network {
		mid := len(n.Layers) / 2
		layers := append([]layer.Layer(nil), n.Layers[:mid]...)
		layers = append(layers, layer.MustNew("inserted", layer.Conv, 14, 14, 32, 3, 3, 32, 1, 1))
		layers = append(layers, n.Layers[mid:]...)
		return &Network{Name: n.Name + "-ins", Layers: layers}
	}},
	{"delete-mid", func(n *Network) *Network {
		if len(n.Layers) < 2 {
			return bumpLayer(n, 0, 1)
		}
		mid := len(n.Layers) / 2
		layers := append([]layer.Layer(nil), n.Layers[:mid]...)
		layers = append(layers, n.Layers[mid+1:]...)
		return &Network{Name: n.Name + "-del", Layers: layers}
	}},
	{"rename-only", func(n *Network) *Network {
		layers := append([]layer.Layer(nil), n.Layers...)
		for i := range layers {
			layers[i].Name = fmt.Sprintf("renamed%d", i)
		}
		return &Network{Name: n.Name + "-ren", Layers: layers}
	}},
}

// TestIncrementalPlanningEquivalence is PR 10's golden property: across
// every builtin model, both objectives, independent and inter-layer modes
// and a spread of one-layer mutations, the plan spliced from a neighbor's
// checkpoint is deeply equal — and renders to byte-identical canonical
// PlanDoc JSON — to planning the mutated network from scratch. Run under
// -race to exercise checkpoint sharing.
func TestIncrementalPlanningEquivalence(t *testing.T) {
	ctx := context.Background()
	const kb = 64
	spliced := 0
	for _, name := range model.BuiltinNames() {
		base, err := model.Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, obj := range []Objective{MinAccesses, MinLatency} {
			for _, inter := range []bool{false, true} {
				pl := core.NewPlanner(kb, obj)
				pl.InterLayer = inter
				_, ck, _, err := pl.HeterogeneousDiffCtx(ctx, base, nil)
				if err != nil {
					continue // infeasible base at this size: nothing to splice
				}
				for _, mut := range mutations {
					nn := mut.apply(base)
					tag := fmt.Sprintf("%s/%v/inter=%v/%s", name, obj, inter, mut.name)

					got, nck, stats, gotErr := pl.HeterogeneousDiffCtx(ctx, nn, ck)
					want, wantErr := pl.HeterogeneousCtx(ctx, nn, nil)

					if (wantErr == nil) != (gotErr == nil) {
						t.Fatalf("%s: errors diverge: ref=%v diff=%v", tag, wantErr, gotErr)
					}
					if wantErr != nil {
						continue
					}
					wantJSON, err := PlanDocument(want).MarshalIndent()
					if err != nil {
						t.Fatal(err)
					}
					gotJSON, err := PlanDocument(got).MarshalIndent()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(wantJSON, gotJSON) {
						t.Fatalf("%s: spliced plan is not byte-identical to from-scratch\nwant:\n%s\ngot:\n%s",
							tag, wantJSON, gotJSON)
					}
					if stats.Outcome == core.OutcomeSpliced {
						spliced++
						if stats.LayersReused <= 0 {
							t.Fatalf("%s: spliced outcome with %d layers reused", tag, stats.LayersReused)
						}
					}
					if nck == nil {
						t.Fatalf("%s: no checkpoint returned", tag)
					}
					if mut.name == "rename-only" && stats.LayersReused != len(nn.Layers) {
						t.Errorf("%s: rename-only reused %d of %d layers",
							tag, stats.LayersReused, len(nn.Layers))
					}
				}
			}
		}
	}
	if spliced == 0 {
		t.Fatal("no cell in the matrix actually spliced — the differential path is dead")
	}
	t.Logf("spliced cells: %d", spliced)
}

// TestIncrementalFacadeEquivalence pins the facade seam: PlanModelCtx with a
// Differ installed (the server's wiring) returns plans byte-identical to
// plain PlanModel, across het, hom and inter-layer options — hom requests
// bypass the differ entirely and must be unaffected by its presence.
func TestIncrementalFacadeEquivalence(t *testing.T) {
	base, err := model.Builtin("ResNet18")
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []PlanOptions{
		{GLBKiloBytes: 64},
		{GLBKiloBytes: 64, Homogeneous: true},
		{GLBKiloBytes: 64, InterLayerReuse: true},
		{GLBKiloBytes: 64, Objective: MinLatency},
	} {
		fp := plancache.NewFingerprints(8)
		nets := []*Network{base, bumpLayer(base, 10, 1), bumpLayer(base, 3, 2)}
		for _, nn := range nets {
			d := &core.Differ{Lookup: func(chain []policy.LayerKey) *core.Checkpoint {
				ck, _ := fp.Best("t", chain).(*core.Checkpoint)
				return ck
			}}
			ctx := core.WithDiffer(context.Background(), d)
			got, err := PlanModelCtx(ctx, nn, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			if d.Checkpoint != nil {
				fp.Insert(nn.Name, "t", d.Checkpoint.Chain(), d.Checkpoint)
			}
			want, err := PlanModel(nn, opts)
			if err != nil {
				t.Fatal(err)
			}
			wantJSON, err := PlanDocument(want).MarshalIndent()
			if err != nil {
				t.Fatal(err)
			}
			gotJSON, err := PlanDocument(got).MarshalIndent()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wantJSON, gotJSON) {
				t.Fatalf("opts=%+v net=%s: differ-wired facade diverged from PlanModel\nwant:\n%s\ngot:\n%s",
					opts, nn.Name, wantJSON, gotJSON)
			}
			if opts.Homogeneous && d.Checkpoint != nil {
				t.Fatalf("homogeneous plan captured a checkpoint")
			}
		}
	}
}
