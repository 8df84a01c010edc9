package scratchmem

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"scratchmem/internal/core"
	"scratchmem/internal/layer"
	"scratchmem/internal/model"
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

// sameDocument fails the test unless got and want are the same outcome:
// equal error texts, or deeply equal plans whose canonical PlanDoc JSON is
// byte-identical.
func sameDocument(t *testing.T, tag string, got, want *Plan, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: errors diverge: shared=%v alone=%v", tag, gotErr, wantErr)
	}
	if wantErr != nil {
		return
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
		t.Fatalf("%s: plan built through shared sweep tables is not byte-identical to one planned alone\nwant:\n%s\ngot:\n%s",
			tag, wantJSON, gotJSON)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: plan built through shared sweep tables diverges from one planned alone", tag)
	}
}

// TestIncrementalPlanningEquivalence is the document-level property of
// planning a network after its neighbours: across every builtin model, both
// objectives, independent and inter-layer modes and a spread of one-layer
// mutations, the base network and then each mutant, planned in turn through
// one core.SweepTables (as a batch shares them), so that each plan is
// answered mostly from its predecessors' sweeps, deeply equal the same
// networks planned alone and render to byte-identical canonical PlanDoc
// JSON, or fail with the same error text. internal/core's
// TestSharedSweepTablesEquivalence runs the same mutations at more sizes and
// knob sets from several goroutines.
func TestIncrementalPlanningEquivalence(t *testing.T) {
	const kb = 64
	for _, name := range model.BuiltinNames() {
		base, err := model.Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, obj := range []Objective{MinAccesses, MinLatency} {
			for _, inter := range []bool{false, true} {
				pl := core.NewPlanner(kb, obj)
				pl.InterLayer = inter
				shared := core.WithSweepTables(context.Background(), new(core.SweepTables))
				for _, mut := range append([]mutation{{"base", func(n *Network) *Network { return n }}}, mutations...) {
					nn := mut.apply(base)
					tag := fmt.Sprintf("%s/%v/inter=%v/%s", name, obj, inter, mut.name)
					got, gotErr := pl.HeterogeneousCtx(shared, nn, nil)
					want, wantErr := pl.HeterogeneousCtx(context.Background(), nn, nil)
					sameDocument(t, tag, got, want, gotErr, wantErr)
				}
			}
		}
	}
}

// TestIncrementalFacadeEquivalence pins the façade seam: PlanModelCtx with a
// SweepTables installed in its context (the server's batch wiring) returns
// plans deeply equal to plain PlanModel's, with byte-identical documents,
// across het, hom, inter-layer and latency options, for a network and two of
// its neighbours planned in turn through the one set.
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
		ctx := core.WithSweepTables(context.Background(), new(core.SweepTables))
		for _, nn := range []*Network{base, bumpLayer(base, 10, 1), bumpLayer(base, 3, 2)} {
			got, gotErr := PlanModelCtx(ctx, nn, opts, nil)
			want, wantErr := PlanModel(nn, opts)
			sameDocument(t, fmt.Sprintf("opts=%+v net=%s", opts, nn.Name), got, want, gotErr, wantErr)
		}
	}
}
