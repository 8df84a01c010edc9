package scratchmem

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"scratchmem/internal/layer"
)

// rehydrateOptionGrid is the option matrix the round-trip property runs
// over: both objectives, Het/Hom, prefetch on/off, inter-layer reuse.
var rehydrateOptionGrid = []PlanOptions{
	{GLBKiloBytes: 108},
	{GLBKiloBytes: 108, Objective: MinLatency},
	{GLBKiloBytes: 64, InterLayerReuse: true},
	{GLBKiloBytes: 108, Homogeneous: true},
	{GLBKiloBytes: 108, DisablePrefetch: true},
	{GLBKiloBytes: 256, Objective: MinLatency, InterLayerReuse: true},
}

// TestRehydratePlanRoundTrip pins the fleet transfer invariant: for every
// builtin network and option set, plan → document → RehydratePlan
// reproduces the plan exactly (reflect.DeepEqual) and the rehydrated
// plan's canonical document is byte-identical to the original. Peer
// cache-fill and warm snapshot restore both stand on this property.
func TestRehydratePlanRoundTrip(t *testing.T) {
	nets := append(BuiltinModels(), mustBuiltin(t, "TinyCNN"), mustBuiltin(t, "AlexNet"))
	for _, net := range nets {
		for _, opts := range rehydrateOptionGrid {
			p, err := PlanModel(net, opts)
			if err != nil {
				t.Fatalf("%s %+v: PlanModel: %v", net.Name, opts, err)
			}
			if p.Degraded {
				continue // degraded plans are explicitly not rehydratable
			}
			doc := PlanDocument(p)
			got, err := RehydratePlan(net, doc)
			if err != nil {
				t.Fatalf("%s %+v: RehydratePlan: %v", net.Name, opts, err)
			}
			if !reflect.DeepEqual(p, got) {
				t.Errorf("%s %+v: rehydrated plan differs from the original", net.Name, opts)
				continue
			}
			want, err := doc.MarshalIndent()
			if err != nil {
				t.Fatal(err)
			}
			back, err := PlanDocument(got).MarshalIndent()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, back) {
				t.Errorf("%s %+v: rehydrated document not byte-identical", net.Name, opts)
			}
		}
	}
}

// TestRehydratePlanRejects: tampered figures, degraded documents and
// mismatched networks are refused rather than served.
func TestRehydratePlanRejects(t *testing.T) {
	net := mustBuiltin(t, "TinyCNN")
	p, err := PlanModel(net, PlanOptions{GLBKiloBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	doc := PlanDocument(p)

	tampered := *doc
	tampered.Layers = append([]LayerPlanDoc(nil), doc.Layers...)
	tampered.Layers[0].AccessElems++
	if _, err := RehydratePlan(net, &tampered); err == nil {
		t.Error("tampered access figure was rehydrated without error")
	}

	degraded := *doc
	degraded.Degraded = true
	degraded.DegradedMode = "baseline-fallback"
	if _, err := RehydratePlan(net, &degraded); err == nil {
		t.Error("degraded document was rehydrated without error")
	}

	other := mustBuiltin(t, "AlexNet")
	if _, err := RehydratePlan(other, doc); err == nil {
		t.Error("document rehydrated against the wrong network")
	}

	if _, err := ParseObjective("throughput"); err == nil {
		t.Error("unknown objective parsed")
	}
}

func mustBuiltin(t *testing.T, name string) *Network {
	t.Helper()
	n, err := BuiltinModel(name)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestPlanningLeavesNetworkUnchanged pins a contract the server's resolve
// memo relies on: one *Network is handed to every request with the same
// body, and to every re-plan after an eviction or invalidation, so
// planning, the degradation ladder and rehydration must only read their
// input. Each case plans a network and, when the plan is not degraded,
// rehydrates it from its rendered document, then compares the network with
// a copy taken before.
func TestPlanningLeavesNetworkUnchanged(t *testing.T) {
	nets := append(BuiltinModels(), mustBuiltin(t, "TinyCNN"), mustBuiltin(t, "AlexNet"), mustBuiltin(t, "VGG16"))
	schemes := []PlanOptions{{}, {Homogeneous: true}, {InterLayerReuse: true}}
	degraded := 0
	for _, net := range nets {
		for _, obj := range []Objective{MinAccesses, MinLatency} {
			for _, scheme := range schemes {
				// 4 MB fits every layer of every builtin; at 1 kB the
				// non-strict planner descends the ladder for all but
				// TinyCNN.
				for _, kb := range []int{4096, 1} {
					opts := scheme
					opts.Objective = obj
					opts.GLBKiloBytes = kb
					before := &Network{Name: net.Name, Layers: append([]layer.Layer(nil), net.Layers...)}
					p, err := PlanModelCtx(context.Background(), net, opts, nil)
					if err != nil {
						t.Fatalf("%s %+v: %v", net.Name, opts, err)
					}
					switch {
					case p.Degraded && kb > 1:
						t.Fatalf("%s %+v: degraded although the GLB fits", net.Name, opts)
					case p.Degraded:
						degraded++
					default:
						body, err := PlanDocument(p).MarshalIndent()
						if err != nil {
							t.Fatal(err)
						}
						var doc PlanDoc
						if err := json.Unmarshal(body, &doc); err != nil {
							t.Fatal(err)
						}
						if _, err := RehydratePlan(net, &doc); err != nil {
							t.Fatalf("%s %+v: RehydratePlan: %v", net.Name, opts, err)
						}
					}
					if !reflect.DeepEqual(net, before) {
						t.Fatalf("%s %+v: planning changed its input network", net.Name, opts)
					}
				}
			}
		}
	}
	if degraded == 0 {
		t.Error("no case took the degradation ladder")
	}
}
