package scratchmem

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"scratchmem/internal/core"
	"scratchmem/internal/layer"
	"scratchmem/internal/policy"
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

// TestRehydratePlanRoundTrip pins the document round-trip invariant: for
// every builtin network and option set, plan → document → RehydratePlan
// reproduces the plan exactly (reflect.DeepEqual) and the rehydrated
// plan's canonical document is byte-identical to the original. Warm
// snapshot restore stands on this property.
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

// TestRehydrateBoundsBlockSize: a document's P4/P5 block size must be one
// the planner can choose, n in [1, max(1, F#-1)] and exactly 1 on
// depth-wise layers, and other policies carry none. Each case swaps one
// layer's decision into a planned network and renders the whole document
// from the estimators; a case outside the range then overrides the
// document's "n", and the refusal must come from the bound. Priced, a huge
// n would wrap P4's memory product to a small, feasible-looking figure, or
// to a negative one.
func TestRehydrateBoundsBlockSize(t *testing.T) {
	cases := []struct {
		name   string
		model  string
		glbKB  int
		layer  string
		policy policy.ID
		n      int64 // the decided block size, in range; -1 leaves it to Estimate
		docN   int   // overrides the document's "n" when not 0
		dropN  bool  // removes the document's "n"
		accept bool
	}{
		{"ResNet18 n wraps P4 memory", "ResNet18", 32, "conv2_1_a", policy.P4PartialIfmap, 1, 14593943096289204, false, false},
		{"AlexNet n wraps P4 memory negative", "AlexNet", 32, "conv1", policy.P4PartialIfmap, 1, 14593943096289204, false, false},
		{"AlexNet n = 2^62", "AlexNet", 32, "conv1", policy.P4PartialIfmap, 1, 1 << 62, false, false},
		{"n = F#", "ResNet18", 1024, "conv2_1_a", policy.P4PartialIfmap, 63, 64, false, false},
		{"n = F# - 1", "ResNet18", 1024, "conv2_1_a", policy.P4PartialIfmap, 63, 0, false, true},
		{"P5 n = 1", "ResNet18", 1024, "conv3_1_b", policy.P5PartialPerChannel, 1, 0, false, true},
		{"P4 without n", "ResNet18", 1024, "conv2_1_a", policy.P4PartialIfmap, -1, 0, true, false},
		{"negative n", "ResNet18", 1024, "conv2_1_a", policy.P4PartialIfmap, 1, -5, false, false},
		{"depth-wise n = 1", "MobileNet", 1024, "dw1", policy.P4PartialIfmap, 1, 0, false, true},
		{"depth-wise n = 2", "MobileNet", 1024, "dw1", policy.P4PartialIfmap, 1, 2, false, false},
		{"n on P1", "ResNet18", 1024, "conv2_1_a", policy.P1IfmapReuse, -1, 3, false, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			net := mustBuiltin(t, c.model)
			p, err := PlanModel(net, PlanOptions{GLBKiloBytes: c.glbKB})
			if err != nil {
				t.Fatal(err)
			}
			i := slices.IndexFunc(p.Layers, func(lp core.LayerPlan) bool { return lp.Layer.Name == c.layer })
			if i < 0 {
				t.Fatalf("%s has no layer %s", c.model, c.layer)
			}
			forged := *p
			forged.Layers = slices.Clone(p.Layers)
			lp := &forged.Layers[i]
			if c.n < 0 {
				lp.Est = policy.Estimate(&lp.Layer, c.policy, lp.Est.Opts, p.Cfg)
			} else if lp.Est, err = policy.EstimateN(&lp.Layer, c.policy, lp.Est.Opts, p.Cfg, c.n); err != nil {
				t.Fatal(err)
			}
			if !lp.Est.Feasible {
				t.Fatalf("the forged estimate is infeasible: %+v", lp.Est)
			}
			doc := PlanDocument(&forged)
			if c.docN != 0 {
				doc.Layers[i].N = c.docN
			}
			if c.dropN {
				doc.Layers[i].N = 0
			}
			_, err = RehydratePlan(net, doc)
			if (err == nil) != c.accept {
				t.Fatalf("RehydratePlan: %v, want accepted = %t", err, c.accept)
			}
			if err != nil && !strings.Contains(err.Error(), "block size") {
				t.Fatalf("RehydratePlan: %v, want the block-size bound to refuse it", err)
			}
		})
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
