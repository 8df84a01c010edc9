package core

import (
	"context"
	"errors"
	"testing"

	"scratchmem/internal/layer"
	"scratchmem/internal/model"
	"scratchmem/internal/policy"
)

var paperSizesKB = []int{64, 128, 256, 512, 1024}

// TestHetFeasibleEverywhere: the heterogeneous scheme must schedule every
// layer of every paper model at every paper buffer size.
func TestHetFeasibleEverywhere(t *testing.T) {
	for _, n := range model.Builtins() {
		for _, kb := range paperSizesKB {
			pl := NewPlanner(kb, MinAccesses)
			p, err := pl.Heterogeneous(n)
			if err != nil {
				t.Fatalf("%s @%dkB: %v", n.Name, kb, err)
			}
			if !p.Feasible() {
				t.Errorf("%s @%dkB: infeasible layer in Het plan", n.Name, kb)
			}
			if len(p.Layers) != len(n.Layers) {
				t.Errorf("%s @%dkB: plan has %d layers, want %d", n.Name, kb, len(p.Layers), len(n.Layers))
			}
			if p.MaxMemoryBytes() > pl.Cfg.GLBBytes {
				t.Errorf("%s @%dkB: plan max memory %d exceeds GLB %d",
					n.Name, kb, p.MaxMemoryBytes(), pl.Cfg.GLBBytes)
			}
		}
	}
}

// TestHetBeatsHom: per the objective, Het is never worse than the best Hom,
// and both are never worse than any single homogeneous scheme.
func TestHetBeatsHom(t *testing.T) {
	for _, n := range model.Builtins() {
		for _, kb := range []int{64, 256, 1024} {
			pl := NewPlanner(kb, MinAccesses)
			het, err := pl.Heterogeneous(n)
			if err != nil {
				t.Fatal(err)
			}
			hom, err := pl.BestHomogeneousCtx(context.Background(), n, nil)
			if err != nil {
				t.Fatal(err)
			}
			if het.AccessElems() > hom.AccessElems() {
				t.Errorf("%s @%dkB: Het accesses %d > Hom %d",
					n.Name, kb, het.AccessElems(), hom.AccessElems())
			}
			single, err := pl.HomogeneousCtx(context.Background(), n, policy.P5PartialPerChannel, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			if hom.AccessElems() > single.AccessElems() {
				t.Errorf("%s @%dkB: best Hom accesses %d > hom-p5 %d",
					n.Name, kb, hom.AccessElems(), single.AccessElems())
			}
		}
	}
}

// TestHetAccessesNearConstant reproduces the paper's §5.1 observation that
// Het's access volume barely moves with buffer size: the 64 kB plan stays
// within a modest factor of the 1 MB plan.
func TestHetAccessesNearConstant(t *testing.T) {
	for _, n := range model.Builtins() {
		small, err := NewPlanner(64, MinAccesses).Heterogeneous(n)
		if err != nil {
			t.Fatal(err)
		}
		big, err := NewPlanner(1024, MinAccesses).Heterogeneous(n)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(small.AccessElems()) / float64(big.AccessElems())
		if ratio > 1.6 {
			t.Errorf("%s: Het accesses @64kB / @1MB = %.2f, want near-constant (<1.6)", n.Name, ratio)
		}
		if ratio < 1.0 {
			t.Errorf("%s: smaller buffer produced fewer accesses (ratio %.2f)", n.Name, ratio)
		}
	}
}

// TestBigBufferReachesMinimum: at 1 MB every model should reach (or nearly
// reach) the theoretical once-per-element minimum.
func TestBigBufferReachesMinimum(t *testing.T) {
	for _, n := range model.Builtins() {
		pl := NewPlanner(1024, MinAccesses)
		p, err := pl.Heterogeneous(n)
		if err != nil {
			t.Fatal(err)
		}
		min := n.MinTransfers(true)
		if p.AccessElems() < min {
			t.Errorf("%s: Het accesses %d below theoretical minimum %d", n.Name, p.AccessElems(), min)
		}
		if float64(p.AccessElems()) > 1.05*float64(min) {
			t.Errorf("%s @1MB: Het accesses %d, want within 5%% of minimum %d", n.Name, p.AccessElems(), min)
		}
	}
}

// TestLatencyObjectiveOrdering: optimising for latency can only improve the
// latency metric relative to optimising for accesses, and vice versa.
func TestLatencyObjectiveOrdering(t *testing.T) {
	for _, n := range model.Builtins() {
		for _, kb := range []int{64, 256, 1024} {
			hetA, err := NewPlanner(kb, MinAccesses).Heterogeneous(n)
			if err != nil {
				t.Fatal(err)
			}
			hetL, err := NewPlanner(kb, MinLatency).Heterogeneous(n)
			if err != nil {
				t.Fatal(err)
			}
			if hetL.LatencyCycles() > hetA.LatencyCycles() {
				t.Errorf("%s @%dkB: Het_l latency %d > Het_a latency %d",
					n.Name, kb, hetL.LatencyCycles(), hetA.LatencyCycles())
			}
			if hetL.AccessElems() < hetA.AccessElems() {
				t.Errorf("%s @%dkB: Het_l accesses %d < Het_a accesses %d",
					n.Name, kb, hetL.AccessElems(), hetA.AccessElems())
			}
		}
	}
}

// TestPrefetchAblation reproduces the Figure 10 trade-off: enabling
// prefetching under the latency objective must not hurt latency and, at the
// small buffer size, buys it with extra accesses.
func TestPrefetchAblation(t *testing.T) {
	n, err := model.Builtin("MobileNet")
	if err != nil {
		t.Fatal(err)
	}
	for _, kb := range paperSizesKB {
		with := NewPlanner(kb, MinLatency)
		without := NewPlanner(kb, MinLatency)
		without.DisablePrefetch = true
		pw, err := with.Heterogeneous(n)
		if err != nil {
			t.Fatal(err)
		}
		pwo, err := without.Heterogeneous(n)
		if err != nil {
			t.Fatal(err)
		}
		if pw.LatencyCycles() > pwo.LatencyCycles() {
			t.Errorf("@%dkB: prefetch-enabled latency %d > disabled %d",
				kb, pw.LatencyCycles(), pwo.LatencyCycles())
		}
		if pwo.PrefetchCoverage() != 0 {
			t.Errorf("@%dkB: disabled plan reports prefetch coverage %.2f", kb, pwo.PrefetchCoverage())
		}
	}
	// Coverage should be high once buffers are comfortable (paper: 93% at
	// 64 kB, 100% at >=256 kB).
	p, err := NewPlanner(256, MinLatency).Heterogeneous(n)
	if err != nil {
		t.Fatal(err)
	}
	if c := p.PrefetchCoverage(); c < 0.8 {
		t.Errorf("prefetch coverage @256kB = %.2f, want >= 0.8", c)
	}
}

// TestInterLayerReuse reproduces the Figure 11 shape on MnasNet: negligible
// coverage at 64 kB, high coverage and a large access reduction at 1 MB.
func TestInterLayerReuse(t *testing.T) {
	n, err := model.Builtin("MnasNet")
	if err != nil {
		t.Fatal(err)
	}
	cov := map[int]float64{}
	for _, kb := range paperSizesKB {
		base := NewPlanner(kb, MinAccesses)
		inter := NewPlanner(kb, MinAccesses)
		inter.InterLayer = true
		pb, err := base.Heterogeneous(n)
		if err != nil {
			t.Fatal(err)
		}
		pi, err := inter.Heterogeneous(n)
		if err != nil {
			t.Fatal(err)
		}
		if pi.AccessElems() > pb.AccessElems() {
			t.Errorf("@%dkB: inter-layer accesses %d > baseline %d", kb, pi.AccessElems(), pb.AccessElems())
		}
		cov[kb] = pi.InterLayerCoverage()
	}
	// The paper reports 0% coverage at 64 kB; our DP additionally retains
	// small late-layer ofmaps, so allow a modest non-zero value but keep the
	// "scarce at small buffers" shape.
	if cov[64] > 0.45 {
		t.Errorf("inter-layer coverage @64kB = %.2f, want scarce (paper: 0%%)", cov[64])
	}
	if cov[1024] < 0.7 {
		t.Errorf("inter-layer coverage @1MB = %.2f, want high (paper: 98%%)", cov[1024])
	}
	if cov[1024] <= cov[64] {
		t.Errorf("coverage did not grow with buffer size: %v", cov)
	}
	// Access reduction at 1 MB should be substantial (paper: 70%).
	base, _ := NewPlanner(1024, MinAccesses).Heterogeneous(n)
	interPl := NewPlanner(1024, MinAccesses)
	interPl.InterLayer = true
	pi, _ := interPl.Heterogeneous(n)
	red := 1 - float64(pi.AccessElems())/float64(base.AccessElems())
	if red < 0.3 {
		t.Errorf("inter-layer access reduction @1MB = %.2f, want substantial (paper: 0.70)", red)
	}
}

// TestInterLayerConsistency: a consumer follows every producer, and both
// sides of each retained transition chain by shape.
func TestInterLayerConsistency(t *testing.T) {
	pl := NewPlanner(1024, MinAccesses)
	pl.InterLayer = true
	for _, n := range model.Builtins() {
		p, err := pl.Heterogeneous(n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range p.Layers {
			lp := &p.Layers[i]
			if lp.KeepsResident {
				if i+1 >= len(p.Layers) {
					t.Errorf("%s: last layer keeps ofmap resident", n.Name)
					continue
				}
				if !p.Layers[i+1].ConsumesResident {
					t.Errorf("%s layer %d keeps ofmap but layer %d does not consume it", n.Name, i, i+1)
				}
				if !chainable(&lp.Layer, &p.Layers[i+1].Layer) {
					t.Errorf("%s: unchainable retention at layer %d", n.Name, i)
				}
			}
			if lp.ConsumesResident && (i == 0 || !p.Layers[i-1].KeepsResident) {
				t.Errorf("%s layer %d consumes resident ifmap without a producer", n.Name, i)
			}
			if lp.ConsumesResident != lp.Est.Opts.ResidentIfmap || lp.KeepsResident != lp.Est.Opts.KeepOfmap {
				t.Errorf("%s layer %d: plan flags disagree with estimate options", n.Name, i)
			}
		}
	}
}

// TestTable4PolicyMix64kB checks the Het policy mixes at 64 kB resemble the
// paper's Table 4: several distinct policies per network, including the
// middle-layer partial policies for ResNet18.
func TestTable4PolicyMix64kB(t *testing.T) {
	pl := NewPlanner(64, MinAccesses)
	for _, n := range model.Builtins() {
		p, err := pl.Heterogeneous(n)
		if err != nil {
			t.Fatal(err)
		}
		mix := p.PolicyMix()
		if len(mix) < 3 {
			t.Errorf("%s @64kB uses only %v, want a heterogeneous mix (Table 4)", n.Name, mix)
		}
	}
	// ResNet18 @64kB: paper reports p1, p2, p3 and p5 among the chosen
	// policies.
	n, _ := model.Builtin("ResNet18")
	p, err := pl.Heterogeneous(n)
	if err != nil {
		t.Fatal(err)
	}
	used := map[policy.ID]bool{}
	for i := range p.Layers {
		used[p.Layers[i].Est.Policy] = true
	}
	for _, id := range []policy.ID{policy.P1IfmapReuse, policy.P2FilterReuse} {
		if !used[id] {
			t.Errorf("ResNet18 @64kB: expected %s in the mix, got %v", id, p.PolicyMix())
		}
	}
	if !used[policy.P4PartialIfmap] && !used[policy.P5PartialPerChannel] {
		t.Errorf("ResNet18 @64kB: expected a partial policy in the mix, got %v", p.PolicyMix())
	}
}

// TestHomogeneousFallsBack: a homogeneous intra-layer plan at 64 kB cannot
// fit most layers and must fall back to tiling, not fail.
func TestHomogeneousFallsBack(t *testing.T) {
	n, _ := model.Builtin("ResNet18")
	pl := NewPlanner(64, MinAccesses)
	p, err := pl.HomogeneousCtx(context.Background(), n, policy.IntraLayer, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Feasible() {
		t.Fatal("fallback plan infeasible")
	}
	fb := 0
	for i := range p.Layers {
		if p.Layers[i].Est.Policy == policy.FallbackTiled {
			fb++
		}
	}
	if fb == 0 {
		t.Error("expected fallback tiling on some layers of hom-intra @64kB")
	}
	if p.AccessElems() <= n.MinTransfers(true) {
		t.Error("fallback plan should cost more than the theoretical minimum")
	}
}

// TestInfeasibleGLB: an absurdly small GLB yields a descriptive error.
func TestInfeasibleGLB(t *testing.T) {
	n, _ := model.Builtin("ResNet18")
	pl := NewPlanner(0, MinAccesses)
	pl.Cfg.GLBBytes = 256 // 256 bytes
	_, err := pl.Heterogeneous(n)
	var ie *InfeasibleError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v, want *InfeasibleError", err)
	}
	if ie.Layer == "" || ie.Need <= ie.Have {
		t.Errorf("unhelpful error: %+v", ie)
	}
	if _, err := pl.BestHomogeneousCtx(context.Background(), n, nil); err == nil {
		t.Error("BestHomogeneousCtx should fail on a 256-byte GLB")
	}
}

// TestPlanAggregates exercises the aggregate helpers on a known plan.
func TestPlanAggregates(t *testing.T) {
	n, _ := model.Builtin("ResNet18")
	p, err := NewPlanner(256, MinAccesses).Heterogeneous(n)
	if err != nil {
		t.Fatal(err)
	}
	var acc, lat int64
	for i := range p.Layers {
		acc += p.Layers[i].Est.AccessElems
		lat += p.Layers[i].Est.LatencyCycles
	}
	if p.AccessElems() != acc || p.LatencyCycles() != lat {
		t.Error("aggregates disagree with per-layer sums")
	}
	if p.AccessBytes() != acc { // 8-bit data: bytes == elements
		t.Errorf("AccessBytes = %d, want %d at 8-bit width", p.AccessBytes(), acc)
	}
	if p.Scheme != "het" {
		t.Errorf("Scheme = %q", p.Scheme)
	}
}

func TestObjectiveString(t *testing.T) {
	if MinAccesses.String() != "accesses" || MinLatency.String() != "latency" {
		t.Error("objective names changed")
	}
}

// TestValidationErrors: the planner rejects bad configs and bad networks.
func TestValidationErrors(t *testing.T) {
	n, _ := model.Builtin("ResNet18")
	pl := NewPlanner(64, MinAccesses)
	pl.Cfg.DataWidthBits = 0
	if _, err := pl.Heterogeneous(n); err == nil {
		t.Error("invalid config accepted by Heterogeneous")
	}
	if _, err := pl.HomogeneousCtx(context.Background(), n, policy.P1IfmapReuse, false, nil); err == nil {
		t.Error("invalid config accepted by Homogeneous")
	}
	pl = NewPlanner(64, MinAccesses)
	if _, err := pl.Heterogeneous(&model.Network{Name: "empty"}); err == nil {
		t.Error("empty network accepted")
	}
}

// TestClassicModelsPlan exercises the filter-dominated classics beyond the
// paper's set: the 98 MB FC of VGG16 and AlexNet's 37 MB FC must schedule
// at every paper size via the weight-streaming policies.
func TestClassicModelsPlan(t *testing.T) {
	for _, name := range []string{"AlexNet", "VGG16"} {
		n, err := model.Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, kb := range paperSizesKB {
			p, err := NewPlanner(kb, MinAccesses).Heterogeneous(n)
			if err != nil {
				t.Fatalf("%s @%dkB: %v", name, kb, err)
			}
			if !p.Feasible() {
				t.Errorf("%s @%dkB: infeasible", name, kb)
			}
			// Weight-dominated nets: traffic should approach the minimum
			// even at small buffers (weights stream once under P2/P3-style
			// plans); VGG16's giant early activations add ~30% at 64 kB.
			min := n.MinTransfers(true)
			if ratio := float64(p.AccessElems()) / float64(min); ratio > 1.4 {
				t.Errorf("%s @%dkB: accesses %.2fx the minimum", name, kb, ratio)
			}
		}
		// The giant FCs must pick a feasible weight-streaming policy.
		p, _ := NewPlanner(64, MinAccesses).Heterogeneous(n)
		for i := range p.Layers {
			lp := &p.Layers[i]
			if lp.Layer.Kind == layer.FullyConnected && !lp.Est.Feasible {
				t.Errorf("%s: FC %s infeasible", name, lp.Layer.Name)
			}
		}
	}
}

// TestPlannerDeterministic: planning is a pure function of its inputs —
// repeated runs yield identical plans (policy choice, options, traffic).
func TestPlannerDeterministic(t *testing.T) {
	n, _ := model.Builtin("EfficientNetB0")
	mk := func() *Plan {
		pl := NewPlanner(128, MinLatency)
		pl.InterLayer = true
		p, err := pl.Heterogeneous(n)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := mk(), mk()
	if a.AccessElems() != b.AccessElems() || a.LatencyCycles() != b.LatencyCycles() {
		t.Fatal("plan totals differ across runs")
	}
	for i := range a.Layers {
		x, y := &a.Layers[i], &b.Layers[i]
		if x.Est.Policy != y.Est.Policy || x.Est.Opts != y.Est.Opts || x.Est.N != y.Est.N ||
			x.KeepsResident != y.KeepsResident {
			t.Fatalf("layer %d decision differs: %+v vs %+v", i, x.Est, y.Est)
		}
	}
}
