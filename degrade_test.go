package scratchmem

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"scratchmem/internal/core"
)

// TestDegradationLadder pins the graceful-degradation contract at the API
// root: a GLB too small for every policy no longer returns ErrInfeasible
// but the baseline fallback plan, marked degraded, with the machine-
// readable chain of rungs that failed before it: only the request.
func TestDegradationLadder(t *testing.T) {
	net, err := BuiltinModel("ResNet18")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanModel(net, PlanOptions{GLBKiloBytes: 1})
	if err != nil {
		t.Fatalf("ladder must terminate with a plan, got %v", err)
	}
	if !plan.Degraded || plan.DegradedMode != core.DegradedBaseline {
		t.Fatalf("degraded=%v mode=%q, want true/%q", plan.Degraded, plan.DegradedMode, core.DegradedBaseline)
	}
	wantChain := []string{"requested"}
	if len(plan.DegradedReasons) != len(wantChain) {
		t.Fatalf("reason chain %+v, want modes %v", plan.DegradedReasons, wantChain)
	}
	for i, want := range wantChain {
		if r := plan.DegradedReasons[i]; r.Mode != want || r.Err == "" {
			t.Errorf("reason %d = %+v, want mode %q with a message", i, r, want)
		}
	}
	// A truly-degraded plan exceeds the GLB: the fallback keeps the
	// over-capacity estimate so the caller can read the exact shortfall.
	if plan.Feasible() {
		t.Error("1 kB GLB plan reports feasible")
	}
	if need := plan.MaxMemoryBytes(); need <= plan.Cfg.GLBBytes {
		t.Errorf("MaxMemoryBytes %d does not show the shortfall over GLB %d", need, plan.Cfg.GLBBytes)
	}
	doc := PlanDocument(plan)
	if !doc.Degraded || doc.DegradedMode != core.DegradedBaseline || len(doc.DegradedReasons) != len(wantChain) {
		t.Errorf("PlanDocument lost the degradation record: %+v", doc)
	}
	for i, r := range doc.DegradedReasons {
		if r.Mode != wantChain[i] || r.Error == "" {
			t.Errorf("doc reason %d = %+v, want mode %q with a message", i, r, wantChain[i])
		}
	}
}

// TestStrictRestoresInfeasible: the strict opt-out skips the ladder and
// returns the pre-existing typed taxonomy untouched.
func TestStrictRestoresInfeasible(t *testing.T) {
	net, err := BuiltinModel("ResNet18")
	if err != nil {
		t.Fatal(err)
	}
	_, err = PlanModel(net, PlanOptions{GLBKiloBytes: 1, Strict: true})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("strict err = %v, want ErrInfeasible", err)
	}
	var ie *InfeasibleError
	if !errors.As(err, &ie) || ie.Need <= ie.Have {
		t.Errorf("strict error lost the need/have detail: %v", err)
	}
}

// TestFeasiblePlanNotDegraded: a plan that succeeds at rung 0 carries no
// degradation record, and its document omits the fields entirely.
func TestFeasiblePlanNotDegraded(t *testing.T) {
	net, err := BuiltinModel("TinyCNN")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanModel(net, PlanOptions{GLBKiloBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Degraded || plan.DegradedMode != "" || plan.DegradedReasons != nil {
		t.Errorf("feasible plan marked degraded: %+v", plan)
	}
	raw, err := json.Marshal(PlanDocument(plan))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "degraded") {
		t.Errorf("feasible PlanDoc leaks degraded fields: %s", raw)
	}
}

// TestPlanKeyStrictDiffers: strict is part of the cache identity, so a
// cached degraded plan can never be served to a strict request.
func TestPlanKeyStrictDiffers(t *testing.T) {
	net, err := BuiltinModel("TinyCNN")
	if err != nil {
		t.Fatal(err)
	}
	lax, err := PlanKey(net, PlanOptions{GLBKiloBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	strict, err := PlanKey(net, PlanOptions{GLBKiloBytes: 32, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	if lax == strict {
		t.Error("PlanKey ignores Strict; a degraded plan could answer a strict request")
	}
}

// TestBaselineFallbackPlanSimulates: when the baseline fallback fits (the
// degradation target on a reasonable GLB), the emitted plan is a complete,
// executable schedule — it compiles and simulates like any rung-0 plan.
func TestBaselineFallbackPlanSimulates(t *testing.T) {
	net, err := BuiltinModel("TinyCNN")
	if err != nil {
		t.Fatal(err)
	}
	pl := &core.Planner{Cfg: DefaultConfig(64)}
	plan, err := pl.BaselineFallbackCtx(context.Background(), net, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible() {
		t.Fatalf("baseline fallback infeasible at 64 kB for TinyCNN (needs %d B)", plan.MaxMemoryBytes())
	}
	measured, estimated, err := SimulatePlan(plan)
	if err != nil {
		t.Fatalf("degraded-mode plan failed to simulate: %v", err)
	}
	if measured <= 0 || estimated <= 0 {
		t.Errorf("simulation returned (%d, %d), want positive cycle counts", measured, estimated)
	}
}

// TestLadderAbortsOnCancel: cancellation is not infeasibility — the ladder
// must not descend a rung on it, let alone return a degraded plan.
func TestLadderAbortsOnCancel(t *testing.T) {
	net, err := BuiltinModel("ResNet18")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	plan, err := PlanModelCtx(ctx, net, PlanOptions{GLBKiloBytes: 1}, nil)
	if plan != nil || !IsCanceled(err) {
		t.Errorf("canceled ladder = (%v, %v), want (nil, canceled)", plan, err)
	}
}
