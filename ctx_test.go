package scratchmem

import (
	"context"
	"errors"
	"testing"
)

// TestPlanModelCtxCancelMidModel is the façade's promptness guarantee: a
// context canceled partway through a multi-layer plan makes PlanModelCtx
// return within one layer's work, with context.Canceled visible through
// the wrapping and the stopped layer identified by a LayerError.
func TestPlanModelCtxCancelMidModel(t *testing.T) {
	net, err := BuiltinModel("GoogLeNet")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	const cancelAfter = 3
	var events []ProgressEvent
	prog := func(ev ProgressEvent) {
		events = append(events, ev)
		if len(events) == cancelAfter {
			cancel()
		}
	}
	p, err := PlanModelCtx(ctx, net, PlanOptions{GLBKiloBytes: 64}, prog)
	if p != nil || err == nil {
		t.Fatalf("PlanModelCtx after cancel = (%v, %v), want (nil, error)", p, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error does not wrap context.Canceled: %v", err)
	}
	if !IsCanceled(err) {
		t.Errorf("IsCanceled(%v) = false", err)
	}
	var le *LayerError
	if !errors.As(err, &le) {
		t.Fatalf("error does not localise the stopped layer: %v", err)
	}
	// "Within one layer's work of cancel": the planner may finish the layer
	// in flight when cancel lands, but must not start another after it.
	if le.Index > cancelAfter {
		t.Errorf("planner stopped at layer %d, cancel landed during layer %d", le.Index, cancelAfter-1)
	}
	if got := len(events); got > cancelAfter+1 {
		t.Errorf("%d progress events after canceling at %d — planner kept going", got, cancelAfter)
	}
	if got := len(net.Layers); len(events) >= got {
		t.Errorf("planner emitted all %d layer events despite mid-model cancel", got)
	}
}

// TestDSEAccessElemsCtxCancel mirrors the promptness guarantee for the
// exhaustive grid search, the most expensive entry point.
func TestDSEAccessElemsCtxCancel(t *testing.T) {
	net, err := BuiltinModel("GoogLeNet")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var layers int
	prog := func(ev ProgressEvent) {
		if layers++; layers == 2 {
			cancel()
		}
	}
	_, _, err = DSEAccessElemsCtx(ctx, net, DefaultConfig(64), prog)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
	var le *LayerError
	if !errors.As(err, &le) {
		t.Errorf("DSE cancellation not localised to a layer: %v", err)
	}
}

// TestCtxEntryPointsAgreeWithLegacyForms pins the wrapper contract: with a
// background context and no hook, every *Ctx form returns exactly what its
// context-free original does.
func TestCtxEntryPointsAgreeWithLegacyForms(t *testing.T) {
	net, err := BuiltinModel("TinyCNN")
	if err != nil {
		t.Fatal(err)
	}
	opts := PlanOptions{GLBKiloBytes: 32}
	p1, err := PlanModel(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := PlanModelCtx(context.Background(), net, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p1.AccessElems() != p2.AccessElems() || p1.LatencyCycles() != p2.LatencyCycles() {
		t.Errorf("PlanModelCtx diverges from PlanModel: %d/%d vs %d/%d elems/cycles",
			p2.AccessElems(), p2.LatencyCycles(), p1.AccessElems(), p1.LatencyCycles())
	}
	m1, e1, err := SimulatePlan(p1)
	if err != nil {
		t.Fatal(err)
	}
	m2, e2, err := SimulatePlanCtx(context.Background(), p2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 || e1 != e2 {
		t.Errorf("SimulatePlanCtx diverges: (%d, %d) vs (%d, %d)", m2, e2, m1, e1)
	}
	elems1, feas1 := DSEAccessElems(net, DefaultConfig(32))
	elems2, feas2, err := DSEAccessElemsCtx(context.Background(), net, DefaultConfig(32), nil)
	if err != nil {
		t.Fatal(err)
	}
	if elems1 != elems2 || feas1 != feas2 {
		t.Errorf("DSEAccessElemsCtx diverges: (%d, %v) vs (%d, %v)", elems2, feas2, elems1, feas1)
	}
}

// TestProgressEventsCoverEveryLayer pins the hook contract: one "plan"
// event per layer, in order, with running totals — for the
// heterogeneous planner and for the homogeneous search alike.
func TestProgressEventsCoverEveryLayer(t *testing.T) {
	net, err := BuiltinModel("ResNet18")
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []PlanOptions{
		{GLBKiloBytes: 64},
		{GLBKiloBytes: 64, Homogeneous: true},
		{GLBKiloBytes: 64, Homogeneous: true, DisablePrefetch: true},
	} {
		var events []ProgressEvent
		p, err := PlanModelCtx(context.Background(), net, o,
			func(ev ProgressEvent) { events = append(events, ev) })
		if err != nil {
			t.Fatal(err)
		}
		if len(events) != len(net.Layers) {
			t.Fatalf("%+v: %d events for %d layers", o, len(events), len(net.Layers))
		}
		for i, ev := range events {
			if ev.Phase != "plan" || ev.Index != i || ev.Total != len(net.Layers) {
				t.Fatalf("%+v: event %d = %+v", o, i, ev)
			}
		}
		last := events[len(events)-1]
		if last.AccessElems != p.AccessElems() {
			t.Errorf("%+v: final running total %d != plan total %d", o, last.AccessElems, p.AccessElems())
		}
	}
}
