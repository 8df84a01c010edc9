package policy

import (
	"testing"

	"scratchmem/internal/model"
)

// TestColdEstimatePathAllocs pins the estimators' allocation behaviour:
// estimating a layer — shape construction included — allocates nothing.
// The per-policy tile coefficients (Shape.tiles) replace per-probe
// recomputation, so a sweep is bounded by arithmetic, not the garbage
// collector.
func TestColdEstimatePathAllocs(t *testing.T) {
	n, err := model.Builtin("ResNet18")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default(64)
	l := &n.Layers[1]
	var e Result

	// Package-level one-shot estimates of an unseen shape.
	if n := testing.AllocsPerRun(100, func() {
		_ = EstimateFast(l, P4PartialIfmap, Options{Prefetch: true}, cfg)
	}); n != 0 {
		t.Errorf("cold EstimateFast allocates %.1f objects/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		_ = Estimate(l, IntraLayer, Options{}, cfg)
	}); n != 0 {
		t.Errorf("Estimate allocates %.1f objects/op, want 0", n)
	}

	// One probe into a reused Result, and shape construction plus a full
	// policy sweep on it.
	sh := NewShape(l, cfg.IncludePadding)
	if n := testing.AllocsPerRun(100, func() {
		sh.EstimateFastInto(&e, P3PerChannel, Options{}, cfg)
	}); n != 0 {
		t.Errorf("EstimateFastInto allocates %.1f objects/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		sh := NewShape(l, cfg.IncludePadding)
		for _, id := range allIDs {
			sh.EstimateFastInto(&e, id, Options{Prefetch: true}, cfg)
		}
	}); n != 0 {
		t.Errorf("NewShape + full sweep allocates %.1f objects/op, want 0", n)
	}
}
