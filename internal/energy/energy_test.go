package energy

import (
	"context"
	"testing"

	"scratchmem/internal/core"
	"scratchmem/internal/model"
	"scratchmem/internal/policy"
)

func TestDefaultModelGap(t *testing.T) {
	m := Default()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// The paper's motivating 10-100x gap between off-chip and local costs.
	if ratio := m.DRAMPerByte / m.GLBPerByte; ratio < 10 || ratio > 1000 {
		t.Errorf("DRAM/GLB energy ratio = %.0f, want within the 10-100x regime", ratio)
	}
}

func TestValidate(t *testing.T) {
	bad := []Model{
		{DRAMPerByte: 0, GLBPerByte: 1, PerMAC: 1},
		{DRAMPerByte: 1, GLBPerByte: -1, PerMAC: 1},
		{DRAMPerByte: 1, GLBPerByte: 1, PerMAC: 0},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("model %d accepted", i)
		}
	}
}

// TestPlanEnergyTracksAccesses: with compute fixed, the plan with fewer
// off-chip accesses costs less energy — the paper's motivation made
// quantitative.
func TestPlanEnergyTracksAccesses(t *testing.T) {
	n, err := model.Builtin("ResNet18")
	if err != nil {
		t.Fatal(err)
	}
	small, err := core.NewPlanner(64, core.MinAccesses).Heterogeneous(n)
	if err != nil {
		t.Fatal(err)
	}
	// A homogeneous intra plan at 64 kB falls back to tiling everywhere and
	// moves far more data.
	worse, err := core.NewPlanner(64, core.MinAccesses).HomogeneousCtx(context.Background(), n, policy.IntraLayer, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := Default()
	eGood, err := Plan(small, m)
	if err != nil {
		t.Fatal(err)
	}
	eBad, err := Plan(worse, m)
	if err != nil {
		t.Fatal(err)
	}
	if eGood.Total() >= eBad.Total() {
		t.Errorf("fewer accesses did not reduce energy: %.0f >= %.0f", eGood.Total(), eBad.Total())
	}
	if eGood.Compute != eBad.Compute {
		t.Errorf("compute energy differs between schemes: %.0f != %.0f", eGood.Compute, eBad.Compute)
	}
	// DRAM energy dominates for the wasteful plan.
	if eBad.DRAM < eBad.Compute {
		t.Errorf("wasteful plan's DRAM energy %.0f below compute %.0f", eBad.DRAM, eBad.Compute)
	}
}

func TestBreakdownArithmetic(t *testing.T) {
	var b Breakdown
	b.Add(Breakdown{DRAM: 1, GLB: 2, Compute: 3})
	b.Add(Breakdown{DRAM: 10, GLB: 20, Compute: 30})
	if b.Total() != 66 {
		t.Errorf("Total = %v, want 66", b.Total())
	}
}

func TestPlanRejectsBadModel(t *testing.T) {
	n, _ := model.Builtin("TinyCNN")
	p, err := core.NewPlanner(64, core.MinAccesses).Heterogeneous(n)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Plan(p, Model{}); err == nil {
		t.Error("zero model accepted")
	}
}

func TestDRAMOnlyConsistency(t *testing.T) {
	cfg := policy.Default(64)
	m := Default()
	b := DRAMOnly(1000, 500, cfg, m)
	if b.DRAM != 1000*m.DRAMPerByte {
		t.Errorf("DRAM energy = %v", b.DRAM)
	}
	if b.Compute != 500*m.PerMAC {
		t.Errorf("compute energy = %v", b.Compute)
	}
	if b.GLB <= 0 {
		t.Errorf("GLB energy = %v", b.GLB)
	}
}

// TestSpatialReuseLowersGLBEnergy: a wider array (more pass-through reuse)
// reads the GLB less per MAC.
func TestSpatialReuseLowersGLBEnergy(t *testing.T) {
	n, _ := model.Builtin("TinyCNN")
	p, err := core.NewPlanner(64, core.MinAccesses).Heterogeneous(n)
	if err != nil {
		t.Fatal(err)
	}
	small := Default()
	small.IfmapSpatialReuse, small.FilterSpatialReuse = 4, 4
	big := Default()
	big.IfmapSpatialReuse, big.FilterSpatialReuse = 32, 32
	eSmall, err := Plan(p, small)
	if err != nil {
		t.Fatal(err)
	}
	eBig, err := Plan(p, big)
	if err != nil {
		t.Fatal(err)
	}
	if eBig.GLB >= eSmall.GLB {
		t.Errorf("32x reuse GLB energy %.0f not below 4x reuse %.0f", eBig.GLB, eSmall.GLB)
	}
	if eBig.DRAM != eSmall.DRAM || eBig.Compute != eSmall.Compute {
		t.Error("spatial reuse changed DRAM or compute energy")
	}
	bad := Default()
	bad.IfmapSpatialReuse = 0.5
	if err := bad.Validate(); err == nil {
		t.Error("sub-1 reuse factor accepted")
	}
}
