package policy

import (
	"math"
	"testing"

	"scratchmem/internal/layer"
	"scratchmem/internal/model"
)

// table3Config reproduces the paper's Table 3 accounting: 8-bit elements,
// unpadded ifmaps (see DESIGN.md §2). GLB size is irrelevant for the
// memory-requirement maxima of intra/P1/P2/P3 but must be set.
func table3Config() Config {
	c := Default(1024)
	c.IncludePadding = false
	return c
}

// TestTable3ExactCells pins the Table 3 cells that reverse-engineer exactly
// from the §3.2 formulas (these identified the paper's P1/P3 column swap;
// the expectations below use the text's policy definitions, so the paper's
// "Policy 1" column values appear here under P3 and vice versa).
func TestTable3ExactCells(t *testing.T) {
	cfg := table3Config()
	cases := []struct {
		model string
		id    ID
		want  float64 // kB
		tol   float64 // absolute kB tolerance
	}{
		{"ResNet18", IntraLayer, 2353.0, 1.0},   // conv5: 3x3x512x512 filters dominate
		{"ResNet18", P1IfmapReuse, 2318.0, 1.0}, // paper "Policy 3" column
		{"ResNet18", P2FilterReuse, 199.7, 0.2},
		{"ResNet18", P3PerChannel, 788.6, 0.2}, // paper "Policy 1" column (conv1 ofmap)
		{"GoogLeNet", IntraLayer, 2051.0, 0.2}, // aux classifier 2048x1024 FC
		{"GoogLeNet", P1IfmapReuse, 2051.0, 0.2},
		{"GoogLeNet", P2FilterReuse, 199.7, 0.2},
		{"GoogLeNet", P3PerChannel, 788.6, 0.2},
		{"EfficientNetB0", P3PerChannel, 1176.2, 0.2}, // 112x112x96 expansion ofmap
		{"EfficientNetB0", P1IfmapReuse, 1252.3, 0.2}, // 1280->1000 classifier
		{"MnasNet", P3PerChannel, 588.2, 0.2},
		{"MnasNet", P1IfmapReuse, 1252.3, 0.2},
		{"MnasNet", IntraLayer, 1252.3, 0.2},
		{"MobileNetV2", P3PerChannel, 1176.2, 0.2},
		{"MobileNetV2", P1IfmapReuse, 1252.3, 0.2},
		{"MobileNet", P3PerChannel, 784.2, 0.2},
		{"MobileNet", P1IfmapReuse, 1038.0, 0.5},
	}
	for _, tc := range cases {
		n, err := model.Builtin(tc.model)
		if err != nil {
			t.Fatal(err)
		}
		got := MaxMemoryKB(n.Layers, tc.id, cfg)
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("%s %s: max memory = %.1f kB, want %.1f±%.1f", tc.model, tc.id, got, tc.want, tc.tol)
		}
	}
}

// TestTable3ApproximateCells checks the remaining Table 3 cells within a
// few percent — these depend on bookkeeping details (e.g. whether a
// depth-wise ofmap staging row is counted) the paper does not spell out.
func TestTable3ApproximateCells(t *testing.T) {
	cfg := table3Config()
	cases := []struct {
		model string
		id    ID
		want  float64 // kB
	}{
		{"EfficientNetB0", IntraLayer, 1491.9},
		{"EfficientNetB0", P2FilterReuse, 1201},
		{"MnasNet", P2FilterReuse, 591.5},
		{"MobileNet", IntraLayer, 1178},
		{"MobileNet", P2FilterReuse, 801.7},
		{"MobileNetV2", IntraLayer, 1491.9},
		{"MobileNetV2", P2FilterReuse, 1201},
	}
	for _, tc := range cases {
		n, err := model.Builtin(tc.model)
		if err != nil {
			t.Fatal(err)
		}
		got := MaxMemoryKB(n.Layers, tc.id, cfg)
		if math.Abs(got-tc.want)/tc.want > 0.06 {
			t.Errorf("%s %s: max memory = %.1f kB, want %.1f (±6%%)", tc.model, tc.id, got, tc.want)
		}
	}
}

// TestMinimalTransferPolicies verifies intra, P1, P2 and P3 all move every
// element exactly once (paper §3.2: "each element is transferred only
// once").
func TestMinimalTransferPolicies(t *testing.T) {
	cfg := Default(256)
	for _, n := range model.Builtins() {
		for i := range n.Layers {
			l := &n.Layers[i]
			min := MinAccessElems(l, cfg)
			for _, id := range []ID{IntraLayer, P1IfmapReuse, P2FilterReuse, P3PerChannel} {
				e := Estimate(l, id, Options{}, cfg)
				if e.AccessElems != min {
					t.Fatalf("%s/%s %s: accesses = %d, want minimum %d", n.Name, l.Name, id, e.AccessElems, min)
				}
			}
		}
	}
}

// TestP4P5DepthwiseMinimal verifies the paper's note that policies 4 and 5
// also achieve minimum transfers on depth-wise layers.
func TestP4P5DepthwiseMinimal(t *testing.T) {
	cfg := Default(64)
	l := layer.MustNew("dw", layer.DepthwiseConv, 56, 56, 128, 3, 3, 1, 1, 1)
	min := MinAccessElems(&l, cfg)
	for _, id := range []ID{P4PartialIfmap, P5PartialPerChannel} {
		e := Estimate(&l, id, Options{}, cfg)
		if e.AccessElems != min {
			t.Errorf("%s on DW: accesses = %d, want %d", id, e.AccessElems, min)
		}
		if e.IfmapLoads != 1 {
			t.Errorf("%s on DW: ifmap loads = %d, want 1", id, e.IfmapLoads)
		}
	}
}

// TestP4BlockSizeTradeoff: shrinking the GLB shrinks n and grows accesses.
func TestP4BlockSizeTradeoff(t *testing.T) {
	l := layer.MustNew("c", layer.Conv, 14, 14, 256, 3, 3, 512, 1, 1)
	var prevAcc int64 = -1
	var prevN = 1 << 30
	for _, kb := range []int{1024, 512, 256, 128, 64, 32} {
		e := Estimate(&l, P4PartialIfmap, Options{}, Default(kb))
		if e.N > prevN {
			t.Errorf("GLB %dkB: n grew from %d to %d as GLB shrank", kb, prevN, e.N)
		}
		if prevAcc >= 0 && e.AccessElems < prevAcc {
			t.Errorf("GLB %dkB: accesses fell from %d to %d as GLB shrank", kb, prevAcc, e.AccessElems)
		}
		prevAcc, prevN = e.AccessElems, e.N
		wantX := (int64(l.F) + int64(e.N) - 1) / int64(e.N)
		if e.IfmapLoads != wantX {
			t.Errorf("GLB %dkB: ifmap loads = %d, want ceil(%d/%d)=%d", kb, e.IfmapLoads, l.F, e.N, wantX)
		}
	}
}

// TestPrefetchDoublesTiles verifies paper Eq. 2: with prefetching every
// tile term is reserved twice.
func TestPrefetchDoublesTiles(t *testing.T) {
	cfg := Default(1024)
	l := layer.MustNew("c", layer.Conv, 28, 28, 64, 3, 3, 128, 1, 1)
	for _, id := range []ID{IntraLayer, P1IfmapReuse, P2FilterReuse, P3PerChannel} {
		plain := Estimate(&l, id, Options{}, cfg)
		pf := Estimate(&l, id, Options{Prefetch: true}, cfg)
		if pf.MemoryElems != 2*plain.MemoryElems {
			t.Errorf("%s: prefetch memory = %d, want 2x%d", id, pf.MemoryElems, plain.MemoryElems)
		}
		if pf.AccessElems != plain.AccessElems {
			t.Errorf("%s: prefetch changed accesses %d -> %d", id, plain.AccessElems, pf.AccessElems)
		}
		if pf.LatencyCycles > plain.LatencyCycles {
			t.Errorf("%s: prefetch latency %d > plain %d", id, pf.LatencyCycles, plain.LatencyCycles)
		}
	}
}

// TestPrefetchShrinksP5Block: under Eq. 2 the filter block n of P4/P5 can
// only shrink, so accesses can only grow (the paper's access/latency
// trade-off).
func TestPrefetchShrinksP5Block(t *testing.T) {
	cfg := Default(64)
	l := layer.MustNew("c", layer.Conv, 28, 28, 64, 3, 3, 512, 1, 1)
	for _, id := range []ID{P4PartialIfmap, P5PartialPerChannel} {
		plain := Estimate(&l, id, Options{}, cfg)
		pf := Estimate(&l, id, Options{Prefetch: true}, cfg)
		if pf.N > plain.N {
			t.Errorf("%s: prefetch n = %d > plain n = %d", id, pf.N, plain.N)
		}
		if pf.AccessElems < plain.AccessElems {
			t.Errorf("%s: prefetch accesses %d < plain %d", id, pf.AccessElems, plain.AccessElems)
		}
	}
}

// TestResidentIfmap verifies the inter-layer-reuse consumer variant: no
// ifmap traffic, resident footprint counted.
func TestResidentIfmap(t *testing.T) {
	cfg := Default(256)
	l := layer.MustNew("c", layer.Conv, 28, 28, 64, 3, 3, 128, 1, 1)
	e := Estimate(&l, P1IfmapReuse, Options{ResidentIfmap: true}, cfg)
	if e.AccessIfmap != 0 || e.IfmapLoads != 0 {
		t.Errorf("resident ifmap still fetched: %d loads, %d elems", e.IfmapLoads, e.AccessIfmap)
	}
	if e.AccessElems != l.FilterElems()+l.OfmapElems() {
		t.Errorf("accesses = %d, want filters+ofmap = %d", e.AccessElems, l.FilterElems()+l.OfmapElems())
	}
	// Memory must account for the full live (unpadded) ifmap, not the tile.
	if e.MemoryElems < l.IfmapElems(false)+l.FilterElems() {
		t.Errorf("memory %d does not cover resident ifmap", e.MemoryElems)
	}
}

// TestKeepOfmap verifies the producer variant: ofmap stays on-chip, no
// store traffic, full ofmap counted in memory.
func TestKeepOfmap(t *testing.T) {
	cfg := Default(256)
	l := layer.MustNew("c", layer.Conv, 28, 28, 64, 3, 3, 128, 1, 1)
	e := Estimate(&l, P1IfmapReuse, Options{KeepOfmap: true}, cfg)
	if e.AccessOfmap != 0 {
		t.Errorf("kept ofmap still stored: %d elems", e.AccessOfmap)
	}
	if e.MemoryElems < l.OfmapElems() {
		t.Errorf("memory %d does not cover retained ofmap %d", e.MemoryElems, l.OfmapElems())
	}
	// Prefetch must not double the retained ofmap region.
	pf := Estimate(&l, P1IfmapReuse, Options{KeepOfmap: true, Prefetch: true}, cfg)
	if pf.DoubleBuffered.Ofmap != 0 {
		t.Errorf("retained ofmap double-buffered: %+v", pf.DoubleBuffered)
	}
}

// TestLatencyComponents sanity-checks the latency estimator arithmetic.
func TestLatencyComponents(t *testing.T) {
	cfg := Default(1024)
	l := layer.MustNew("c", layer.Conv, 28, 28, 64, 3, 3, 128, 1, 1)
	e := Estimate(&l, IntraLayer, Options{}, cfg)
	if e.ComputeCycles != (l.MACs()+255)/256 {
		t.Errorf("compute cycles = %d, want ceil(MACs/256)", e.ComputeCycles)
	}
	if e.TransferCycles != (e.AccessBytes+15)/16 {
		t.Errorf("transfer cycles = %d, want ceil(bytes/16)", e.TransferCycles)
	}
	if e.LatencyCycles != e.ComputeCycles+e.TransferCycles {
		t.Errorf("no-prefetch latency = %d, want compute+transfer = %d",
			e.LatencyCycles, e.ComputeCycles+e.TransferCycles)
	}
	pf := Estimate(&l, IntraLayer, Options{Prefetch: true}, cfg)
	if pf.LatencyCycles < e.ComputeCycles || pf.LatencyCycles > e.LatencyCycles {
		t.Errorf("prefetch latency %d outside [compute %d, serial %d]",
			pf.LatencyCycles, e.ComputeCycles, e.LatencyCycles)
	}
}

// TestDataWidthScaling: wider elements reduce GLB capacity in elements and
// slow transfers proportionally.
func TestDataWidthScaling(t *testing.T) {
	l := layer.MustNew("c", layer.Conv, 28, 28, 64, 3, 3, 128, 1, 1)
	c8 := Default(256)
	c32 := Default(256)
	c32.DataWidthBits = 32
	if c32.CapacityElems() != c8.CapacityElems()/4 {
		t.Errorf("capacity: 32-bit %d, want quarter of %d", c32.CapacityElems(), c8.CapacityElems())
	}
	e8 := Estimate(&l, IntraLayer, Options{}, c8)
	e32 := Estimate(&l, IntraLayer, Options{}, c32)
	if e32.AccessElems != e8.AccessElems {
		t.Errorf("element accesses differ across widths: %d vs %d", e32.AccessElems, e8.AccessElems)
	}
	if e32.AccessBytes != 4*e8.AccessBytes {
		t.Errorf("byte accesses: 32-bit %d, want 4x%d", e32.AccessBytes, e8.AccessBytes)
	}
	if e32.TransferCycles <= e8.TransferCycles {
		t.Errorf("32-bit transfer %d not slower than 8-bit %d", e32.TransferCycles, e8.TransferCycles)
	}
}

// TestFCPolicies: FC layers degrade gracefully — P3 becomes extremely
// memory-light (weight row streaming), and the P4 sliding window spans the
// whole (1x1) ifmap so no re-loads happen.
func TestFCPolicies(t *testing.T) {
	cfg := Default(64)
	l := layer.FC("fc", 512, 1000)
	p3 := Estimate(&l, P3PerChannel, Options{}, cfg)
	if want := int64(1 + 1000 + 1000); p3.MemoryElems != want {
		t.Errorf("FC P3 memory = %d elems, want %d", p3.MemoryElems, want)
	}
	p4 := Estimate(&l, P4PartialIfmap, Options{}, cfg)
	if p4.IfmapLoads != 1 {
		t.Errorf("FC P4 ifmap loads = %d, want 1 (window spans ifmap)", p4.IfmapLoads)
	}
}

// TestAllVariantCount verifies All returns the 12-variant policy set of
// Algorithm 1 line 1.
func TestAllVariantCount(t *testing.T) {
	l := layer.MustNew("c", layer.Conv, 8, 8, 4, 3, 3, 8, 1, 1)
	got := All(&l, Default(64))
	if len(got) != 12 {
		t.Fatalf("All returned %d variants, want 12", len(got))
	}
	seen := map[string]bool{}
	for _, e := range got {
		k := Variant(e.Policy, e.Opts.Prefetch)
		if seen[k] {
			t.Errorf("duplicate variant %s", k)
		}
		seen[k] = true
	}
}

func TestConfigValidate(t *testing.T) {
	good := Default(64)
	if err := good.Validate(); err != nil {
		t.Errorf("Default config invalid: %v", err)
	}
	bad := []Config{
		{GLBBytes: 0, DataWidthBits: 8, OpsPerCycle: 512, DRAMBytesPerCycle: 16},
		{GLBBytes: 1, DataWidthBits: 0, OpsPerCycle: 512, DRAMBytesPerCycle: 16},
		{GLBBytes: 1, DataWidthBits: 8, OpsPerCycle: 1, DRAMBytesPerCycle: 16},
		{GLBBytes: 1, DataWidthBits: 8, OpsPerCycle: 512, DRAMBytesPerCycle: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d: Validate() = nil, want error", i)
		}
	}
}

func TestVariantNames(t *testing.T) {
	if got := Variant(P2FilterReuse, true); got != "policy 2 +p" {
		t.Errorf("Variant = %q", got)
	}
	if got := Variant(IntraLayer, false); got != "intra-layer reuse" {
		t.Errorf("Variant = %q", got)
	}
	if got := P5PartialPerChannel.Short(); got != "p5" {
		t.Errorf("Short = %q", got)
	}
	if got := IntraLayer.Short(); got != "intra" {
		t.Errorf("Short = %q", got)
	}
}

// TestFeasibilityFlag: an estimate is feasible iff it fits the GLB.
func TestFeasibilityFlag(t *testing.T) {
	l := layer.MustNew("c", layer.Conv, 56, 56, 64, 3, 3, 64, 1, 1)
	small := Estimate(&l, IntraLayer, Options{}, Default(64))
	if small.Feasible {
		t.Errorf("intra-layer of 56x56x64 conv cannot fit 64kB (needs %d bytes)", small.MemoryBytes)
	}
	big := Estimate(&l, IntraLayer, Options{}, Default(1024))
	if !big.Feasible {
		t.Errorf("intra-layer should fit 1MB (needs %d bytes)", big.MemoryBytes)
	}
}

// TestEstimateNRefusesUnplannableBlockSizes: EstimateN prices only the
// block sizes bestBlockSize can choose, [1, max(1, F#-1)] for P4 and P5
// and exactly 1 on depth-wise layers, and no block size for the other
// policies. Unchecked, AlexNet conv1 at 32 kB under P4 priced
// n = 14593943096289204 to a negative, feasible memory figure and n = 2^62
// to 7524 B; n = F# was priced although the planner never picks it, and
// n <= 0 silently became 1.
func TestEstimateNRefusesUnplannableBlockSizes(t *testing.T) {
	net, err := model.Builtin("AlexNet")
	if err != nil {
		t.Fatal(err)
	}
	l := &net.Layers[0]
	if l.Name != "conv1" {
		t.Fatalf("AlexNet's first layer is %s, want conv1", l.Name)
	}
	cfg := Default(32)
	f := int64(l.F)
	for _, n := range []int64{14593943096289204, 1 << 62, f, 0, -1} {
		if e, err := EstimateN(l, P4PartialIfmap, Options{}, cfg, n); err == nil {
			t.Errorf("P4 n = %d priced at %d B (feasible %t), want an error", n, e.MemoryBytes, e.Feasible)
		}
	}
	// In range, EstimateN prices exactly what the planner would.
	for _, id := range []ID{P4PartialIfmap, P5PartialPerChannel} {
		want := Estimate(l, id, Options{}, cfg)
		if got, err := EstimateN(l, id, Options{}, cfg, int64(want.N)); err != nil || got != want {
			t.Errorf("%s n = %d: EstimateN %+v, %v; want Estimate's %+v", id, want.N, got, err, want)
		}
		if _, err := EstimateN(l, id, Options{}, cfg, f-1); err != nil {
			t.Errorf("%s n = F#-1: %v", id, err)
		}
	}
	dw := layer.MustNew("dw", layer.DepthwiseConv, 56, 56, 128, 3, 3, 1, 1, 1)
	if _, err := EstimateN(&dw, P5PartialPerChannel, Options{}, cfg, 1); err != nil {
		t.Errorf("depth-wise n = 1: %v", err)
	}
	if _, err := EstimateN(&dw, P5PartialPerChannel, Options{}, cfg, 2); err == nil {
		t.Error("depth-wise n = 2 priced, want an error")
	}
	if _, err := EstimateN(l, P1IfmapReuse, Options{}, cfg, 1); err == nil {
		t.Error("P1 n = 1 priced, want an error: P1 has no block size")
	}
}
