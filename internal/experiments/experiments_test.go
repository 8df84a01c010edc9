package experiments

import (
	"context"
	"strings"
	"testing"
)

// quickSetup keeps tests fast on small machines: single worker, paper sizes.
func quickSetup() Setup { return Setup{SizesKB: PaperSizesKB, Workers: 2} }

func TestTable2Shape(t *testing.T) {
	tab := Table2()
	if tab.Rows() != 6 {
		t.Fatalf("Table 2 has %d rows, want 6", tab.Rows())
	}
	var sb strings.Builder
	if err := tab.Render(&sb); err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"EfficientNetB0", "GoogLeNet", "MnasNet", "MobileNet", "MobileNetV2", "ResNet18"} {
		if !strings.Contains(sb.String(), m) {
			t.Errorf("Table 2 missing %s", m)
		}
	}
}

func TestTable3Shape(t *testing.T) {
	data, tab := Table3()
	if len(data) != 6 || tab.Rows() != 6 {
		t.Fatalf("Table 3 has %d rows, want 6", len(data))
	}
	for _, d := range data {
		// Intra-layer reuse always needs at least as much as any tiled
		// policy's per-layer maximum cannot exceed... sanity: positive, and
		// P2 (one filter + one channel) is the lightest for these nets.
		if d.Intra <= 0 || d.P1 <= 0 || d.P2 <= 0 || d.P3 <= 0 {
			t.Errorf("%s: non-positive entries %+v", d.Model, d)
		}
		if d.P2 > d.Intra {
			t.Errorf("%s: P2 max %f exceeds intra %f", d.Model, d.P2, d.Intra)
		}
	}
}

func TestFig5Shape(t *testing.T) {
	cells, tab := Fig5(quickSetup())
	if len(cells) != 30 || tab.Rows() != 30 {
		t.Fatalf("Fig5 has %d cells, want 30", len(cells))
	}
	byModelSize := map[string]map[int]Fig5Cell{}
	for _, c := range cells {
		if byModelSize[c.Model] == nil {
			byModelSize[c.Model] = map[int]Fig5Cell{}
		}
		byModelSize[c.Model][c.SizeKB] = c
	}
	for m, sizes := range byModelSize {
		small := sizes[64]
		big := sizes[1024]
		bestSmall := minBaseline(small)
		// Paper §5.1: large reductions at the smallest buffer (32-80%
		// depending on model and scheme).
		if got := 1 - float64(small.Het)/float64(bestSmall); got < 0.25 {
			t.Errorf("%s @64kB: Het reduction vs best baseline = %.2f, want >= 0.25", m, got)
		}
		if small.Het > small.Hom {
			t.Errorf("%s @64kB: Het %d worse than Hom %d", m, small.Het, small.Hom)
		}
		// Het accesses nearly flat across sizes.
		if r := float64(small.Het) / float64(big.Het); r > 1.6 {
			t.Errorf("%s: Het 64kB/1MB ratio %.2f, want near-constant", m, r)
		}
		// At 1 MB the baseline gap closes substantially.
		bestBig := minBaseline(big)
		gapSmall := float64(bestSmall) / float64(small.Het)
		gapBig := float64(bestBig) / float64(big.Het)
		if gapBig > gapSmall {
			t.Errorf("%s: baseline gap grew with buffer size (%.2f -> %.2f)", m, gapSmall, gapBig)
		}
	}
	// Headline: ResNet18 @64kB reduction should approach the paper's ~80%.
	r18 := byModelSize["ResNet18"][64]
	red := 1 - float64(r18.Het)/float64(minBaseline(r18))
	if red < 0.6 {
		t.Errorf("ResNet18 @64kB Het reduction = %.2f, paper reports 0.80", red)
	}
}

func minBaseline(c Fig5Cell) int64 {
	best := int64(0)
	for _, v := range c.Baselines {
		if best == 0 || v < best {
			best = v
		}
	}
	return best
}

func TestFig7Shape(t *testing.T) {
	cells, _, err := Fig7Ctx(context.Background(), quickSetup(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 15 {
		t.Fatalf("Fig7 has %d cells, want 15", len(cells))
	}
	var b32at64, b8at64, b32at1024 float64
	for _, c := range cells {
		if c.BenefitPct < -1 {
			t.Errorf("width %d @%dkB: Het worse than Hom by %.1f%%", c.WidthBits, c.SizeKB, -c.BenefitPct)
		}
		switch {
		case c.WidthBits == 32 && c.SizeKB == 64:
			b32at64 = c.BenefitPct
		case c.WidthBits == 8 && c.SizeKB == 64:
			b8at64 = c.BenefitPct
		case c.WidthBits == 32 && c.SizeKB == 1024:
			b32at1024 = c.BenefitPct
		}
	}
	// Paper: the Het advantage is largest for wide data at small buffers
	// (69% at 32-bit/64kB) and fades for large buffers.
	if b32at64 < b8at64 {
		t.Errorf("32-bit benefit (%.1f%%) not larger than 8-bit (%.1f%%) at 64kB", b32at64, b8at64)
	}
	if b32at64 < 10 {
		t.Errorf("32-bit @64kB benefit = %.1f%%, want substantial (paper: 69%%)", b32at64)
	}
	if b32at1024 > b32at64 {
		t.Errorf("benefit did not fade with size: %.1f%% -> %.1f%%", b32at64, b32at1024)
	}
}

func TestFig8Shape(t *testing.T) {
	cells, _ := Fig8(quickSetup())
	if len(cells) != 30 {
		t.Fatalf("Fig8 has %d cells, want 30", len(cells))
	}
	bestRed := 0.0
	for _, c := range cells {
		if c.HetL > c.HetA {
			t.Errorf("%s @%dkB: Het_l latency %d > Het_a %d", c.Model, c.SizeKB, c.HetL, c.HetA)
		}
		if c.HetL > c.HomL {
			t.Errorf("%s @%dkB: Het_l latency %d > Hom_l %d", c.Model, c.SizeKB, c.HetL, c.HomL)
		}
		if red := 1 - float64(c.HetL)/float64(c.Baseline); red > bestRed {
			bestRed = red
		}
	}
	// Paper: up to 56% latency reduction. Require a substantial best case.
	if bestRed < 0.3 {
		t.Errorf("best latency reduction = %.2f, want >= 0.3 (paper: 0.56)", bestRed)
	}
}

func TestFig9Shape(t *testing.T) {
	cells, _, err := Fig9Ctx(context.Background(), quickSetup(), 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 {
		t.Fatalf("Fig9 has %d cells, want 6", len(cells))
	}
	for _, c := range cells {
		if c.LatencyBenefitPct < 0 {
			t.Errorf("%s: Het_l slower than Het_a by %.1f%%", c.Model, -c.LatencyBenefitPct)
		}
		if c.AccessBenefitPct > 0.001 {
			t.Errorf("%s: Het_l fewer accesses than Het_a (%.1f%%)?", c.Model, c.AccessBenefitPct)
		}
	}
	// At least one model trades accesses for latency visibly (paper:
	// MobileNet +23% latency / -33% accesses).
	traded := false
	for _, c := range cells {
		if c.LatencyBenefitPct > 5 && c.AccessBenefitPct < -5 {
			traded = true
		}
	}
	if !traded {
		t.Error("no model shows the latency-for-accesses trade at 64kB")
	}
}

func TestFig10Shape(t *testing.T) {
	cells, _, err := Fig10Ctx(context.Background(), quickSetup(), "MobileNet", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 5 {
		t.Fatalf("Fig10 has %d cells, want 5", len(cells))
	}
	for _, c := range cells {
		if c.LatencyBenefitPct < 0 {
			t.Errorf("@%dkB: prefetching hurt latency by %.1f%%", c.SizeKB, -c.LatencyBenefitPct)
		}
	}
	// Paper: ~15% latency benefit at most sizes, access penalty at 64kB,
	// coverage 93-100%.
	if cells[0].AccessBenefitPct > -1 {
		t.Errorf("@64kB access penalty = %.1f%%, want a real penalty (paper: -35%%)", cells[0].AccessBenefitPct)
	}
	last := cells[len(cells)-1]
	if last.CoveragePct < 90 {
		t.Errorf("@%dkB coverage = %.0f%%, want >= 90%%", last.SizeKB, last.CoveragePct)
	}
	if cells[0].LatencyBenefitPct < 3 {
		t.Errorf("@64kB latency benefit = %.1f%%, want visible (paper ~15%%)", cells[0].LatencyBenefitPct)
	}
}

func TestFig11Shape(t *testing.T) {
	cells, _, geo, err := Fig11Ctx(context.Background(), quickSetup(), "MnasNet", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 5 {
		t.Fatalf("Fig11 has %d cells, want 5", len(cells))
	}
	for i := 1; i < len(cells); i++ {
		if cells[i].CoveragePct+1e-9 < cells[i-1].CoveragePct {
			t.Errorf("coverage not monotone: %v then %v", cells[i-1], cells[i])
		}
	}
	first, last := cells[0], cells[len(cells)-1]
	if last.CoveragePct < 70 {
		t.Errorf("@1MB coverage = %.0f%%, want high (paper: 98%%)", last.CoveragePct)
	}
	if last.AccessBenefitPct < 40 {
		t.Errorf("@1MB access benefit = %.1f%%, want large (paper: 70%%)", last.AccessBenefitPct)
	}
	if first.AccessBenefitPct > last.AccessBenefitPct {
		t.Error("benefit did not grow with buffer size")
	}
	if geo.Rows() != 2 {
		t.Errorf("geomean table has %d rows, want 2", geo.Rows())
	}
}

func TestHeadlines(t *testing.T) {
	s := quickSetup()
	f5, _ := Fig5(s)
	f8, _ := Fig8(s)
	h, tab := Headlines(f5, f8)
	if h.MaxAccessReductionPct < 60 {
		t.Errorf("max access reduction = %.1f%%, paper reports 80%%", h.MaxAccessReductionPct)
	}
	if h.MaxLatencyReductionPct < 30 {
		t.Errorf("max latency reduction = %.1f%%, paper reports 56%%", h.MaxLatencyReductionPct)
	}
	if tab.Rows() != 2 {
		t.Errorf("headline table rows = %d", tab.Rows())
	}
}

func TestTable4AndFig6Render(t *testing.T) {
	var sb strings.Builder
	if err := Table4(64).Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "policy") {
		t.Error("Table 4 lists no policies")
	}
	sb.Reset()
	f6 := Fig6(64)
	if f6.Rows() != 21 {
		t.Errorf("Fig6 rows = %d, want 21 (ResNet18 layers)", f6.Rows())
	}
	if err := f6.Render(&sb); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := Fig3().Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "conv1") {
		t.Error("Fig3 missing conv1")
	}
}
