package dram

import (
	"context"
	"testing"

	"scratchmem/internal/engine"
	"scratchmem/internal/layer"
	"scratchmem/internal/policy"
	"scratchmem/internal/trace"
)

func TestValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Banks: 0, RowBytes: 1, BurstBytes: 1, BusBytesPerCycle: 1, RowMissCycles: 1},
		{Banks: 1, RowBytes: 0, BurstBytes: 1, BusBytesPerCycle: 1, RowMissCycles: 1},
		{Banks: 1, RowBytes: 64, BurstBytes: 128, BusBytesPerCycle: 1, RowMissCycles: 1},
		{Banks: 1, RowBytes: 64, BurstBytes: 64, BusBytesPerCycle: 0, RowMissCycles: 1},
		{Banks: 1, RowBytes: 64, BurstBytes: 64, BusBytesPerCycle: 1, RowHitCycles: 5, RowMissCycles: 1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	if _, err := NewChannel(Config{}); err == nil {
		t.Error("NewChannel accepted zero config")
	}
}

// TestSequentialStreamMostlyHits: a long sequential read misses once per
// row and hits on every other burst.
func TestSequentialStreamMostlyHits(t *testing.T) {
	cfg := Default()
	ch, err := NewChannel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bytes := 4 * cfg.RowBytes // exactly 4 rows
	cycles := ch.Access(0, bytes)
	hits, misses, _ := ch.Stats()
	if misses != 4 {
		t.Errorf("misses = %d, want 4 (one per row)", misses)
	}
	wantHits := bytes/cfg.BurstBytes - 4
	if hits != wantHits {
		t.Errorf("hits = %d, want %d", hits, wantHits)
	}
	// Open-row bursts pipeline: total = data + 4 activations only.
	if want := bytes/int64(cfg.BusBytesPerCycle) + 4*cfg.RowMissCycles; cycles != want {
		t.Errorf("stream cycles = %d, want %d", cycles, want)
	}
	if tc := ch.TransferCycles(); tc != bytes/int64(cfg.BusBytesPerCycle) {
		t.Errorf("transfer cycles = %d, want %d", tc, bytes/int64(cfg.BusBytesPerCycle))
	}
}

// TestInterleavingCostsMisses: ping-ponging between two far-apart regions
// that map to the same bank forces a miss per access.
func TestInterleavingCostsMisses(t *testing.T) {
	cfg := Default()
	ch, _ := NewChannel(cfg)
	stride := cfg.RowBytes * int64(cfg.Banks) // same bank, different row
	for i := 0; i < 10; i++ {
		ch.Access(0, cfg.BurstBytes)
		ch.Access(stride, cfg.BurstBytes)
	}
	_, misses, _ := ch.Stats()
	if misses != 20 {
		t.Errorf("misses = %d, want 20 (every access conflicts)", misses)
	}
}

// TestZeroAndEdgeAccesses: zero-byte accesses are free; sub-burst accesses
// cost one latency plus their data.
func TestZeroAndEdgeAccesses(t *testing.T) {
	ch, _ := NewChannel(Default())
	if c := ch.Access(0, 0); c != 0 {
		t.Errorf("zero access cost %d", c)
	}
	c := ch.Access(0, 3)
	if c != Default().RowMissCycles+1 {
		t.Errorf("3-byte access cost %d, want miss+1", c)
	}
	// A second small access to the same open row costs one hit latency plus
	// its data.
	c = ch.Access(64, 3)
	if c != Default().RowHitCycles+1 {
		t.Errorf("open-row access cost %d, want hit+1", c)
	}
}

// TestReplayEngineTrace: replaying a real engine trace costs at least the
// ideal-bandwidth transfer time and reports consistent totals.
func TestReplayEngineTrace(t *testing.T) {
	l := layer.MustNew("c", layer.Conv, 12, 12, 4, 3, 3, 8, 1, 1)
	cfg := policy.Default(64)
	est := policy.Estimate(&l, policy.P1IfmapReuse, policy.Options{}, cfg)
	var log trace.Log
	if _, err := engine.DryRunCtx(context.Background(), &l, &est, cfg, &log); err != nil {
		t.Fatal(err)
	}
	cycles, ch, err := Replay(&log, cfg.DataWidthBits, Default())
	if err != nil {
		t.Fatal(err)
	}
	ideal := est.AccessBytes / int64(Default().BusBytesPerCycle)
	if cycles < ideal {
		t.Errorf("banked DRAM %d cycles below ideal %d", cycles, ideal)
	}
	// Fine-grained tile DMA is latency-dominated on small layers, but the
	// model must stay within an order of magnitude of the ideal.
	if cycles > 10*ideal {
		t.Errorf("banked DRAM %d cycles implausibly above ideal %d", cycles, ideal)
	}
	hits, misses, total := ch.Stats()
	if hits+misses == 0 || total != cycles {
		t.Errorf("stats inconsistent: hits=%d misses=%d total=%d cycles=%d", hits, misses, total, cycles)
	}
}

// TestBankCountSensitivity: an interleaved engine trace replayed on a
// single-bank channel conflicts between the ifmap/filter/ofmap streams and
// misses more than on the default 8-bank channel.
func TestBankCountSensitivity(t *testing.T) {
	l := layer.MustNew("c", layer.Conv, 16, 16, 8, 3, 3, 32, 1, 1)
	cfg := policy.Default(256)
	est := policy.Estimate(&l, policy.P3PerChannel, policy.Options{}, cfg)
	var log trace.Log
	if _, err := engine.DryRunCtx(context.Background(), &l, &est, cfg, &log); err != nil {
		t.Fatal(err)
	}
	missesWith := func(banks int) int64 {
		c := Default()
		c.Banks = banks
		_, ch, err := Replay(&log, cfg.DataWidthBits, c)
		if err != nil {
			t.Fatal(err)
		}
		_, misses, _ := ch.Stats()
		return misses
	}
	one, eight := missesWith(1), missesWith(8)
	if one <= eight {
		t.Errorf("1-bank misses %d not above 8-bank misses %d", one, eight)
	}
}

func TestReplayErrors(t *testing.T) {
	var log trace.Log
	if _, _, err := Replay(&log, 0, Default()); err == nil {
		t.Error("zero width accepted")
	}
	if _, _, err := Replay(&log, 8, Config{}); err == nil {
		t.Error("zero config accepted")
	}
	// Compute events are ignored.
	log.Add("l", 0, trace.Compute, 1000)
	cycles, _, err := Replay(&log, 8, Default())
	if err != nil || cycles != 0 {
		t.Errorf("compute-only replay = %d cycles, err %v", cycles, err)
	}
}
