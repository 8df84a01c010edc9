package policy

import (
	"math/rand"
	"testing"

	"scratchmem/internal/layer"
)

// randomConv draws a small random dense convolution.
func randomConv(r *rand.Rand) layer.Layer {
	fh := 1 + r.Intn(5)
	fw := 1 + r.Intn(5)
	return layer.MustNew("q", layer.Conv,
		fh+r.Intn(30), fw+r.Intn(30), 1+r.Intn(48),
		fh, fw, 1+r.Intn(96), 1+r.Intn(2), r.Intn(3))
}

// TestBestBlockSizeMatchesScan: the closed-form affine solve for the P4/P5
// filter-block size must agree with a brute-force linear scan over n, on
// both of its paths: Estimate's and the sweeps' precomputed Shape.
func TestBestBlockSizeMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 400; trial++ {
		l := randomConv(r)
		glbKB := 1 << (2 + r.Intn(8)) // 4 kB .. 512 kB
		cfg := Default(glbKB)
		o := Options{Prefetch: r.Intn(2) == 0}
		for _, id := range []ID{P4PartialIfmap, P5PartialPerChannel} {
			got := Estimate(&l, id, o, cfg)
			// Brute force: largest feasible n in [1, F#-1] (or 1).
			s := newShape(&l, cfg.IncludePadding)
			maxN := int64(l.F) - 1
			if maxN < 1 {
				maxN = 1
			}
			best := int64(1)
			feasible := false
			for n := int64(1); n <= maxN; n++ {
				mem, _ := memoryElems(tilesFor(id, &s, n), &s, o)
				if mem <= cfg.CapacityElems() {
					best, feasible = n, true
				}
			}
			if feasible && int64(got.N) != best {
				t.Fatalf("%s on %s @%dkB pf=%v: closed-form n=%d, scan n=%d",
					id, l, glbKB, o.Prefetch, got.N, best)
			}
			sh := NewShape(&l, cfg.IncludePadding)
			if n := sh.bestBlockSize(id, o, cfg); n != int64(got.N) {
				t.Fatalf("%s on %s @%dkB pf=%v: Shape path n=%d, Estimate n=%d",
					id, l, glbKB, o.Prefetch, n, got.N)
			}
			if !feasible && got.Feasible {
				t.Fatalf("%s on %s @%dkB: estimator feasible but scan found nothing", id, l, glbKB)
			}
		}
	}
}

// TestEstimateFastContract checks EstimateFast's stated contract against
// Estimate on random layers, for every policy and every combination of
// prefetch, resident ifmap and kept ofmap: a feasible result equals
// Estimate's field for field, and an infeasible one carries Estimate's
// identifying, block-size, tile and memory fields with everything else
// zero.
func TestEstimateFastContract(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	feasible, infeasible := 0, 0
	for trial := 0; trial < 300; trial++ {
		l := randomConv(r)
		cfg := Default(1 << (2 + r.Intn(8)))
		for _, id := range IDs() {
			for mask := 0; mask < 8; mask++ {
				o := Options{Prefetch: mask&1 != 0, ResidentIfmap: mask&2 != 0, KeepOfmap: mask&4 != 0}
				want := Estimate(&l, id, o, cfg)
				if want.Feasible {
					feasible++
				} else {
					infeasible++
					want = Result{Policy: want.Policy, Opts: want.Opts, Layer: want.Layer, N: want.N,
						Tiles: want.Tiles, DoubleBuffered: want.DoubleBuffered,
						MemoryElems: want.MemoryElems, MemoryBytes: want.MemoryBytes}
				}
				if got := EstimateFast(&l, id, o, cfg); got != want {
					t.Fatalf("%s on %s @%dB %+v:\nEstimateFast %+v\nwant         %+v", id, l, cfg.GLBBytes, o, got, want)
				}
			}
		}
	}
	if feasible == 0 || infeasible == 0 {
		t.Fatalf("%d feasible and %d infeasible cases: the draw misses a side of the contract", feasible, infeasible)
	}
}

// TestEstimateInvariants: randomized invariants over all policies.
func TestEstimateInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		l := randomConv(r)
		cfg := Default(1 << (3 + r.Intn(8)))
		min := MinAccessElems(&l, cfg)
		for _, id := range IDs() {
			for _, pf := range []bool{false, true} {
				e := Estimate(&l, id, Options{Prefetch: pf}, cfg)
				if e.AccessElems < min {
					t.Fatalf("%s on %s: accesses %d below minimum %d", id, l, e.AccessElems, min)
				}
				if e.AccessIfmap+e.AccessFilter+e.AccessOfmap != e.AccessElems {
					t.Fatalf("%s on %s: per-type accesses do not sum", id, l)
				}
				if e.MemoryElems < e.Tiles.Total() {
					t.Fatalf("%s on %s: memory %d below tile total %d", id, l, e.MemoryElems, e.Tiles.Total())
				}
				if e.LatencyCycles < e.ComputeCycles {
					t.Fatalf("%s on %s: latency %d below compute bound %d", id, l, e.LatencyCycles, e.ComputeCycles)
				}
				if !pf && e.LatencyCycles != e.ComputeCycles+e.TransferCycles {
					t.Fatalf("%s on %s: serial latency identity broken", id, l)
				}
				if e.Feasible != (e.MemoryBytes <= cfg.GLBBytes) {
					t.Fatalf("%s on %s: feasibility flag inconsistent", id, l)
				}
			}
		}
		// The fallback footprint never exceeds the whole-operand policies
		// (intra, P1, P2) or P4's: it holds one window, one filter and one
		// output row. (P3/P5 can be smaller on few-filter layers, where
		// their single-channel window beats the fallback's all-channel one.)
		fb := FallbackEstimate(&l, Options{}, cfg)
		for _, id := range []ID{IntraLayer, P1IfmapReuse, P2FilterReuse, P4PartialIfmap} {
			e := Estimate(&l, id, Options{}, cfg)
			if fb.MemoryElems > e.MemoryElems {
				t.Fatalf("fallback footprint %d above %s footprint %d on %s",
					fb.MemoryElems, id, e.MemoryElems, l)
			}
		}
		// Nor P4's at its smallest block, n = 1, whichever block Estimate
		// picks: so any layer P4 fits at n = 1 also fits fallback tiling.
		p4, err := EstimateN(&l, P4PartialIfmap, Options{}, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		if fb.MemoryElems > p4.MemoryElems {
			t.Fatalf("fallback footprint %d above P4's at n = 1, %d, on %s", fb.MemoryElems, p4.MemoryElems, l)
		}
	}
}
