package scratchmem

import (
	"bytes"
	"context"
	"testing"

	"scratchmem/internal/core"
	"scratchmem/internal/layer"
	"scratchmem/internal/model"
	"scratchmem/internal/policy"
)

// FuzzIncrementalSplice drives the fingerprint matcher and the DP splice
// with randomized neighbor mutations and asserts the safety property the
// whole feature rests on: no mutation sequence ever produces a false prefix
// or suffix match — every spliced plan renders byte-identical to planning
// the mutated network from scratch. Each fuzz input derives a deterministic
// mutation sequence (edit/insert/delete positions and deltas) of ResNet18
// and checks both independent and inter-layer modes.
func FuzzIncrementalSplice(f *testing.F) {
	f.Add(uint32(0), uint8(1), false)
	f.Add(uint32(7), uint8(3), true)
	f.Add(uint32(0xdeadbeef), uint8(5), false)
	f.Add(uint32(42), uint8(2), true)

	base, err := model.Builtin("ResNet18")
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, seed uint32, edits uint8, inter bool) {
		rng := seed
		next := func(n int) int { // xorshift; avoids math/rand plumbing
			rng ^= rng << 13
			rng ^= rng >> 17
			rng ^= rng << 5
			return int(rng % uint32(n))
		}
		nn := &Network{Name: "fuzz", Layers: append([]layer.Layer(nil), base.Layers...)}
		for e := 0; e < int(edits%8); e++ {
			if len(nn.Layers) == 0 {
				break
			}
			i := next(len(nn.Layers))
			switch next(3) {
			case 0: // reshape layer i
				l := nn.Layers[i]
				delta := 1 + next(7)
				if l.Kind == layer.DepthwiseConv {
					nn.Layers[i] = layer.MustNew(l.Name, l.Kind, l.IH, l.IW, l.CI+delta, l.FH, l.FW, l.F, l.S, l.P)
				} else {
					nn.Layers[i] = layer.MustNew(l.Name, l.Kind, l.IH, l.IW, l.CI, l.FH, l.FW, l.F+delta, l.S, l.P)
				}
			case 1: // insert a fresh conv at i
				ins := layer.MustNew("fz", layer.Conv, 7+next(28), 7+next(28), 1+next(64), 3, 3, 1+next(64), 1, 1)
				nn.Layers = append(nn.Layers[:i], append([]layer.Layer{ins}, nn.Layers[i:]...)...)
			case 2: // delete layer i
				if len(nn.Layers) > 1 {
					nn.Layers = append(nn.Layers[:i], nn.Layers[i+1:]...)
				}
			}
		}
		if err := nn.Validate(); err != nil {
			t.Skip("mutation produced an invalid network")
		}

		pl := &core.Planner{Cfg: policy.Default(64), Objective: core.MinAccesses, InterLayer: inter}
		ctx := context.Background()
		_, ck, _, err := pl.HeterogeneousDiffCtx(ctx, base, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, _, stats, gotErr := pl.HeterogeneousDiffCtx(ctx, nn, ck)

		want, wantErr := pl.HeterogeneousCtx(ctx, nn, nil)

		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("errors diverge: ref=%v diff=%v", wantErr, gotErr)
		}
		if wantErr != nil {
			return
		}
		wantJSON, err := PlanDocument(want).MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := PlanDocument(got).MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Fatalf("spliced plan diverged from from-scratch (outcome=%s reused=%d)\nwant:\n%s\ngot:\n%s",
				stats.Outcome, stats.LayersReused, wantJSON, gotJSON)
		}
	})
}
