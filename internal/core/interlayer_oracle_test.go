package core

import (
	"context"
	"testing"

	"scratchmem/internal/model"
)

// TestInterLayerDPMatchesEnumeration pins the inter-layer DP as exact. On
// windows of at most 12 consecutive layers of every builtin, under both
// objectives and five GLB sizes, interLayerDP's (primary, secondary) totals
// must equal the lexicographic minimum over every retention pattern, found
// by enumeration, and it must fail exactly when no pattern is feasible.
// The windows are the non-overlapping ones plus the same windows offset by
// half a window, so every transition lies inside some window.
func TestInterLayerDPMatchesEnumeration(t *testing.T) {
	const window = 12
	runs := 0
	for _, name := range model.AllBuiltinNames() {
		n, err := model.Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		var starts []int
		for s := 0; s < len(n.Layers); s += window {
			starts = append(starts, s)
		}
		for s := window / 2; s < len(n.Layers); s += window {
			starts = append(starts, s)
		}
		for _, obj := range []Objective{MinAccesses, MinLatency} {
			for _, kb := range []int{16, 32, 64, 256, 1024} {
				pl := NewPlanner(kb, obj)
				pl.InterLayer = true
				tab := sweepTableGet()
				for _, s := range starts {
					sub := &model.Network{Name: n.Name, Layers: n.Layers[s:min(s+window, len(n.Layers))]}
					prim, sec, feasible := enumerateRetention(pl, tab, sub)
					got, err := pl.interLayerDP(context.Background(), tab, sub, nil)
					runs++
					if !feasible {
						if err == nil {
							t.Errorf("%s layers %d+%d @%dkB %v: DP planned a window no retention pattern fits",
								n.Name, s, len(sub.Layers), kb, obj)
						}
						continue
					}
					if err != nil {
						t.Errorf("%s layers %d+%d @%dkB %v: DP failed where enumeration found (%d, %d): %v",
							n.Name, s, len(sub.Layers), kb, obj, prim, sec, err)
						continue
					}
					gp, gs := dpTotals(t, pl, tab, sub, got)
					if gp != prim || gs != sec {
						t.Errorf("%s layers %d+%d @%dkB %v: DP totals (%d, %d), enumeration minimum (%d, %d)",
							n.Name, s, len(sub.Layers), kb, obj, gp, gs, prim, sec)
					}
				}
				sweepTablePut(tab)
			}
		}
	}
	if runs == 0 {
		t.Fatal("no window was checked")
	}
}

// enumerateRetention is the oracle: it scores every retention pattern of n
// (keep allowed only across chainable transitions) by summing objectiveKey
// over each layer's bestForLayer answer, and returns the lexicographic
// minimum. feasible is false when no pattern is.
func enumerateRetention(pl *Planner, t *sweepTable, n *model.Network) (prim, sec int64, feasible bool) {
	var links []int // transitions i -> i+1 that may keep layer i's ofmap
	for i := 0; i+1 < len(n.Layers); i++ {
		if chainable(&n.Layers[i], &n.Layers[i+1]) {
			links = append(links, i)
		}
	}
	keep := make([]bool, len(n.Layers))
	for mask := 0; mask < 1<<len(links); mask++ {
		clear(keep)
		for b, i := range links {
			keep[i] = mask&(1<<b) != 0
		}
		var p, s int64
		ok := true
		for i := range n.Layers {
			e := pl.bestForLayer(t, n, i, i > 0 && keep[i-1], keep[i])
			if !e.Feasible {
				ok = false
				break
			}
			ep, es := objectiveKey(pl.Objective, &e)
			p, s = p+ep, s+es
		}
		if ok && (!feasible || p < prim || (p == prim && s < sec)) {
			prim, sec, feasible = p, s, true
		}
	}
	return prim, sec, feasible
}

// dpTotals checks that a DP plan is one of the enumerated patterns (keeps
// only across chainable transitions, each consumer's producer keeps, and
// each layer carries bestForLayer's answer for its flags) and returns its
// (primary, secondary) totals.
func dpTotals(t *testing.T, pl *Planner, tab *sweepTable, n *model.Network, got []LayerPlan) (prim, sec int64) {
	t.Helper()
	if len(got) != len(n.Layers) {
		t.Fatalf("%s: DP planned %d layers of %d", n.Name, len(got), len(n.Layers))
	}
	for i := range got {
		lp := &got[i]
		if lp.KeepsResident && (i+1 == len(got) || !chainable(&n.Layers[i], &n.Layers[i+1])) {
			t.Fatalf("%s layer %d keeps its ofmap across a transition that does not chain", n.Name, i)
		}
		if lp.ConsumesResident != (i > 0 && got[i-1].KeepsResident) {
			t.Fatalf("%s layer %d: consumes resident %t, producer keeps %t", n.Name, i, lp.ConsumesResident, i > 0 && got[i-1].KeepsResident)
		}
		want := pl.bestForLayer(tab, n, i, lp.ConsumesResident, lp.KeepsResident)
		wp, ws := objectiveKey(pl.Objective, &want)
		p, s := objectiveKey(pl.Objective, &lp.Est)
		if p != wp || s != ws {
			t.Fatalf("%s layer %d: DP estimate (%d, %d), bestForLayer (%d, %d)", n.Name, i, p, s, wp, ws)
		}
		prim, sec = prim+p, sec+s
	}
	return prim, sec
}
