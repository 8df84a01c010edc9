// Package core implements the paper's memory-management technique (§3.3):
// the analyser that matches every layer of a network with the policy that
// best serves the optimisation objective under the GLB size constraint
// (paper Algorithm 1 and its latency-objective counterpart), producing
// homogeneous or heterogeneous execution plans, optionally extended with
// inter-layer reuse (§5.4).
package core

import (
	"slices"

	"scratchmem/internal/layer"
	"scratchmem/internal/model"
	"scratchmem/internal/policy"
	"scratchmem/internal/smmerr"
)

// Objective selects what the analyser minimises.
type Objective int

const (
	// MinAccesses minimises off-chip traffic, breaking ties on latency
	// (paper Algorithm 1).
	MinAccesses Objective = iota
	// MinLatency minimises estimated latency, breaking ties on traffic.
	MinLatency
)

// String names the objective the way the paper's figure legends do.
func (o Objective) String() string {
	if o == MinLatency {
		return "latency"
	}
	return "accesses"
}

// LayerPlan is the analyser's decision for one layer.
type LayerPlan struct {
	Layer layer.Layer
	Est   policy.Result
	// ConsumesResident is true when the layer reads its ifmap from the GLB
	// (previous layer's retained ofmap) instead of off-chip memory.
	ConsumesResident bool
	// KeepsResident is true when the layer's whole ofmap stays in the GLB
	// for the next layer (inter-layer reuse producer).
	KeepsResident bool
}

// Plan is a per-layer execution plan for a whole network — the paper's
// "management scheme".
type Plan struct {
	Model     string
	Cfg       policy.Config
	Objective Objective
	// Scheme describes how the plan was built ("het", "hom <policy>").
	Scheme string
	Layers []LayerPlan
	// ChainableTransitions counts layer transitions whose shapes chain
	// (the denominator of the paper's inter-layer-reuse coverage).
	ChainableTransitions int
	// Degraded is true when the requested policy set was infeasible and the
	// plan comes from a lower rung of the degradation ladder (degrade.go).
	Degraded bool
	// DegradedMode names the rung that produced a degraded plan.
	DegradedMode string
	// DegradedReasons records, in ladder order, every rung that failed
	// before DegradedMode succeeded — the machine-readable reason chain.
	DegradedReasons []DegradedReason
}

// AccessElems returns the plan's total off-chip traffic in elements.
func (p *Plan) AccessElems() int64 {
	var t int64
	for i := range p.Layers {
		t += p.Layers[i].Est.AccessElems
	}
	return t
}

// AccessBytes returns the plan's total off-chip traffic in bytes.
func (p *Plan) AccessBytes() int64 {
	var t int64
	for i := range p.Layers {
		t += p.Layers[i].Est.AccessBytes
	}
	return t
}

// LatencyCycles returns the plan's total estimated latency.
func (p *Plan) LatencyCycles() int64 {
	var t int64
	for i := range p.Layers {
		t += p.Layers[i].Est.LatencyCycles
	}
	return t
}

// MaxMemoryBytes returns the largest per-layer GLB footprint of the plan.
func (p *Plan) MaxMemoryBytes() int64 {
	var m int64
	for i := range p.Layers {
		if b := p.Layers[i].Est.MemoryBytes; b > m {
			m = b
		}
	}
	return m
}

// Feasible reports whether every layer fits the GLB.
func (p *Plan) Feasible() bool {
	for i := range p.Layers {
		if !p.Layers[i].Est.Feasible {
			return false
		}
	}
	return true
}

// PolicyMix returns the distinct policy variants the plan uses, in first-use
// order — the contents of the paper's Table 4 rows. A plan has at most
// 2 × (NumPolicies+1) variants, so duplicates are found by a linear scan
// of those collected so far, in a stack buffer copied out once.
func (p *Plan) PolicyMix() []string {
	var buf [2 * (policy.NumPolicies + 1)]string
	mix := buf[:0]
	for i := range p.Layers {
		v := policy.Variant(p.Layers[i].Est.Policy, p.Layers[i].Est.Opts.Prefetch)
		if !slices.Contains(mix, v) {
			mix = append(mix, v)
		}
	}
	return append([]string(nil), mix...)
}

// PrefetchCoverage returns the fraction of layers whose chosen variant
// prefetches (paper Figure 10 parentheses).
func (p *Plan) PrefetchCoverage() float64 {
	if len(p.Layers) == 0 {
		return 0
	}
	n := 0
	for i := range p.Layers {
		if p.Layers[i].Est.Opts.Prefetch {
			n++
		}
	}
	return float64(n) / float64(len(p.Layers))
}

// InterLayerCoverage returns the fraction of chainable transitions where
// the producer keeps its ofmap resident (paper Figure 11 parentheses).
func (p *Plan) InterLayerCoverage() float64 {
	if p.ChainableTransitions == 0 {
		return 0
	}
	n := 0
	for i := range p.Layers {
		if p.Layers[i].KeepsResident {
			n++
		}
	}
	return float64(n) / float64(p.ChainableTransitions)
}

// objectiveKey orders estimates lexicographically by (primary, secondary)
// according to the plan objective: Algorithm 1 minimises accesses and
// breaks ties on latency; the latency variant swaps the two.
func objectiveKey(o Objective, e *policy.Result) (int64, int64) {
	if o == MinLatency {
		return e.LatencyCycles, e.AccessElems
	}
	return e.AccessElems, e.LatencyCycles
}

// better reports whether a beats b under the objective.
func better(o Objective, a, b *policy.Result) bool {
	ap, as := objectiveKey(o, a)
	bp, bs := objectiveKey(o, b)
	if ap != bp {
		return ap < bp
	}
	return as < bs
}

// chainable reports whether layer b can consume layer a's ofmap directly
// from the GLB: the tensor shapes must line up exactly.
func chainable(a, b *layer.Layer) bool {
	return a.OH() == b.IH && a.OW() == b.IW && a.CO() == b.CI
}

// countChainable returns the number of chainable transitions in a network.
func countChainable(n *model.Network) int {
	c := 0
	for i := 0; i+1 < len(n.Layers); i++ {
		if chainable(&n.Layers[i], &n.Layers[i+1]) {
			c++
		}
	}
	return c
}

// InfeasibleError reports that a layer cannot be scheduled within the GLB
// even with fallback tiling. It now lives in internal/smmerr so every
// pipeline stage shares one taxonomy; the alias keeps core's historical
// name working (errors.As with either spelling matches the same type).
type InfeasibleError = smmerr.InfeasibleError
