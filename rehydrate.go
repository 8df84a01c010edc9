package scratchmem

import (
	"bytes"
	"errors"
	"fmt"

	"scratchmem/internal/core"
	"scratchmem/internal/layer"
	"scratchmem/internal/model"
	"scratchmem/internal/policy"
)

// ParseObjective is the inverse of Objective.String: it maps the document
// form ("accesses", "latency") back to an Objective.
func ParseObjective(s string) (Objective, error) {
	switch s {
	case "accesses":
		return MinAccesses, nil
	case "latency":
		return MinLatency, nil
	}
	return 0, fmt.Errorf("scratchmem: unknown objective %q (want accesses or latency)", s)
}

// RehydratePlan rebuilds an executable *Plan from its document and the
// network it was planned for. It renders doc and verifies the rendering
// through VerifyPlanDocument, so it accepts exactly the documents this
// build would render for the plan their decisions rebuild: a figure,
// total, name or flag this build's estimators would not have produced is
// refused, as is a degraded document.
func RehydratePlan(net *Network, doc *PlanDoc) (*Plan, error) {
	if doc == nil {
		return nil, fmt.Errorf("scratchmem: nil plan document")
	}
	body, err := doc.MarshalIndent()
	if err != nil {
		return nil, err
	}
	p, _, err := VerifyPlanDocument(net, body)
	return p, err
}

// VerifyPlanDocument is the document seam of RehydratePlan and, in its
// compact form, of snapshot restore. body is a plan document as some build
// rendered it (PlanDoc.MarshalIndent's bytes, a /v1/plan body).
// A document stores per-layer decisions (policy, prefetch, block size,
// resident flags) next to figures the deterministic estimators derive from
// them, so only the decisions are decoded: the scheme, objective and
// config and each layer's decisions. The plan is rebuilt from them for net
// and rendered, and the document is accepted only when that rendering is
// body, byte for byte. One compare thereby checks every figure, total,
// name and flag, and a document from another build or a corrupted one is
// refused, never served; so is a member this build does not render.
//
// The plan and its rendering (equal to body, in a buffer of its own) are
// returned. Degraded documents are refused: their fallback rungs are not
// decision-reproducible, so a receiver recomputes them instead.
func VerifyPlanDocument(net *Network, body []byte) (*Plan, []byte, error) {
	return verifyDocument(net, body, false)
}

// VerifyCompactPlanDocument is VerifyPlanDocument for a document in the
// compact form a snapshot record carries: the rendering with the white
// space outside strings removed (model.AppendCompact). The returned
// rendering is still the indented one.
func VerifyCompactPlanDocument(net *Network, doc []byte) (*Plan, []byte, error) {
	return verifyDocument(net, doc, true)
}

func verifyDocument(net *Network, doc []byte, compact bool) (*Plan, []byte, error) {
	d := planDecisions{layers: make([]layerDecision, 0, len(net.Layers))}
	if err := d.decode(doc, len(net.Layers)); err != nil {
		return nil, nil, err
	}
	p, err := d.rebuild(net)
	if err != nil {
		return nil, nil, err
	}
	body, err := PlanDocument(p).MarshalIndent()
	if err != nil {
		return nil, nil, err
	}
	want := body
	if compact {
		bp := renderBuf.Get().(*[]byte)
		defer renderBuf.Put(bp)
		*bp = model.AppendCompact((*bp)[:0], body)
		want = *bp
	}
	if !bytes.Equal(doc, want) {
		i := 0
		for i < len(doc) && i < len(want) && doc[i] == want[i] {
			i++
		}
		return nil, nil, fmt.Errorf("scratchmem: document differs at byte %d from this build's rendering of its decisions "+
			"(%q, want %q): version skew or corruption", i, excerpt(doc, i), excerpt(want, i))
	}
	return p, body, nil
}

// excerpt returns up to 24 bytes of b from i on.
func excerpt(b []byte, i int) []byte { return b[i:min(len(b), i+24)] }

// planDecisions is what a plan document decides, as opposed to the figures
// it reports: everything a rebuild needs.
type planDecisions struct {
	scheme, objective string
	config            ConfigDoc
	layers            []layerDecision
	degraded          bool
	err               error
}

// layerDecision is one layer's decisions.
type layerDecision struct {
	policy                    policy.ID // -1 until read
	n                         int64
	prefetch, consumes, keeps bool
}

// fail records the first decode error.
func (d *planDecisions) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("scratchmem: plan document: "+format, args...)
	}
}

// decode reads the decisions of the document in data, which may describe
// at most maxLayers layers. Members it does not read are skipped, still
// validated as JSON: the rendering compare covers them.
func (d *planDecisions) decode(data []byte, maxLayers int) error {
	rd := model.NewJSONReader(data)
	if !rd.Object() {
		if err := rd.Err(); err != nil {
			return fmt.Errorf("scratchmem: plan document: %w", err)
		}
		return errors.New("scratchmem: plan document: not a JSON object")
	}
	for key, ok := rd.Member(); ok; key, ok = rd.Member() {
		switch string(key) {
		case "scheme":
			d.scheme = d.str(rd, "scheme")
		case "objective":
			d.objective = d.str(rd, "objective")
		case "config":
			d.decodeConfig(rd)
		case "layers":
			d.decodeLayers(rd, maxLayers)
		case "degraded":
			d.degraded = d.bool(rd, "degraded")
		default:
			rd.Skip()
		}
	}
	if err := rd.Err(); err != nil {
		return fmt.Errorf("scratchmem: plan document: %w", err)
	}
	return d.err
}

func (d *planDecisions) str(rd *model.JSONReader, member string) string {
	s, ok := rd.String()
	if !ok {
		d.fail("%q must be a string", member)
	}
	return s
}

func (d *planDecisions) bool(rd *model.JSONReader, member string) bool {
	b, ok := rd.Bool()
	if !ok {
		d.fail("%q must be a boolean", member)
	}
	return b
}

func (d *planDecisions) int(rd *model.JSONReader, member string) int64 {
	v, ok := rd.Int()
	if !ok {
		d.fail("%q must be an integer", member)
	}
	return v
}

func (d *planDecisions) decodeConfig(rd *model.JSONReader) {
	if !rd.Object() {
		d.fail(`"config" must be an object`)
		return
	}
	c := &d.config
	for key, ok := rd.Member(); ok; key, ok = rd.Member() {
		switch string(key) {
		case "glb_bytes":
			c.GLBBytes = d.int(rd, "glb_bytes")
		case "data_width_bits":
			c.DataWidthBits = int(d.int(rd, "data_width_bits"))
		case "ops_per_cycle":
			c.OpsPerCycle = int(d.int(rd, "ops_per_cycle"))
		case "dram_bytes_per_cycle":
			c.DRAMBytesPerCycle = int(d.int(rd, "dram_bytes_per_cycle"))
		case "include_padding":
			c.IncludePadding = d.bool(rd, "include_padding")
		case "batch":
			c.Batch = int(d.int(rd, "batch"))
		default:
			rd.Skip()
		}
	}
}

func (d *planDecisions) decodeLayers(rd *model.JSONReader, maxLayers int) {
	if !rd.Array() {
		d.fail(`"layers" must be an array`)
		return
	}
	for rd.Elem() {
		if len(d.layers) == maxLayers {
			d.fail("more than the network's %d layers", maxLayers)
			rd.Skip()
			continue
		}
		d.layers = append(d.layers, layerDecision{policy: -1})
		ld := &d.layers[len(d.layers)-1]
		if !rd.Object() {
			d.fail("layer %d must be an object", len(d.layers)-1)
			continue
		}
		for key, ok := rd.Member(); ok; key, ok = rd.Member() {
			switch string(key) {
			case "policy":
				b, ok := rd.Bytes()
				if !ok {
					d.fail(`"policy" must be a string`)
					continue
				}
				if id, ok := policy.ShortID(string(b)); ok {
					ld.policy = id
				} else {
					d.fail("layer %d: unknown policy %q", len(d.layers)-1, b)
				}
			case "prefetch":
				ld.prefetch = d.bool(rd, "prefetch")
			case "n":
				ld.n = d.int(rd, "n")
			case "consumes_resident":
				ld.consumes = d.bool(rd, "consumes_resident")
			case "keeps_resident":
				ld.keeps = d.bool(rd, "keeps_resident")
			default:
				rd.Skip()
			}
		}
	}
}

// rebuild recomputes the plan the decisions describe for net: every
// figure through the estimators, every name from the network.
func (d *planDecisions) rebuild(net *Network) (*Plan, error) {
	if d.degraded {
		return nil, errors.New("scratchmem: cannot rehydrate a degraded plan: recompute locally")
	}
	if len(d.layers) != len(net.Layers) {
		return nil, fmt.Errorf("scratchmem: document has %d layers, network %s has %d", len(d.layers), net.Name, len(net.Layers))
	}
	obj, err := ParseObjective(d.objective)
	if err != nil {
		return nil, err
	}
	cfg := d.config.ToConfig()
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("scratchmem: document config: %w", err)
	}
	p := &Plan{
		Model:     net.Name,
		Cfg:       cfg,
		Objective: obj,
		Scheme:    d.scheme,
		Layers:    make([]core.LayerPlan, len(net.Layers)),
	}
	for i := range p.Layers {
		l := &net.Layers[i]
		est, err := estimateDecision(l, &d.layers[i], cfg)
		if err != nil {
			return nil, fmt.Errorf("scratchmem: layer %s: %w", l.Name, err)
		}
		p.Layers[i] = core.LayerPlan{
			Layer:            *l,
			Est:              est,
			ConsumesResident: d.layers[i].consumes,
			KeepsResident:    d.layers[i].keeps,
		}
		if i > 0 && model.Chainable(&p.Layers[i-1].Layer, l) {
			p.ChainableTransitions++
		}
	}
	return p, nil
}

// estimateDecision re-derives one layer's estimate from its decisions. The
// block size must be one the planner can choose (policy.EstimateN refuses
// any other), and policies other than P4 and P5 carry none.
func estimateDecision(l *layer.Layer, ld *layerDecision, cfg Config) (policy.Result, error) {
	if ld.policy < 0 {
		return policy.Result{}, errors.New(`no "policy"`)
	}
	o := policy.Options{Prefetch: ld.prefetch, ResidentIfmap: ld.consumes, KeepOfmap: ld.keeps}
	var est policy.Result
	switch ld.policy {
	case policy.P4PartialIfmap, policy.P5PartialPerChannel:
		var err error
		if est, err = policy.EstimateN(l, ld.policy, o, cfg, ld.n); err != nil {
			return est, err
		}
	default:
		if ld.n != 0 {
			return est, fmt.Errorf("policy %s has no block size, but the document sets n = %d", ld.policy.Short(), ld.n)
		}
		if ld.policy == policy.FallbackTiled {
			// Per-layer fallback tiling (paper §3.3) is a regular rung of
			// non-degraded plans: when none of the six policies fits a
			// layer, the planner tiles it minimally.
			est = policy.FallbackEstimate(l, o, cfg)
		} else {
			est = policy.Estimate(l, ld.policy, o, cfg)
		}
	}
	if !est.Feasible {
		return est, fmt.Errorf("%s needs %d B of a %d B GLB", ld.policy.Short(), est.MemoryBytes, cfg.GLBBytes)
	}
	return est, nil
}
