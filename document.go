package scratchmem

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"

	"scratchmem/internal/model"
	"scratchmem/internal/policy"
)

// ConfigDoc is the JSON form of a Config, shared by the smm-serve API and
// cmd/smm-plan -json. Field order is fixed, so marshalling is
// deterministic.
type ConfigDoc struct {
	GLBBytes          int64 `json:"glb_bytes"`
	DataWidthBits     int   `json:"data_width_bits"`
	OpsPerCycle       int   `json:"ops_per_cycle"`
	DRAMBytesPerCycle int   `json:"dram_bytes_per_cycle"`
	IncludePadding    bool  `json:"include_padding"`
	Batch             int   `json:"batch,omitempty"`
}

// NewConfigDoc converts an accelerator Config to its document form.
// Batch 1 is normalised to the zero value (the two mean the same single
// inference, see Config.BatchSize) so equivalent configs render
// identically.
func NewConfigDoc(c Config) ConfigDoc {
	if c.Batch == 1 {
		c.Batch = 0
	}
	return ConfigDoc{
		GLBBytes:          c.GLBBytes,
		DataWidthBits:     c.DataWidthBits,
		OpsPerCycle:       c.OpsPerCycle,
		DRAMBytesPerCycle: c.DRAMBytesPerCycle,
		IncludePadding:    c.IncludePadding,
		Batch:             c.Batch,
	}
}

// ToConfig converts the document form back to a Config.
func (d ConfigDoc) ToConfig() Config {
	return Config{
		GLBBytes:          d.GLBBytes,
		DataWidthBits:     d.DataWidthBits,
		OpsPerCycle:       d.OpsPerCycle,
		DRAMBytesPerCycle: d.DRAMBytesPerCycle,
		IncludePadding:    d.IncludePadding,
		Batch:             d.Batch,
	}
}

// LayerPlanDoc is one layer's decision in a PlanDoc.
type LayerPlanDoc struct {
	Name             string `json:"name"`
	Policy           string `json:"policy"` // short label: intra, p1..p5, fb
	Prefetch         bool   `json:"prefetch"`
	N                int    `json:"n,omitempty"` // P4/P5 filter-block size
	MemoryBytes      int64  `json:"memory_bytes"`
	AccessElems      int64  `json:"access_elems"`
	AccessBytes      int64  `json:"access_bytes"`
	LatencyCycles    int64  `json:"latency_cycles"`
	ConsumesResident bool   `json:"consumes_resident,omitempty"`
	KeepsResident    bool   `json:"keeps_resident,omitempty"`
}

// PlanTotalsDoc aggregates a plan's whole-network figures.
type PlanTotalsDoc struct {
	AccessElems    int64 `json:"access_elems"`
	AccessBytes    int64 `json:"access_bytes"`
	LatencyCycles  int64 `json:"latency_cycles"`
	MaxMemoryBytes int64 `json:"max_memory_bytes"`
}

// PlanDoc is the canonical serialisable form of a Plan — the document
// POST /v1/plan returns and cmd/smm-plan -json prints, byte-identical
// between the two for the same request.
type PlanDoc struct {
	Model                string         `json:"model"`
	Scheme               string         `json:"scheme"`
	Objective            string         `json:"objective"`
	Config               ConfigDoc      `json:"config"`
	Layers               []LayerPlanDoc `json:"layers"`
	Totals               PlanTotalsDoc  `json:"totals"`
	PolicyMix            []string       `json:"policy_mix"`
	PrefetchCoverage     float64        `json:"prefetch_coverage"`
	InterLayerCoverage   float64        `json:"interlayer_coverage"`
	ChainableTransitions int            `json:"chainable_transitions"`
	Feasible             bool           `json:"feasible"`
	// Degraded fields are present only when the requested policy set was
	// infeasible and the plan comes from the degradation ladder; feasible
	// requests render byte-identically to documents that predate them.
	Degraded        bool                `json:"degraded,omitempty"`
	DegradedMode    string              `json:"degraded_mode,omitempty"`
	DegradedReasons []DegradedReasonDoc `json:"degraded_reasons,omitempty"`
}

// DegradedReasonDoc is one failed ladder rung in a PlanDoc's reason chain.
type DegradedReasonDoc struct {
	Mode  string `json:"mode"`
	Error string `json:"error"`
}

// PlanDocument converts a Plan into its document form.
func PlanDocument(p *Plan) *PlanDoc {
	doc := &PlanDoc{
		Model:     p.Model,
		Scheme:    p.Scheme,
		Objective: p.Objective.String(),
		Config:    NewConfigDoc(p.Cfg),
		Layers:    make([]LayerPlanDoc, len(p.Layers)),
		Totals: PlanTotalsDoc{
			AccessElems:    p.AccessElems(),
			AccessBytes:    p.AccessBytes(),
			LatencyCycles:  p.LatencyCycles(),
			MaxMemoryBytes: p.MaxMemoryBytes(),
		},
		PolicyMix:            p.PolicyMix(),
		PrefetchCoverage:     p.PrefetchCoverage(),
		InterLayerCoverage:   p.InterLayerCoverage(),
		ChainableTransitions: p.ChainableTransitions,
		Feasible:             p.Feasible(),
		Degraded:             p.Degraded,
		DegradedMode:         p.DegradedMode,
	}
	for _, r := range p.DegradedReasons {
		doc.DegradedReasons = append(doc.DegradedReasons, DegradedReasonDoc{Mode: r.Mode, Error: r.Err})
	}
	for i := range p.Layers {
		lp := &p.Layers[i]
		n := 0
		if lp.Est.Policy == policy.P4PartialIfmap || lp.Est.Policy == policy.P5PartialPerChannel {
			n = lp.Est.N
		}
		doc.Layers[i] = LayerPlanDoc{
			Name:             lp.Layer.Name,
			Policy:           lp.Est.Policy.Short(),
			Prefetch:         lp.Est.Opts.Prefetch,
			N:                n,
			MemoryBytes:      lp.Est.MemoryBytes,
			AccessElems:      lp.Est.AccessElems,
			AccessBytes:      lp.Est.AccessBytes,
			LatencyCycles:    lp.Est.LatencyCycles,
			ConsumesResident: lp.ConsumesResident,
			KeepsResident:    lp.KeepsResident,
		}
	}
	return doc
}

// renderBuf recycles MarshalIndent's scratch buffer. The document is
// written there, then copied into a body of exactly its length: rendered
// bodies live on in the plan cache, where slack capacity would be resident
// memory.
var renderBuf = sync.Pool{New: func() any { return new([]byte) }}

// MarshalIndent renders the document the one canonical way (two-space
// indent, trailing newline) so CLI and server bodies compare byte-equal.
// The bytes are those of json.MarshalIndent(d, "", "  ") plus "\n",
// written in one pass by an encoder for this schema. NaN and ±Inf have no
// JSON form, so a document carrying one is an error, as it is for
// encoding/json.
func (d *PlanDoc) MarshalIndent() ([]byte, error) {
	for _, x := range [...]float64{d.PrefetchCoverage, d.InterLayerCoverage} {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("scratchmem: plan document: unsupported value %v", x)
		}
	}
	bp := renderBuf.Get().(*[]byte)
	buf := append(d.appendIndented((*bp)[:0]), '\n')
	body := make([]byte, len(buf))
	copy(body, buf)
	*bp = buf
	renderBuf.Put(bp)
	return body, nil
}

// A new line at each indent depth of the canonical layout: nl1 starts the
// document's members, nl2 the array elements and the members of config and
// totals, nl3 the members of array elements.
const (
	nl1 = "\n  "
	nl2 = "\n    "
	nl3 = "\n      "
)

// appendIndented appends d in the canonical layout without the trailing
// newline. Each member is written after its constant prefix, the comma,
// line break, indent and name; members follow the struct tags, omitempty
// and a nil slice as null included. TestPlanDocSchemaGuard fails when a
// document struct gains a field this encoder does not write.
func (d *PlanDoc) appendIndented(dst []byte) []byte {
	dst = appendString(dst, "{"+nl1+`"model": `, d.Model)
	dst = appendString(dst, ","+nl1+`"scheme": `, d.Scheme)
	dst = appendString(dst, ","+nl1+`"objective": `, d.Objective)
	c := &d.Config
	dst = appendInt(dst, ","+nl1+`"config": {`+nl2+`"glb_bytes": `, c.GLBBytes)
	dst = appendInt(dst, ","+nl2+`"data_width_bits": `, int64(c.DataWidthBits))
	dst = appendInt(dst, ","+nl2+`"ops_per_cycle": `, int64(c.OpsPerCycle))
	dst = appendInt(dst, ","+nl2+`"dram_bytes_per_cycle": `, int64(c.DRAMBytesPerCycle))
	dst = appendBool(dst, ","+nl2+`"include_padding": `, c.IncludePadding)
	if c.Batch != 0 {
		dst = appendInt(dst, ","+nl2+`"batch": `, int64(c.Batch))
	}
	dst = appendArray(append(dst, nl1+"},"+nl1+`"layers": `...), d.Layers, appendLayerDoc)
	t := &d.Totals
	dst = appendInt(dst, ","+nl1+`"totals": {`+nl2+`"access_elems": `, t.AccessElems)
	dst = appendInt(dst, ","+nl2+`"access_bytes": `, t.AccessBytes)
	dst = appendInt(dst, ","+nl2+`"latency_cycles": `, t.LatencyCycles)
	dst = appendInt(dst, ","+nl2+`"max_memory_bytes": `, t.MaxMemoryBytes)
	dst = appendArray(append(dst, nl1+"},"+nl1+`"policy_mix": `...), d.PolicyMix,
		func(dst []byte, s *string) []byte { return model.AppendJSONString(dst, *s) })
	dst = appendFloat(dst, ","+nl1+`"prefetch_coverage": `, d.PrefetchCoverage)
	dst = appendFloat(dst, ","+nl1+`"interlayer_coverage": `, d.InterLayerCoverage)
	dst = appendInt(dst, ","+nl1+`"chainable_transitions": `, int64(d.ChainableTransitions))
	dst = appendBool(dst, ","+nl1+`"feasible": `, d.Feasible)
	if d.Degraded {
		dst = append(dst, ","+nl1+`"degraded": true`...)
	}
	if d.DegradedMode != "" {
		dst = appendString(dst, ","+nl1+`"degraded_mode": `, d.DegradedMode)
	}
	if len(d.DegradedReasons) > 0 {
		dst = appendArray(append(dst, ","+nl1+`"degraded_reasons": `...), d.DegradedReasons, appendReasonDoc)
	}
	return append(dst, "\n}"...)
}

func appendLayerDoc(dst []byte, l *LayerPlanDoc) []byte {
	dst = appendString(dst, "{"+nl3+`"name": `, l.Name)
	dst = appendString(dst, ","+nl3+`"policy": `, l.Policy)
	dst = appendBool(dst, ","+nl3+`"prefetch": `, l.Prefetch)
	if l.N != 0 {
		dst = appendInt(dst, ","+nl3+`"n": `, int64(l.N))
	}
	dst = appendInt(dst, ","+nl3+`"memory_bytes": `, l.MemoryBytes)
	dst = appendInt(dst, ","+nl3+`"access_elems": `, l.AccessElems)
	dst = appendInt(dst, ","+nl3+`"access_bytes": `, l.AccessBytes)
	dst = appendInt(dst, ","+nl3+`"latency_cycles": `, l.LatencyCycles)
	if l.ConsumesResident {
		dst = append(dst, ","+nl3+`"consumes_resident": true`...)
	}
	if l.KeepsResident {
		dst = append(dst, ","+nl3+`"keeps_resident": true`...)
	}
	return append(dst, nl2+"}"...)
}

func appendReasonDoc(dst []byte, r *DegradedReasonDoc) []byte {
	dst = appendString(dst, "{"+nl3+`"mode": `, r.Mode)
	dst = appendString(dst, ","+nl3+`"error": `, r.Error)
	return append(dst, nl2+"}"...)
}

// appendArray appends s as the value of a document member: null when nil,
// [] when empty, else each element on its own line at depth 2, written by
// elem.
func appendArray[T any](dst []byte, s []T, elem func([]byte, *T) []byte) []byte {
	switch {
	case s == nil:
		return append(dst, "null"...)
	case len(s) == 0:
		return append(dst, "[]"...)
	}
	dst = append(dst, '[')
	for i := range s {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = elem(append(dst, nl2...), &s[i])
	}
	return append(dst, nl1+"]"...)
}

func appendString(dst []byte, prefix, s string) []byte {
	return model.AppendJSONString(append(dst, prefix...), s)
}

func appendInt(dst []byte, prefix string, v int64) []byte {
	return strconv.AppendInt(append(dst, prefix...), v, 10)
}

func appendBool(dst []byte, prefix string, b bool) []byte {
	return strconv.AppendBool(append(dst, prefix...), b)
}

// appendFloat appends a finite x as encoding/json writes a float64: the
// shortest 'f' form, or 'e' below 1e-6 and from 1e21 up in magnitude, with
// a one-digit negative exponent unpadded (1e-7, not 1e-07).
func appendFloat(dst []byte, prefix string, x float64) []byte {
	dst = append(dst, prefix...)
	format := byte('f')
	if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, x, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// Encode writes the canonical rendering to w.
func (d *PlanDoc) Encode(w io.Writer) error {
	b, err := d.MarshalIndent()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}
