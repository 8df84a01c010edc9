package scratchmem

import (
	"bytes"
	"encoding/json"
	"io"
	"sync"

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
	// Schedule and Tensors are present only for DAG-planned graphs
	// (PlanGraph): the execution order over the source graph's nodes and
	// the tensor-lifetime table with concrete GLB address ranges. Linear
	// plans render byte-identically to documents that predate them.
	Schedule []int            `json:"schedule,omitempty"`
	Tensors  []TensorAllocDoc `json:"tensors,omitempty"`
}

// TensorAllocDoc is one produced tensor's lifetime decision in a DAG plan:
// its live interval in plan positions and, when resident, the GLB byte
// range [base, end) the interval allocator assigned; otherwise the cheaper
// spill strategy ("evict" or "recompute") when the tensor is re-read at all.
type TensorAllocDoc struct {
	Name     string `json:"name"`
	Producer int    `json:"producer"`
	LastUse  int    `json:"last_use"`
	Bytes    int64  `json:"bytes"`
	Resident bool   `json:"resident,omitempty"`
	Base     int64  `json:"base,omitempty"`
	End      int64  `json:"end,omitempty"`
	Spill    string `json:"spill,omitempty"`
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
	if len(p.Schedule) > 0 {
		doc.Schedule = append([]int(nil), p.Schedule...)
	}
	for i := range p.Tensors {
		t := &p.Tensors[i]
		doc.Tensors = append(doc.Tensors, TensorAllocDoc{
			Name: t.Name, Producer: t.Producer, LastUse: t.LastUse,
			Bytes: t.Bytes, Resident: t.Resident, Base: t.Base, End: t.End,
			Spill: t.Spill,
		})
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

// indentBuf recycles MarshalIndent's scratch buffer. The document is
// indented there, then copied into a body of exactly its length: rendered
// bodies live on in the plan cache, where slack capacity would be resident
// memory.
var indentBuf = sync.Pool{New: func() any { return new([]byte) }}

// MarshalIndent renders the document the one canonical way (two-space
// indent, trailing newline) so CLI and server bodies compare byte-equal.
// The bytes are those of json.MarshalIndent(d, "", "  ") plus "\n",
// indented in one pass that trusts json.Marshal's output rather than
// re-validating it.
func (d *PlanDoc) MarshalIndent() ([]byte, error) {
	compact, err := json.Marshal(d)
	if err != nil {
		return nil, err
	}
	bp := indentBuf.Get().(*[]byte)
	buf := append(appendIndent((*bp)[:0], compact), '\n')
	body := make([]byte, len(buf))
	copy(body, buf)
	*bp = buf
	indentBuf.Put(bp)
	return body, nil
}

// appendIndent appends src, compact JSON as json.Marshal writes it, to dst
// with a two-space indent laid out exactly as json.Indent lays it out: a
// newline after each opening bracket and comma and before each closing
// bracket, empty objects and arrays kept as {} and [], one space after
// each colon. Bytes between those punctuation marks are copied in runs.
// Only string and escape state are tracked and nothing is validated, so
// src must be trusted.
func appendIndent(dst, src []byte) []byte {
	depth := 0
	run := 0 // src[run:i] is still to be copied verbatim
	for i := 0; i < len(src); i++ {
		switch src[i] {
		case '"':
			// Jump to the closing quote: the next one not escaped by an
			// odd run of backslashes.
			for {
				i += 1 + bytes.IndexByte(src[i+1:], '"')
				k := i - 1
				for src[k] == '\\' {
					k--
				}
				if (i-1-k)%2 == 0 {
					break
				}
			}
		case '{', '[':
			if c := src[i+1]; c == '}' || c == ']' {
				i++ // empty: copied as is
				continue
			}
			depth++
			dst = appendNewline(append(dst, src[run:i+1]...), depth)
			run = i + 1
		case ',':
			dst = appendNewline(append(dst, src[run:i+1]...), depth)
			run = i + 1
		case ':':
			dst = append(append(dst, src[run:i+1]...), ' ')
			run = i + 1
		case '}', ']':
			depth--
			dst = appendNewline(append(dst, src[run:i]...), depth)
			run = i
		}
	}
	return append(dst, src[run:]...)
}

// appendNewline starts a new line indented depth levels deep.
func appendNewline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for ; depth > 0; depth-- {
		dst = append(dst, "  "...)
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
