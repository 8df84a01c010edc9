package model

import (
	"encoding/json"
	"fmt"
	"io"

	"scratchmem/internal/layer"
	"scratchmem/internal/smmerr"
)

// inferTensor tracks one produced tensor while reconstructing a graph from
// a linear layer list. consumed marks tensors already read at (roughly)
// full resolution, so later same-channel readers prefer fresher tensors;
// pooled views never consume (the tensor is still live for exact readers).
type inferTensor struct {
	name     string
	dims     tensorDims
	consumed bool
}

// retypeableDW reports whether a layer looks like a depth-wise convolution
// flattened by the SCALE-Sim CSV format, which has no type column and
// writes DW filters as Num Filter = 1: a spatial convolution claiming a
// single output channel over a multi-channel ifmap.
func retypeableDW(l *layer.Layer) bool {
	return l.Kind == layer.Conv && l.F == 1 && l.CI > 1 && (l.FH > 1 || l.FW > 1)
}

// InferGraph reconstructs the tensor graph of a serialised layer list:
// which tensor each layer reads, recovering branches (several readers of
// one tensor), inception-style concatenations (a reader whose channel count
// is the sum of several live tensors) and flattened FC reads. It also
// repairs the CSV format's depth-wise flattening by retyping
// single-filter spatial convolutions whose successor consumes CI channels.
// The input network is not modified; the returned graph owns retyped layer
// copies. Layers whose ifmap cannot be matched to any produced tensor are
// a continuity violation and yield an error wrapping smmerr.ErrBadModel —
// except the first layer, which always reads the external model input.
func InferGraph(n *Network) (*Graph, error) {
	g, err := inferGraph(n)
	if err != nil {
		return nil, smmerr.BadModel(err)
	}
	return g, nil
}

func inferGraph(n *Network) (*Graph, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	layers := make([]layer.Layer, len(n.Layers))
	copy(layers, n.Layers)
	g := &Graph{Name: n.Name, Nodes: make([]GraphNode, len(layers))}
	st := &inferState{}
	for i := range layers {
		l := &layers[i]
		inputs, err := st.matchProducers(layers, i)
		if err != nil {
			return nil, fmt.Errorf("model: %s: %w", n.Name, err)
		}
		g.Nodes[i] = GraphNode{Inputs: inputs}
		st.avail = append(st.avail, &inferTensor{name: l.Name, dims: dimsOf(l)})
	}
	// Copy the layers only now: a retype mutates layers[i-1] while matching
	// node i, after node i-1 was visited.
	for i := range layers {
		g.Nodes[i].Layer = layers[i]
	}
	// The retype changes output shapes, so re-check the result end to end.
	if err := g.validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// inferState is the working set of the producer-inference walk: the
// produced tensors and the concatenation groups already discovered.
type inferState struct {
	avail  []*inferTensor
	groups [][]*inferTensor
}

// matchProducers resolves layer i's input tensors against the produced set,
// trying in order: the depth-wise retype of the immediately preceding row,
// a single tensor match, a fresh channel concatenation over the unconsumed
// tensors, a re-read of an already-discovered concatenation group, and a
// flattened read. It may retype layers[i-1] in place and marks matched
// tensors consumed when read at full resolution.
func (st *inferState) matchProducers(layers []layer.Layer, i int) ([]string, error) {
	l := &layers[i]
	if len(st.avail) == 0 {
		return []string{ExternalPrefix + "in0"}, nil
	}
	// Depth-wise repair first: the as-written previous row produces one
	// channel, but this row wants the full CI back — the signature of a DW
	// layer flattened by the format. Generic matching would skip past the
	// DW row to an older tensor and mis-wire the chain.
	prev := &layers[i-1]
	if retypeableDW(prev) && l.CI > 1 && prev.CI == l.CI {
		prev.Kind = layer.DepthwiseConv
		t := st.avail[len(st.avail)-1]
		t.dims = dimsOf(prev)
		if t.dims.spatialOK(l.IH, l.IW) {
			if t.dims.h <= l.IH {
				t.consumed = true
			}
			return []string{t.name}, nil
		}
		// Retype stands (the layer is a DW either way) but the edge must be
		// found elsewhere; fall through.
	}
	if t := st.matchSingle(l); t != nil {
		if t.dims.h <= l.IH {
			t.consumed = true
		}
		return []string{t.name}, nil
	}
	if group := st.matchConcat(l); group != nil {
		names := make([]string, len(group))
		for i, t := range group {
			names[i] = t.name
		}
		return names, nil
	}
	if t := st.matchFlatten(l); t != nil {
		t.consumed = true
		return []string{t.name}, nil
	}
	return nil, fmt.Errorf("layer %d (%s): no produced tensor matches its %dx%dx%d ifmap (shape continuity violated)",
		i+1, l.Name, l.IH, l.IW, l.CI)
}

// matchSingle finds the freshest tensor carrying exactly l's input
// channels, preferring unconsumed tensors so branch readers bind to the
// branch point rather than a stale same-shaped tensor.
func (st *inferState) matchSingle(l *layer.Layer) *inferTensor {
	for _, consumedOK := range []bool{false, true} {
		for j := len(st.avail) - 1; j >= 0; j-- {
			t := st.avail[j]
			if t.consumed && !consumedOK {
				continue
			}
			if t.dims.c == l.CI && t.dims.spatialOK(l.IH, l.IW) {
				return t
			}
		}
	}
	return nil
}

// matchConcat resolves an inception-style join, where l.CI is the channel
// sum of several sibling branch outputs. Serialised branch outputs are the
// freshest unconsumed tensors, so a fresh group accumulates every eligible
// unconsumed tensor newest-first and must hit the sum exactly — overshoot
// or exhaustion means the fresh tensors are not this layer's input, and the
// reader is instead re-reading a previously discovered group (the other
// parallel branches of the same module). Fresh groups are registered and
// their members consumed so sibling branches cannot leak into each other.
func (st *inferState) matchConcat(l *layer.Layer) []*inferTensor {
	remaining := l.CI
	var group []*inferTensor
	for j := len(st.avail) - 1; j >= 0 && remaining > 0; j-- {
		t := st.avail[j]
		if t.consumed || !t.dims.spatialOK(l.IH, l.IW) {
			continue
		}
		if t.dims.c > remaining {
			group = nil
			break
		}
		group = append(group, t)
		remaining -= t.dims.c
	}
	if remaining == 0 && len(group) >= 2 {
		// Reverse into production order for a deterministic edge list.
		for a, b := 0, len(group)-1; a < b; a, b = a+1, b-1 {
			group[a], group[b] = group[b], group[a]
		}
		for _, t := range group {
			t.consumed = true
		}
		st.groups = append(st.groups, group)
		return group
	}
	// Re-read of a known group: latest-registered first.
	for j := len(st.groups) - 1; j >= 0; j-- {
		g := st.groups[j]
		sum := 0
		ok := true
		for _, t := range g {
			if !t.dims.spatialOK(l.IH, l.IW) {
				ok = false
				break
			}
			sum += t.dims.c
		}
		if ok && sum == l.CI {
			return g
		}
	}
	return nil
}

// matchFlatten finds a tensor an FC layer reads flattened: l.CI equals the
// tensor's (possibly pooled) h*w*c volume, i.e. CI is a multiple of the
// tensor's channels and the multiplier fits its spatial extent.
func (st *inferState) matchFlatten(l *layer.Layer) *inferTensor {
	if l.IH != 1 || l.IW != 1 {
		return nil
	}
	for _, consumedOK := range []bool{false, true} {
		for j := len(st.avail) - 1; j >= 0; j-- {
			t := st.avail[j]
			if t.consumed && !consumedOK {
				continue
			}
			if l.CI%t.dims.c == 0 && l.CI/t.dims.c <= t.dims.h*t.dims.w {
				return t
			}
		}
	}
	return nil
}

// ReadTopologyGraphCSV parses a SCALE-Sim topology CSV directly into the
// graph IR: producers inferred per InferGraph, depth-wise layers recovered
// from their flattened Num Filter = 1 encoding. Malformed rows and shape
// discontinuities yield errors wrapping smmerr.ErrBadModel.
func ReadTopologyGraphCSV(name string, r io.Reader) (*Graph, error) {
	n, err := ReadTopologyCSV(name, r)
	if err != nil {
		return nil, err
	}
	return InferGraph(n)
}

// jsonGraphLayer is one layer of the Network JSON format plus the optional
// edge columns. Legacy files without edges load as linear chains.
type jsonGraphLayer struct {
	Name     string   `json:"name"`
	Type     string   `json:"type"`
	IH       int      `json:"ih"`
	IW       int      `json:"iw"`
	CI       int      `json:"ci"`
	FH       int      `json:"fh"`
	FW       int      `json:"fw"`
	F        int      `json:"f"`
	S        int      `json:"s"`
	P        int      `json:"p"`
	Inputs   []string `json:"inputs,omitempty"`
	Residual []string `json:"residual,omitempty"`
}

type jsonGraph struct {
	Name   string           `json:"name"`
	Layers []jsonGraphLayer `json:"layers"`
}

// ReadGraphJSON parses a graph from JSON. The edge columns are optional:
// when no layer declares inputs the file is a legacy linear network and the
// chain is inferred (continuous neighbours connect, everything else reads
// an external tensor). When some layers declare
// edges, undeclared layers get the same chain inference individually. The
// result is validated; failures wrap smmerr.ErrBadModel.
func ReadGraphJSON(r io.Reader) (*Graph, error) {
	var jg jsonGraph
	if err := json.NewDecoder(r).Decode(&jg); err != nil {
		return nil, smmerr.BadModel(fmt.Errorf("model: decoding graph JSON: %w", err))
	}
	g := &Graph{Name: jg.Name, Nodes: make([]GraphNode, len(jg.Layers))}
	ext := 0
	for i, jl := range jg.Layers {
		kind, err := layer.ParseType(jl.Type)
		if err != nil {
			return nil, smmerr.BadModel(fmt.Errorf("model: layer %d (%s): %w", i+1, jl.Name, err))
		}
		l, err := layer.New(jl.Name, kind, jl.IH, jl.IW, jl.CI, jl.FH, jl.FW, jl.F, jl.S, jl.P)
		if err != nil {
			return nil, smmerr.BadModel(err)
		}
		g.Nodes[i] = GraphNode{Layer: l, Inputs: jl.Inputs, Residual: jl.Residual}
	}
	for i := range g.Nodes {
		if len(g.Nodes[i].Inputs) > 0 {
			continue
		}
		if i > 0 && ContinuousView(&g.Nodes[i-1].Layer, &g.Nodes[i].Layer) {
			g.Nodes[i].Inputs = []string{g.Nodes[i-1].Layer.Name}
		} else {
			g.Nodes[i].Inputs = []string{fmt.Sprintf("%sin%d", ExternalPrefix, ext)}
			ext++
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}
