package model

import (
	"fmt"
	"strings"

	"scratchmem/internal/layer"
	"scratchmem/internal/smmerr"
)

// ExternalPrefix marks tensor names that no node produces: graph inputs
// streamed from DRAM (the model's image input, or a branch point the source
// format could not express). External tensors have no lifetime in the GLB
// and are continuity wildcards during validation.
const ExternalPrefix = "@"

// IsExternalTensor reports whether a tensor name denotes an external
// (DRAM-resident, producer-less) tensor.
func IsExternalTensor(name string) bool { return strings.HasPrefix(name, ExternalPrefix) }

// GraphNode is one layer of a tensor-lifetime graph. A node consumes the
// named input tensors (channel-concatenated when there are several — the
// inception join), optionally element-wise adds the named residual tensors
// into its input (identity shortcuts; free in the paper's cost model, they
// only extend tensor lifetimes), and produces exactly one tensor named after
// the layer.
type GraphNode struct {
	Layer layer.Layer
	// Inputs names the tensors whose concatenation forms this node's ifmap.
	// Names starting with "@" are external and need no producer.
	Inputs []string
	// Residual names produced tensors added element-wise into this node's
	// ifmap (shortcut connections). They extend the named tensors' lifetimes
	// but carry no MACs or extra DRAM traffic of their own.
	Residual []string
}

// Graph is a tensor-lifetime IR: nodes are layers, edges are named tensors
// with one producer and any number of consumers. Nodes are stored in a
// topological order (Validate enforces it), so a Graph is also directly
// executable front to back. A linear chain is the special case where every
// node consumes exactly its predecessor's output.
type Graph struct {
	Name  string
	Nodes []GraphNode
}

// Chainable reports whether b can consume a's ofmap in place: matching
// spatial dimensions and channel count (the inter-layer reuse condition).
func Chainable(a, b *layer.Layer) bool {
	return a.OH() == b.IH && a.OW() == b.IW && a.CO() == b.CI
}

// ContinuousView reports whether b can read its whole ifmap as a view of
// a's output tensor: the exact chainable match, a pooled or padding-slack
// view (same channels, spatial extent within the continuity slack), or a
// flattened fully-connected read. This is the single-input acceptance rule
// of Graph.Validate, so connecting such a pair always yields a valid edge.
func ContinuousView(a, b *layer.Layer) bool {
	d := dimsOf(a)
	if d.c == b.CI && d.spatialOK(b.IH, b.IW) {
		return true
	}
	return b.IH == 1 && b.IW == 1 && b.CI%d.c == 0 && b.CI/d.c <= d.h*d.w
}

// IsChain reports whether the graph is a linear chain: no residual edges,
// and every produced tensor a node reads is the immediately preceding
// node's output.
func (g *Graph) IsChain() bool {
	for i := range g.Nodes {
		nd := &g.Nodes[i]
		if len(nd.Residual) > 0 {
			return false
		}
		for _, in := range nd.Inputs {
			if IsExternalTensor(in) {
				continue
			}
			if i == 0 || in != g.Nodes[i-1].Layer.Name {
				return false
			}
		}
	}
	return true
}

// tensorDims is a produced tensor's extent plus the producing filter size
// (the padding-slack continuity rule needs it).
type tensorDims struct{ h, w, c, fh, fw int }

func dimsOf(l *layer.Layer) tensorDims {
	return tensorDims{h: l.OH(), w: l.OW(), c: l.CO(), fh: l.FH, fw: l.FW}
}

// spatialOK reports whether a tensor of extent t can feed a consumer
// expecting an ih x iw ifmap. Exact match always passes; a slightly smaller
// tensor passes when the producer's lost padding accounts for the gap
// (SCALE-Sim CSVs drop the padding column, so the recorded ofmap can be up
// to fh-1 rows short); a larger tensor passes as a pooled view (pooling
// layers are weight-free shape changes in the paper's methodology, so the
// consumer legitimately sees fewer rows than the tensor holds).
func (t tensorDims) spatialOK(ih, iw int) bool {
	return t.h+(t.fh-1) >= ih && t.w+(t.fw-1) >= iw
}

// Validate checks the graph end to end: at most MaxLayers nodes, layer
// validity, unique non-external node names, topological order (every produced tensor is read only by later
// nodes), and shape continuity on every edge. Continuity accepts the exact
// match plus three deliberate relaxations matching how real topologies
// serialise: padding slack and pooled views (spatialOK), channel
// concatenation for multi-input joins, and flattened reads (an FC consuming
// h*w*c elements of a spatial tensor). External inputs are wildcards.
// All failures wrap smmerr.ErrBadModel.
func (g *Graph) Validate() error {
	return smmerr.BadModel(g.validate())
}

func (g *Graph) validate() error {
	if g.Name == "" {
		return fmt.Errorf("model: graph has no name")
	}
	if len(g.Nodes) == 0 {
		return fmt.Errorf("model: graph %s has no nodes", g.Name)
	}
	if len(g.Nodes) > MaxLayers {
		return fmt.Errorf("model: graph %s has %d nodes, more than the maximum %d", g.Name, len(g.Nodes), MaxLayers)
	}
	prod := make(map[string]int, len(g.Nodes))
	for i := range g.Nodes {
		nd := &g.Nodes[i]
		if err := nd.Layer.Validate(); err != nil {
			return fmt.Errorf("model: %s node %d: %w", g.Name, i+1, err)
		}
		name := nd.Layer.Name
		if IsExternalTensor(name) {
			return fmt.Errorf("model: %s node %d: layer name %q collides with the external-tensor prefix %q", g.Name, i+1, name, ExternalPrefix)
		}
		if j, dup := prod[name]; dup {
			return fmt.Errorf("model: %s: nodes %d and %d both produce tensor %q", g.Name, j+1, i+1, name)
		}
		prod[name] = i
	}
	for i := range g.Nodes {
		nd := &g.Nodes[i]
		if len(nd.Inputs) == 0 {
			return fmt.Errorf("model: %s node %q has no inputs", g.Name, nd.Layer.Name)
		}
		for _, in := range nd.Inputs {
			if IsExternalTensor(in) {
				continue
			}
			j, ok := prod[in]
			if !ok {
				return fmt.Errorf("model: %s node %q reads unknown tensor %q", g.Name, nd.Layer.Name, in)
			}
			if j >= i {
				return fmt.Errorf("model: %s node %q reads tensor %q before it is produced (nodes must be topologically ordered)", g.Name, nd.Layer.Name, in)
			}
		}
		for _, r := range nd.Residual {
			if IsExternalTensor(r) {
				return fmt.Errorf("model: %s node %q has external residual %q (residuals must be produced tensors)", g.Name, nd.Layer.Name, r)
			}
			j, ok := prod[r]
			if !ok {
				return fmt.Errorf("model: %s node %q adds unknown residual tensor %q", g.Name, nd.Layer.Name, r)
			}
			if j >= i {
				return fmt.Errorf("model: %s node %q adds residual %q before it is produced", g.Name, nd.Layer.Name, r)
			}
		}
		if err := g.checkContinuity(i, prod); err != nil {
			return err
		}
	}
	return nil
}

// checkContinuity validates node i's ifmap against its produced inputs.
func (g *Graph) checkContinuity(i int, prod map[string]int) error {
	nd := &g.Nodes[i]
	l := &nd.Layer
	var sum int
	var dims []tensorDims
	external := false
	for _, in := range nd.Inputs {
		if IsExternalTensor(in) {
			external = true
			continue
		}
		t := dimsOf(&g.Nodes[prod[in]].Layer)
		if !t.spatialOK(l.IH, l.IW) {
			return fmt.Errorf("model: %s node %q expects %dx%d ifmap but input tensor %q is %dx%d",
				g.Name, l.Name, l.IH, l.IW, in, t.h, t.w)
		}
		sum += t.c
		dims = append(dims, t)
	}
	for _, r := range nd.Residual {
		t := dimsOf(&g.Nodes[prod[r]].Layer)
		if t.c != l.CI || !t.spatialOK(l.IH, l.IW) {
			return fmt.Errorf("model: %s node %q (ifmap %dx%dx%d) cannot add residual tensor %q (%dx%dx%d)",
				g.Name, l.Name, l.IH, l.IW, l.CI, r, t.h, t.w, t.c)
		}
	}
	switch {
	case len(dims) == 0:
		return nil // purely external input: wildcard
	case sum == l.CI:
		return nil // exact channels (single tensor or concatenation)
	case external:
		return nil // mixed with externals: channel total unknowable
	case len(dims) == 1 && l.CI%dims[0].c == 0 && l.CI/dims[0].c <= dims[0].h*dims[0].w:
		return nil // flattened read: CI = (pooled) h*w*c of the input
	}
	return fmt.Errorf("model: %s node %q expects %d input channels but its input tensors carry %d",
		g.Name, l.Name, l.CI, sum)
}
