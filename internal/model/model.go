// Package model represents whole neural networks as ordered lists of layers
// (the paper executes models layer-by-layer, serialising residual branches),
// provides builders for the six CNNs of the paper's Table 2, and reads and
// writes two on-disk descriptions: a JSON format and the SCALE-Sim topology
// CSV format, standing in for the paper's TensorFlow/PyTorch translator.
package model

import (
	"fmt"
	"slices"
	"sync"

	"scratchmem/internal/layer"
)

// Network is an ordered sequence of layers executed one after another.
type Network struct {
	Name   string
	Layers []layer.Layer
}

// MaxLayers bounds the layers of a network, so that a plan's totals, sums
// of per-layer estimates each within the layer package's maxima, fit in
// int64 (DESIGN §5).
const MaxLayers = 1 << 12

// Validate checks every layer and that the network has at least one and at
// most MaxLayers.
func (n *Network) Validate() error {
	if err := n.validateNetwork(); err != nil {
		return err
	}
	for i := range n.Layers {
		if err := n.Layers[i].Validate(); err != nil {
			return fmt.Errorf("model: %s layer %d: %w", n.Name, i+1, err)
		}
	}
	return nil
}

// validateNetwork checks Validate's network-wide rules: the name and the
// number of layers.
func (n *Network) validateNetwork() error {
	if n.Name == "" {
		return fmt.Errorf("model: network has no name")
	}
	if len(n.Layers) == 0 {
		return fmt.Errorf("model: network %s has no layers", n.Name)
	}
	if len(n.Layers) > MaxLayers {
		return fmt.Errorf("model: network %s has %d layers, more than the maximum %d", n.Name, len(n.Layers), MaxLayers)
	}
	return nil
}

// TypeCounts returns how many layers of each type the network has.
func (n *Network) TypeCounts() map[layer.Type]int {
	c := make(map[layer.Type]int)
	for i := range n.Layers {
		c[n.Layers[i].Kind]++
	}
	return c
}

// Types returns the distinct layer types present, in the paper's CV, DW, PW,
// FC, PL order.
func (n *Network) Types() []layer.Type {
	c := n.TypeCounts()
	var out []layer.Type
	for _, t := range []layer.Type{layer.Conv, layer.DepthwiseConv, layer.PointwiseConv, layer.FullyConnected, layer.Projection} {
		if c[t] > 0 {
			out = append(out, t)
		}
	}
	return out
}

// Params returns the total weight count of the network in elements.
func (n *Network) Params() int64 {
	var p int64
	for i := range n.Layers {
		p += n.Layers[i].FilterElems()
	}
	return p
}

// MACs returns the total multiply-accumulate count for one inference.
func (n *Network) MACs() int64 {
	var m int64
	for i := range n.Layers {
		m += n.Layers[i].MACs()
	}
	return m
}

// MinTransfers returns the theoretical minimum off-chip traffic in elements
// (each ifmap, filter and ofmap element moved exactly once, no inter-layer
// reuse), which all of intra-layer reuse and policies 1-3 achieve.
func (n *Network) MinTransfers(padded bool) int64 {
	var t int64
	for i := range n.Layers {
		l := &n.Layers[i]
		t += l.IfmapElems(padded) + l.FilterElems() + l.OfmapElems()
	}
	return t
}

// Builder constructs one of the built-in networks.
type Builder func() *Network

// builtins maps canonical lower-case names to the built-in networks.
var builtins = map[string]*builtin{
	"efficientnetb0": {build: EfficientNetB0},
	"googlenet":      {build: GoogLeNet},
	"mnasnet":        {build: MnasNet},
	"mobilenet":      {build: MobileNet},
	"mobilenetv2":    {build: MobileNetV2},
	"resnet18":       {build: ResNet18},
	"tinycnn":        {build: Tiny},
	"tiny":           {build: Tiny},
	"alexnet":        {build: AlexNet},
	"vgg16":          {build: VGG16},
}

// builtin is one built-in network, built on first use, not at start-up,
// and shared from then on with its canonical JSON.
type builtin struct {
	build Builder
	once  sync.Once
	net   *Network
	canon []byte
}

// BuiltinNames lists the built-in model names in the paper's Table 2 order.
func BuiltinNames() []string {
	return []string{"EfficientNetB0", "GoogLeNet", "MnasNet", "MobileNet", "MobileNetV2", "ResNet18"}
}

// AllBuiltinNames lists every built-in model once, in its canonical
// spelling: the Table-2 six, then AlexNet, VGG16 and TinyCNN. It is the
// list smm-serve's /v1/models advertises and an unknown-name error offers.
func AllBuiltinNames() []string {
	return append(BuiltinNames(), "AlexNet", "VGG16", "TinyCNN")
}

// Builtin returns the named built-in network (case-insensitive), a copy
// the caller owns.
func Builtin(name string) (*Network, error) {
	n, _, err := SharedBuiltin(name)
	if err != nil {
		return nil, err
	}
	return &Network{Name: n.Name, Layers: slices.Clone(n.Layers)}, nil
}

// SharedBuiltin returns the named built-in network (case-insensitive) and
// its canonical JSON. Both are built once, on the name's first use, and
// shared by every caller, so neither may be modified.
func SharedBuiltin(name string) (*Network, []byte, error) {
	b, ok := builtins[normalize(name)]
	if !ok {
		return nil, nil, fmt.Errorf("model: unknown built-in model %q (have %v)", name, AllBuiltinNames())
	}
	b.once.Do(func() {
		b.net = b.build()
		b.canon = AppendCanonicalJSON(nil, b.net)
	})
	return b.net, b.canon, nil
}

// graphBuilders maps canonical lower-case names to the graph-aware builder
// internals; same key set as builtins.
var graphBuilders = map[string]func() *netBuilder{
	"efficientnetb0": efficientNetB0,
	"googlenet":      googLeNet,
	"mnasnet":        mnasNet,
	"mobilenet":      mobileNet,
	"mobilenetv2":    mobileNetV2,
	"resnet18":       resNet18,
	"tinycnn":        tiny,
	"tiny":           tiny,
	"alexnet":        alexNet,
	"vgg16":          vgg16,
}

// BuiltinGraph returns the named built-in model as a tensor-lifetime graph
// (case-insensitive): the same layers as Builtin plus the true edge
// structure — inception concatenations, residual shortcuts,
// squeeze-and-excite side reads — that the linear Network serialises away.
func BuiltinGraph(name string) (*Graph, error) {
	b, ok := graphBuilders[normalize(name)]
	if !ok {
		return nil, fmt.Errorf("model: unknown built-in model %q (have %v)", name, AllBuiltinNames())
	}
	return b().buildGraph(), nil
}

// Builtins constructs all six paper networks in Table 2 order.
func Builtins() []*Network {
	out := make([]*Network, 0, len(builtins))
	for _, name := range BuiltinNames() {
		n, err := Builtin(name)
		if err != nil {
			panic(err) // unreachable: names come from BuiltinNames
		}
		out = append(out, n)
	}
	return out
}

func normalize(s string) string {
	b := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c == '-' || c == '_' || c == ' ' {
			continue
		}
		b = append(b, c)
	}
	return string(b)
}
