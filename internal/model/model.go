// Package model represents whole neural networks as ordered lists of layers
// (the paper executes models layer-by-layer, serialising residual branches),
// provides builders for the six CNNs of the paper's Table 2, and reads and
// writes two on-disk descriptions: a JSON format and the SCALE-Sim topology
// CSV format, standing in for the paper's TensorFlow/PyTorch translator.
package model

import (
	"fmt"

	"scratchmem/internal/layer"
)

// Network is an ordered sequence of layers executed one after another.
type Network struct {
	Name   string
	Layers []layer.Layer
}

// Validate checks every layer and that the network is non-empty.
func (n *Network) Validate() error {
	if n.Name == "" {
		return fmt.Errorf("model: network has no name")
	}
	if len(n.Layers) == 0 {
		return fmt.Errorf("model: network %s has no layers", n.Name)
	}
	for i := range n.Layers {
		if err := n.Layers[i].Validate(); err != nil {
			return fmt.Errorf("model: %s layer %d: %w", n.Name, i+1, err)
		}
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

// builtins maps canonical lower-case names to builders.
var builtins = map[string]Builder{
	"efficientnetb0": EfficientNetB0,
	"googlenet":      GoogLeNet,
	"mnasnet":        MnasNet,
	"mobilenet":      MobileNet,
	"mobilenetv2":    MobileNetV2,
	"resnet18":       ResNet18,
	"tinycnn":        Tiny,
	"tiny":           Tiny,
	"alexnet":        AlexNet,
	"vgg16":          VGG16,
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

// Builtin returns the named built-in network (case-insensitive).
func Builtin(name string) (*Network, error) {
	b, ok := builtins[normalize(name)]
	if !ok {
		return nil, fmt.Errorf("model: unknown built-in model %q (have %v)", name, AllBuiltinNames())
	}
	return b(), nil
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
