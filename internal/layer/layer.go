// Package layer defines the hyperparameters of a neural-network layer as
// used throughout the scratchpad memory-management system (paper Table 1),
// together with the derived quantities the policy estimators need: data-type
// footprints, MAC counts and output shapes.
//
// All sizes returned by this package are in elements; callers convert to
// bytes with a data width (see Bytes). Element counts use int64 so that
// large fully-connected layers and whole-network aggregates cannot overflow
// on 32-bit builds.
package layer

import (
	"errors"
	"fmt"
)

// Type classifies a layer the way the paper's Table 2 does.
type Type int

const (
	// Conv is a standard convolution (CV).
	Conv Type = iota
	// DepthwiseConv is a depth-wise convolution (DW): one filter per input
	// channel, CO == CI, no cross-channel reduction.
	DepthwiseConv
	// PointwiseConv is a 1x1 convolution (PW).
	PointwiseConv
	// FullyConnected is a fully-connected layer (FC), modelled as a
	// convolution with IH=IW=FH=FW=OH=OW=1.
	FullyConnected
	// Projection is a 1x1 strided projection shortcut (PL), as in ResNet18.
	Projection
)

// String returns the paper's two-letter abbreviation for the layer type.
func (t Type) String() string {
	switch t {
	case Conv:
		return "CV"
	case DepthwiseConv:
		return "DW"
	case PointwiseConv:
		return "PW"
	case FullyConnected:
		return "FC"
	case Projection:
		return "PL"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// ParseType converts a two-letter abbreviation back into a Type.
func ParseType(s string) (Type, error) {
	switch s {
	case "CV":
		return Conv, nil
	case "DW":
		return DepthwiseConv, nil
	case "PW":
		return PointwiseConv, nil
	case "FC":
		return FullyConnected, nil
	case "PL":
		return Projection, nil
	}
	return 0, fmt.Errorf("layer: unknown layer type %q", s)
}

// Layer holds the hyperparameters of one convolutional or fully-connected
// layer (paper Table 1). The zero value is not a valid layer; use New or
// fill every field and call Validate.
type Layer struct {
	Name string
	Kind Type

	IH, IW int // ifmap height / width (unpadded)
	CI     int // ifmap / filter channels
	FH, FW int // filter height / width
	F      int // number of 3D filters (F#); for DW layers F == 1 per channel group
	S      int // stride
	P      int // padding (symmetric)
}

// New builds a layer and validates it.
func New(name string, kind Type, ih, iw, ci, fh, fw, f, s, p int) (Layer, error) {
	l := Layer{Name: name, Kind: kind, IH: ih, IW: iw, CI: ci, FH: fh, FW: fw, F: f, S: s, P: p}
	if err := l.Validate(); err != nil {
		return Layer{}, err
	}
	return l, nil
}

// MustNew is New for statically-known configurations; it panics on error.
func MustNew(name string, kind Type, ih, iw, ci, fh, fw, f, s, p int) Layer {
	l, err := New(name, kind, ih, iw, ci, fh, fw, f, s, p)
	if err != nil {
		panic(err)
	}
	return l
}

// FC builds a fully-connected layer with in input features and out outputs.
func FC(name string, in, out int) Layer {
	return MustNew(name, FullyConnected, 1, 1, in, 1, 1, out, 1, 0)
}

// ErrInvalid reports a malformed layer configuration.
var ErrInvalid = errors.New("layer: invalid configuration")

// Validate checks the hyperparameters for internal consistency: positive
// dimensions, a filter that fits inside the padded ifmap, stride alignment
// and the structural constraints of each layer type.
func (l *Layer) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s: %s", ErrInvalid, l.Name, fmt.Sprintf(format, args...))
	}
	if l.IH <= 0 || l.IW <= 0 || l.CI <= 0 || l.FH <= 0 || l.FW <= 0 || l.F <= 0 {
		return fail("non-positive dimension (IH=%d IW=%d CI=%d FH=%d FW=%d F=%d)",
			l.IH, l.IW, l.CI, l.FH, l.FW, l.F)
	}
	if l.S <= 0 {
		return fail("stride must be positive, got %d", l.S)
	}
	if l.P < 0 {
		return fail("padding must be non-negative, got %d", l.P)
	}
	if l.FH > l.IH+2*l.P || l.FW > l.IW+2*l.P {
		return fail("filter %dx%d larger than padded ifmap %dx%d",
			l.FH, l.FW, l.IH+2*l.P, l.IW+2*l.P)
	}
	switch l.Kind {
	case DepthwiseConv:
		if l.F != 1 {
			return fail("depth-wise layers have one filter per channel (F must be 1, got %d)", l.F)
		}
	case PointwiseConv, Projection:
		if l.FH != 1 || l.FW != 1 {
			return fail("%s layers use 1x1 filters, got %dx%d", l.Kind, l.FH, l.FW)
		}
	case FullyConnected:
		if l.IH != 1 || l.IW != 1 || l.FH != 1 || l.FW != 1 {
			return fail("FC layers are modelled with IH=IW=FH=FW=1")
		}
	}
	return nil
}

// OH returns the output height: (IH - FH + 2P)/S + 1, floored as frameworks do.
func (l *Layer) OH() int { return (l.IH-l.FH+2*l.P)/l.S + 1 }

// OW returns the output width.
func (l *Layer) OW() int { return (l.IW-l.FW+2*l.P)/l.S + 1 }

// CO returns the number of output channels: F for CV/PW/FC/PL, CI for DW.
func (l *Layer) CO() int {
	if l.Kind == DepthwiseConv {
		return l.CI
	}
	return l.F
}

// PaddedIH returns IH + 2P.
func (l *Layer) PaddedIH() int { return l.IH + 2*l.P }

// PaddedIW returns IW + 2P.
func (l *Layer) PaddedIW() int { return l.IW + 2*l.P }

// IfmapElems returns the ifmap footprint in elements. When padded is true
// the zero-padding halo is counted too (the paper counts it for access and
// latency estimates but not in its Table 3 memory figures).
func (l *Layer) IfmapElems(padded bool) int64 {
	h, w := l.IH, l.IW
	if padded {
		h, w = l.PaddedIH(), l.PaddedIW()
	}
	return int64(h) * int64(w) * int64(l.CI)
}

// FilterElems returns the weight footprint in elements:
// FH*FW*CI*F# for dense convolutions, FH*FW*CI for depth-wise layers.
func (l *Layer) FilterElems() int64 {
	n := int64(l.FH) * int64(l.FW) * int64(l.CI)
	if l.Kind == DepthwiseConv {
		return n
	}
	return n * int64(l.F)
}

// OfmapElems returns the ofmap footprint in elements: OH*OW*CO.
func (l *Layer) OfmapElems() int64 {
	return int64(l.OH()) * int64(l.OW()) * int64(l.CO())
}

// MACs returns the multiply-accumulate count of the layer:
// OH*OW*CO*FH*FW*CI for dense convolutions and OH*OW*CI*FH*FW for
// depth-wise layers (no cross-channel reduction).
func (l *Layer) MACs() int64 {
	per := int64(l.FH) * int64(l.FW)
	if l.Kind != DepthwiseConv {
		per *= int64(l.CI)
	}
	return l.OfmapElems() * per
}

// Bytes converts an element count to bytes for the given data width in bits.
// Widths that are not multiples of 8 round each element up to whole bytes
// times count (the paper only uses 8/16/32).
func Bytes(elems int64, widthBits int) int64 {
	if widthBits <= 0 {
		panic("layer: data width must be positive")
	}
	return (elems*int64(widthBits) + 7) / 8
}

// KB converts an element count to kB (1024 bytes) for the given width.
func KB(elems int64, widthBits int) float64 {
	return float64(Bytes(elems, widthBits)) / 1024.0
}

// String summarises the layer in one line.
func (l Layer) String() string {
	return fmt.Sprintf("%s %s in=%dx%dx%d f=%dx%dx%d s=%d p=%d out=%dx%dx%d",
		l.Name, l.Kind, l.IH, l.IW, l.CI, l.FH, l.FW, l.F, l.S, l.P, l.OH(), l.OW(), l.CO())
}
