package layer

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestOutputShape(t *testing.T) {
	tests := []struct {
		name           string
		l              Layer
		oh, ow, co     int
		ifmap, filter  int64
		ofmap, macs    int64
		paddedIH, padW int
	}{
		{
			name: "resnet conv1",
			l:    MustNew("conv1", Conv, 224, 224, 3, 7, 7, 64, 2, 3),
			oh:   112, ow: 112, co: 64,
			ifmap: 224 * 224 * 3, filter: 7 * 7 * 3 * 64,
			ofmap: 112 * 112 * 64, macs: 112 * 112 * 64 * 7 * 7 * 3,
			paddedIH: 230, padW: 230,
		},
		{
			name: "3x3 same conv",
			l:    MustNew("c", Conv, 56, 56, 64, 3, 3, 64, 1, 1),
			oh:   56, ow: 56, co: 64,
			ifmap: 56 * 56 * 64, filter: 3 * 3 * 64 * 64,
			ofmap: 56 * 56 * 64, macs: 56 * 56 * 64 * 3 * 3 * 64,
			paddedIH: 58, padW: 58,
		},
		{
			name: "depthwise s2",
			l:    MustNew("dw", DepthwiseConv, 112, 112, 96, 3, 3, 1, 2, 1),
			oh:   56, ow: 56, co: 96,
			ifmap: 112 * 112 * 96, filter: 3 * 3 * 96,
			ofmap: 56 * 56 * 96, macs: 56 * 56 * 96 * 3 * 3,
			paddedIH: 114, padW: 114,
		},
		{
			name: "pointwise",
			l:    MustNew("pw", PointwiseConv, 56, 56, 96, 1, 1, 24, 1, 0),
			oh:   56, ow: 56, co: 24,
			ifmap: 56 * 56 * 96, filter: 96 * 24,
			ofmap: 56 * 56 * 24, macs: 56 * 56 * 24 * 96,
			paddedIH: 56, padW: 56,
		},
		{
			name: "fc",
			l:    FC("fc", 512, 1000),
			oh:   1, ow: 1, co: 1000,
			ifmap: 512, filter: 512 * 1000,
			ofmap: 1000, macs: 512 * 1000,
			paddedIH: 1, padW: 1,
		},
		{
			name: "projection",
			l:    MustNew("pl", Projection, 56, 56, 64, 1, 1, 128, 2, 0),
			oh:   28, ow: 28, co: 128,
			ifmap: 56 * 56 * 64, filter: 64 * 128,
			ofmap: 28 * 28 * 128, macs: 28 * 28 * 128 * 64,
			paddedIH: 56, padW: 56,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			l := tc.l
			if got := l.OH(); got != tc.oh {
				t.Errorf("OH = %d, want %d", got, tc.oh)
			}
			if got := l.OW(); got != tc.ow {
				t.Errorf("OW = %d, want %d", got, tc.ow)
			}
			if got := l.CO(); got != tc.co {
				t.Errorf("CO = %d, want %d", got, tc.co)
			}
			if got := l.IfmapElems(false); got != tc.ifmap {
				t.Errorf("IfmapElems = %d, want %d", got, tc.ifmap)
			}
			if got := l.FilterElems(); got != tc.filter {
				t.Errorf("FilterElems = %d, want %d", got, tc.filter)
			}
			if got := l.OfmapElems(); got != tc.ofmap {
				t.Errorf("OfmapElems = %d, want %d", got, tc.ofmap)
			}
			if got := l.MACs(); got != tc.macs {
				t.Errorf("MACs = %d, want %d", got, tc.macs)
			}
			if got := l.PaddedIH(); got != tc.paddedIH {
				t.Errorf("PaddedIH = %d, want %d", got, tc.paddedIH)
			}
			if got := l.PaddedIW(); got != tc.padW {
				t.Errorf("PaddedIW = %d, want %d", got, tc.padW)
			}
		})
	}
}

func TestPaddedIfmap(t *testing.T) {
	l := MustNew("c", Conv, 10, 12, 4, 3, 3, 8, 1, 1)
	if got, want := l.IfmapElems(true), int64(12*14*4); got != want {
		t.Errorf("padded ifmap = %d, want %d", got, want)
	}
	if got, want := l.IfmapElems(false), int64(10*12*4); got != want {
		t.Errorf("unpadded ifmap = %d, want %d", got, want)
	}
}

func TestValidateErrors(t *testing.T) {
	bad := []Layer{
		{Name: "zero", Kind: Conv},
		{Name: "negpad", Kind: Conv, IH: 8, IW: 8, CI: 1, FH: 3, FW: 3, F: 1, S: 1, P: -1},
		{Name: "zerostride", Kind: Conv, IH: 8, IW: 8, CI: 1, FH: 3, FW: 3, F: 1, S: 0, P: 0},
		{Name: "bigfilter", Kind: Conv, IH: 2, IW: 2, CI: 1, FH: 5, FW: 5, F: 1, S: 1, P: 0},
		{Name: "dwmulti", Kind: DepthwiseConv, IH: 8, IW: 8, CI: 4, FH: 3, FW: 3, F: 2, S: 1, P: 1},
		{Name: "pw3x3", Kind: PointwiseConv, IH: 8, IW: 8, CI: 4, FH: 3, FW: 3, F: 2, S: 1, P: 1},
		{Name: "fcspace", Kind: FullyConnected, IH: 2, IW: 1, CI: 4, FH: 1, FW: 1, F: 2, S: 1, P: 0},
	}
	for _, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("%s: Validate() = nil, want error", l.Name)
		}
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	if _, err := New("x", Conv, 0, 1, 1, 1, 1, 1, 1, 0); err == nil {
		t.Fatal("New with zero IH should fail")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic on invalid layer")
		}
	}()
	MustNew("x", Conv, 0, 1, 1, 1, 1, 1, 1, 0)
}

func TestTypeRoundTrip(t *testing.T) {
	for _, k := range []Type{Conv, DepthwiseConv, PointwiseConv, FullyConnected, Projection} {
		got, err := ParseType(k.String())
		if err != nil {
			t.Fatalf("ParseType(%q): %v", k.String(), err)
		}
		if got != k {
			t.Errorf("round trip %v -> %q -> %v", k, k.String(), got)
		}
	}
	if _, err := ParseType("XX"); err == nil {
		t.Error("ParseType(XX) should fail")
	}
	if s := Type(99).String(); !strings.Contains(s, "99") {
		t.Errorf("unknown type string = %q", s)
	}
}

func TestBytes(t *testing.T) {
	tests := []struct {
		elems int64
		width int
		want  int64
	}{
		{100, 8, 100},
		{100, 16, 200},
		{100, 32, 400},
		{3, 4, 2}, // sub-byte widths round the total up
		{1, 1, 1},
	}
	for _, tc := range tests {
		if got := Bytes(tc.elems, tc.width); got != tc.want {
			t.Errorf("Bytes(%d, %d) = %d, want %d", tc.elems, tc.width, got, tc.want)
		}
	}
	if got := KB(1024, 8); got != 1.0 {
		t.Errorf("KB(1024, 8) = %v, want 1", got)
	}
}

func TestBytesPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Bytes did not panic on zero width")
		}
	}()
	Bytes(1, 0)
}

// randomLayer generates a small valid conv layer for property tests.
func randomLayer(r *rand.Rand) Layer {
	fh := 1 + r.Intn(5)
	fw := 1 + r.Intn(5)
	p := r.Intn(3)
	s := 1 + r.Intn(2)
	ih := fh + r.Intn(40)
	iw := fw + r.Intn(40)
	ci := 1 + r.Intn(32)
	f := 1 + r.Intn(64)
	return MustNew("rand", Conv, ih, iw, ci, fh, fw, f, s, p)
}

// Generate implements quick.Generator so Layer can be used in property tests.
func (Layer) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(randomLayer(r))
}

func TestShapeInvariants(t *testing.T) {
	f := func(l Layer) bool {
		if l.OH() <= 0 || l.OW() <= 0 {
			return false
		}
		// Output never exceeds padded input extent for stride >= 1.
		if l.OH() > l.PaddedIH() || l.OW() > l.PaddedIW() {
			return false
		}
		// MACs factorises as ofmap elems times per-element work.
		if l.MACs()%l.OfmapElems() != 0 {
			return false
		}
		// Padding only grows the ifmap.
		return l.IfmapElems(true) >= l.IfmapElems(false)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestStringIncludesShape(t *testing.T) {
	l := MustNew("conv1", Conv, 224, 224, 3, 7, 7, 64, 2, 3)
	s := l.String()
	for _, want := range []string{"conv1", "CV", "224x224x3", "112x112x64"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

// TestValidateBounds: the input domain's maxima hold at their edges. A
// dimension of MaxDim, a padded ifmap times F# of MaxStreamElems and
// MaxMACs multiply-accumulates are accepted, one more of any is refused,
// and so are the 3x3 layers of IH=IW=CI=F=2^16, whose MACs wrap to 0 in
// int64, and of 2^20.
func TestValidateBounds(t *testing.T) {
	ok := []Layer{
		{Name: "dim", Kind: FullyConnected, IH: 1, IW: 1, CI: MaxDim, FH: 1, FW: 1, F: 1, S: MaxDim, P: 0},
		{Name: "stream", Kind: FullyConnected, IH: 1, IW: 1, CI: 1 << 16, FH: 1, FW: 1, F: 1 << 16, S: 1, P: 0},
		// A 16x16 filter over a 143x143 ifmap: a 128x128 ofmap, 2^36 MACs.
		{Name: "macs", Kind: Conv, IH: 143, IW: 143, CI: 1 << 7, FH: 16, FW: 16, F: 1 << 7, S: 1, P: 0},
	}
	for _, l := range ok {
		if err := l.Validate(); err != nil {
			t.Errorf("%s at the maximum: %v", l.Name, err)
		}
	}
	bad := []Layer{
		{Name: "dim", Kind: FullyConnected, IH: 1, IW: 1, CI: MaxDim + 1, FH: 1, FW: 1, F: 1, S: 1, P: 0},
		{Name: "stride", Kind: FullyConnected, IH: 1, IW: 1, CI: 1, FH: 1, FW: 1, F: 1, S: MaxDim + 1, P: 0},
		{Name: "pad", Kind: Conv, IH: 1, IW: 1, CI: 1, FH: 1, FW: 1, F: 1, S: 1, P: MaxDim + 1},
		{Name: "stream", Kind: FullyConnected, IH: 1, IW: 1, CI: 1<<16 + 1, FH: 1, FW: 1, F: 1 << 16, S: 1, P: 0},
		{Name: "macs", Kind: Conv, IH: 143, IW: 143, CI: 1<<7 + 1, FH: 16, FW: 16, F: 1 << 7, S: 1, P: 0},
		{Name: "wrap16", Kind: Conv, IH: 1 << 16, IW: 1 << 16, CI: 1 << 16, FH: 3, FW: 3, F: 1 << 16, S: 1, P: 1},
		{Name: "wrap20", Kind: Conv, IH: 1 << 20, IW: 1 << 20, CI: 1 << 20, FH: 3, FW: 3, F: 1 << 20, S: 1, P: 1},
	}
	for _, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("%s above the maximum: Validate() = nil", l.Name)
		}
	}
}
