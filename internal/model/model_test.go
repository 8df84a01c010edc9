package model

import (
	"bytes"
	"strings"
	"testing"

	"scratchmem/internal/layer"
)

// TestTable2LayerCounts pins the layer counts and types to the paper's
// Table 2: EfficientNetB0 82, GoogLeNet 64, MnasNet 53, MobileNet 28,
// MobileNetV2 53, ResNet18 21.
func TestTable2LayerCounts(t *testing.T) {
	want := []struct {
		name  string
		count int
		types []layer.Type
	}{
		{"EfficientNetB0", 82, []layer.Type{layer.Conv, layer.DepthwiseConv, layer.PointwiseConv, layer.FullyConnected}},
		{"GoogLeNet", 64, []layer.Type{layer.Conv, layer.PointwiseConv, layer.FullyConnected}},
		{"MnasNet", 53, []layer.Type{layer.Conv, layer.DepthwiseConv, layer.PointwiseConv, layer.FullyConnected}},
		{"MobileNet", 28, []layer.Type{layer.Conv, layer.DepthwiseConv, layer.PointwiseConv, layer.FullyConnected}},
		{"MobileNetV2", 53, []layer.Type{layer.Conv, layer.DepthwiseConv, layer.PointwiseConv, layer.FullyConnected}},
		// Paper Table 2 lists "CV, PW, FC, PL" for ResNet18, but the standard
		// architecture's only 1x1 convolutions are the three strided shortcut
		// projections, which we classify as PL; there is no separate PW layer.
		{"ResNet18", 21, []layer.Type{layer.Conv, layer.FullyConnected, layer.Projection}},
	}
	for _, tc := range want {
		t.Run(tc.name, func(t *testing.T) {
			n, err := Builtin(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(n.Layers); got != tc.count {
				t.Errorf("layer count = %d, want %d", got, tc.count)
				for i, l := range n.Layers {
					t.Logf("L%d: %s", i+1, l.String())
				}
			}
			got := n.Types()
			if len(got) != len(tc.types) {
				t.Fatalf("types = %v, want %v", got, tc.types)
			}
			for i := range got {
				if got[i] != tc.types[i] {
					t.Errorf("types = %v, want %v", got, tc.types)
					break
				}
			}
		})
	}
}

// TestResNet18Params pins the total weight count close to the published
// ~11.7M parameters (we count conv + fc weights, no biases/batch-norm).
func TestResNet18Params(t *testing.T) {
	n := ResNet18()
	p := n.Params()
	if p < 11_100_000 || p > 11_800_000 {
		t.Errorf("ResNet18 params = %d, want ~11.2M-11.7M", p)
	}
}

// TestMobileNetParams pins MobileNetV1 weights near the published ~4.2M.
func TestMobileNetParams(t *testing.T) {
	p := MobileNet().Params()
	if p < 3_900_000 || p > 4_300_000 {
		t.Errorf("MobileNet params = %d, want ~4.2M", p)
	}
}

// TestMobileNetV2Params pins MobileNetV2 weights near the published ~3.4M.
func TestMobileNetV2Params(t *testing.T) {
	p := MobileNetV2().Params()
	if p < 3_100_000 || p > 3_600_000 {
		t.Errorf("MobileNetV2 params = %d, want ~3.4M", p)
	}
}

// TestResNet18MACs pins the inference MAC count near the published ~1.8G.
func TestResNet18MACs(t *testing.T) {
	m := ResNet18().MACs()
	if m < 1_700_000_000 || m > 1_900_000_000 {
		t.Errorf("ResNet18 MACs = %d, want ~1.8G", m)
	}
}

// TestMobileNetMACs pins MobileNetV1 MACs near the published ~569M.
func TestMobileNetMACs(t *testing.T) {
	m := MobileNet().MACs()
	if m < 540_000_000 || m > 600_000_000 {
		t.Errorf("MobileNet MACs = %d, want ~569M", m)
	}
}

// TestShapeChaining verifies every layer's input matches the data actually
// flowing to it: spatial sizes never grow (stride >= 1 everywhere in these
// models) and final classifier sees 1000 outputs.
func TestShapeChaining(t *testing.T) {
	for _, n := range Builtins() {
		t.Run(n.Name, func(t *testing.T) {
			last := n.Layers[len(n.Layers)-1]
			if last.Kind != layer.FullyConnected || last.F != 1000 {
				t.Errorf("last layer = %s, want FC with 1000 outputs", last.String())
			}
			for i := range n.Layers {
				l := &n.Layers[i]
				if l.OH() <= 0 || l.OW() <= 0 {
					t.Errorf("layer %d (%s): non-positive output %dx%d", i+1, l.Name, l.OH(), l.OW())
				}
			}
		})
	}
}

func TestBuiltinUnknown(t *testing.T) {
	if _, err := Builtin("inceptionv3"); err == nil {
		t.Error("Builtin(inceptionv3) should fail")
	}
}

func TestBuiltinNameNormalisation(t *testing.T) {
	for _, alias := range []string{"resnet18", "ResNet18", "RESNET18", "resnet-18", "ResNet_18", "resnet 18"} {
		n, err := Builtin(alias)
		if err != nil {
			t.Errorf("Builtin(%q): %v", alias, err)
			continue
		}
		if n.Name != "ResNet18" {
			t.Errorf("Builtin(%q).Name = %q", alias, n.Name)
		}
	}
}

// TestResNet18ConvShapes pins a few landmark layers to the published
// architecture.
func TestResNet18ConvShapes(t *testing.T) {
	n := ResNet18()
	byName := map[string]layer.Layer{}
	for _, l := range n.Layers {
		byName[l.Name] = l
	}
	conv1 := byName["conv1"]
	if conv1.OH() != 112 || conv1.CO() != 64 {
		t.Errorf("conv1 out = %dx%dx%d, want 112x112x64", conv1.OH(), conv1.OW(), conv1.CO())
	}
	c2 := byName["conv2_1_a"]
	if c2.IH != 56 || c2.CI != 64 {
		t.Errorf("conv2_1_a in = %dx%dx%d, want 56x56x64", c2.IH, c2.IW, c2.CI)
	}
	c5 := byName["conv5_2_b"]
	if c5.IH != 7 || c5.CI != 512 || c5.CO() != 512 {
		t.Errorf("conv5_2_b = %s, want 7x7x512 -> 7x7x512", c5.String())
	}
	p3 := byName["proj3"]
	if p3.IH != 56 || p3.CI != 64 || p3.OH() != 28 || p3.CO() != 128 {
		t.Errorf("proj3 = %s, want 56x56x64 -> 28x28x128", p3.String())
	}
}

// TestGoogLeNetInceptionChannels verifies the inception concatenation
// arithmetic by checking the inputs of downstream modules.
func TestGoogLeNetInceptionChannels(t *testing.T) {
	n := GoogLeNet()
	byName := map[string]layer.Layer{}
	for _, l := range n.Layers {
		byName[l.Name] = l
	}
	checks := []struct {
		name string
		ci   int
		ih   int
	}{
		{"i3a_1x1", 192, 28},
		{"i3b_1x1", 256, 28},
		{"i4a_1x1", 480, 14},
		{"i4b_1x1", 512, 14},
		{"i4e_1x1", 528, 14},
		{"i5a_1x1", 832, 7},
		{"i5b_1x1", 832, 7},
		{"fc", 1024, 1},
		{"aux1_fc1", 2048, 1},
		{"aux2_fc1", 2048, 1},
	}
	for _, c := range checks {
		l, ok := byName[c.name]
		if !ok {
			t.Errorf("missing layer %s", c.name)
			continue
		}
		if l.CI != c.ci || l.IH != c.ih {
			t.Errorf("%s in = %dx%dx%d, want %dx%dx%d", c.name, l.IH, l.IW, l.CI, c.ih, c.ih, c.ci)
		}
	}
}

// TestEfficientNetSELayers verifies each MBConv block contributes its two
// squeeze-and-excite FC layers (16 blocks -> 32 SE FCs + final fc = 33 FCs).
func TestEfficientNetSELayers(t *testing.T) {
	n := EfficientNetB0()
	fcs := n.TypeCounts()[layer.FullyConnected]
	if fcs != 33 {
		t.Errorf("EfficientNetB0 FC layers = %d, want 33 (32 SE + classifier)", fcs)
	}
	// First SE pair of stage 2: expansion 16*6=96, squeeze 16/4=4.
	var se1 layer.Layer
	found := false
	for _, l := range n.Layers {
		if l.Name == "s2_1_se1" {
			se1, found = l, true
			break
		}
	}
	if !found {
		t.Fatal("missing s2_1_se1")
	}
	if se1.CI != 96 || se1.F != 4 {
		t.Errorf("s2_1_se1 = %d->%d, want 96->4", se1.CI, se1.F)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	for _, n := range Builtins() {
		var buf strings.Builder
		if err := n.WriteJSON(&buf); err != nil {
			t.Fatalf("%s: WriteJSON: %v", n.Name, err)
		}
		got, err := ReadJSON(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("%s: ReadJSON: %v", n.Name, err)
		}
		if got.Name != n.Name || len(got.Layers) != len(n.Layers) {
			t.Fatalf("%s: round trip mismatch", n.Name)
		}
		for i := range got.Layers {
			if got.Layers[i] != n.Layers[i] {
				t.Errorf("%s layer %d: %+v != %+v", n.Name, i, got.Layers[i], n.Layers[i])
			}
		}
	}
}

func TestReadJSONErrors(t *testing.T) {
	cases := []string{
		"{not json",
		`{"name":"x","layers":[{"name":"l","type":"XX","ih":1,"iw":1,"ci":1,"fh":1,"fw":1,"f":1,"s":1}]}`,
		`{"name":"x","layers":[{"name":"l","type":"CV","ih":0,"iw":1,"ci":1,"fh":1,"fw":1,"f":1,"s":1}]}`,
		`{"name":"x","layers":[]}`,
	}
	for i, c := range cases {
		if _, err := ReadJSON(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: ReadJSON succeeded, want error", i)
		}
	}
}

func TestTopologyCSVRoundTrip(t *testing.T) {
	n := ResNet18()
	var buf strings.Builder
	if err := n.WriteTopologyCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTopologyCSV("ResNet18", strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Layers) != len(n.Layers) {
		t.Fatalf("layer count = %d, want %d", len(got.Layers), len(n.Layers))
	}
	// The CSV format drops padding and layer kind, but the raw dimensions
	// must survive.
	for i := range got.Layers {
		a, b := got.Layers[i], n.Layers[i]
		if a.IH != b.IH || a.IW != b.IW || a.CI != b.CI || a.FH != b.FH || a.FW != b.FW || a.F != b.F || a.S != b.S {
			t.Errorf("layer %d: %+v != %+v", i, a, b)
		}
	}
}

func TestReadTopologyCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"Layer name, IFMAP Height,\nconv1, 224,\n",
		"conv1, a, 224, 3, 3, 3, 64, 1,\n",
		"conv1, 0, 224, 3, 3, 3, 64, 1,\n",
	}
	for i, c := range cases {
		if _, err := ReadTopologyCSV("x", strings.NewReader(c)); err == nil {
			t.Errorf("case %d: ReadTopologyCSV succeeded, want error", i)
		}
	}
}

func TestMinTransfers(t *testing.T) {
	n := &Network{Name: "tiny", Layers: []layer.Layer{
		layer.MustNew("c1", layer.Conv, 8, 8, 3, 3, 3, 4, 1, 1),
	}}
	l := &n.Layers[0]
	want := l.IfmapElems(false) + l.FilterElems() + l.OfmapElems()
	if got := n.MinTransfers(false); got != want {
		t.Errorf("MinTransfers = %d, want %d", got, want)
	}
	if got := n.MinTransfers(true); got <= want {
		t.Errorf("padded MinTransfers = %d, want > %d", got, want)
	}
}

func TestValidateEmpty(t *testing.T) {
	if err := (&Network{Name: "x"}).Validate(); err == nil {
		t.Error("empty network should fail validation")
	}
	if err := (&Network{Layers: ResNet18().Layers}).Validate(); err == nil {
		t.Error("unnamed network should fail validation")
	}
}

// BenchmarkReadJSON times reading a builtin back from its compact JSON
// form, the form request bodies and snapshot records carry: the decode,
// layer.New for every layer and Network.Validate.
func BenchmarkReadJSON(b *testing.B) {
	for _, n := range []*Network{MobileNetV2(), GoogLeNet()} {
		b.Run(n.Name, func(b *testing.B) {
			data, err := CanonicalJSON(n)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := ReadJSON(bytes.NewReader(data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
