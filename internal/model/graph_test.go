package model

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scratchmem/internal/layer"
	"scratchmem/internal/smmerr"
)

// graphBuiltinNames is every builder key once (tiny/tinycnn alias collapsed).
var graphBuiltinNames = []string{
	"EfficientNetB0", "GoogLeNet", "MnasNet", "MobileNet", "MobileNetV2",
	"ResNet18", "TinyCNN", "AlexNet", "VGG16",
}

// TestBuiltinGraphsValidateAndMatchNetworks: every builtin graph validates,
// carries exactly the layers of its linear counterpart, and the DAG-ness
// split is the architectural truth — inception/residual/SE models are
// genuine DAGs, plain CNN stacks remain chains.
func TestBuiltinGraphsValidateAndMatchNetworks(t *testing.T) {
	wantDAG := map[string]bool{
		"EfficientNetB0": true, "GoogLeNet": true, "MnasNet": true,
		"MobileNetV2": true, "ResNet18": true,
		"MobileNet": false, "TinyCNN": false, "AlexNet": false, "VGG16": false,
	}
	for _, name := range graphBuiltinNames {
		g, err := BuiltinGraph(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		n, err := Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(g.Nodes) != len(n.Layers) {
			t.Fatalf("%s: graph has %d nodes, network %d layers", name, len(g.Nodes), len(n.Layers))
		}
		for i := range n.Layers {
			if g.Nodes[i].Layer != n.Layers[i] {
				t.Fatalf("%s layer %d: graph %+v != network %+v", name, i, g.Nodes[i].Layer, n.Layers[i])
			}
		}
		if isDAG := !g.IsChain(); isDAG != wantDAG[name] {
			t.Errorf("%s: IsChain = %v, want %v", name, g.IsChain(), !wantDAG[name])
		}
	}
}

// TestTopologyCSVsLoadAsGraphs: every shipped SCALE-Sim topology parses
// into a valid graph, with the flattened depth-wise layers retyped and
// GoogLeNet's inception joins recovered as concatenations.
func TestTopologyCSVsLoadAsGraphs(t *testing.T) {
	dir := filepath.Join("..", "..", "topologies")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantDW := map[string]int{
		"MobileNet.csv": 13, "MobileNetV2.csv": 17, "MnasNet.csv": 17,
		"EfficientNetB0.csv": 16, "TinyCNN.csv": 1,
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".csv") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		g, err := ReadTopologyGraphCSV(strings.TrimSuffix(e.Name(), ".csv"), f)
		f.Close()
		if err != nil {
			t.Errorf("%s: %v", e.Name(), err)
			continue
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", e.Name(), err)
		}
		dw := 0
		for i := range g.Nodes {
			if g.Nodes[i].Layer.Kind == layer.DepthwiseConv {
				dw++
			}
		}
		if want, ok := wantDW[e.Name()]; ok && dw != want {
			t.Errorf("%s: recovered %d depth-wise layers, want %d", e.Name(), dw, want)
		}
	}
}

func TestGoogLeNetCSVRecoversInceptionJoins(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "..", "topologies", "GoogLeNet.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := ReadTopologyGraphCSV("GoogLeNet", f)
	if err != nil {
		t.Fatal(err)
	}
	joins := 0
	for i := range g.Nodes {
		if len(g.Nodes[i].Inputs) >= 2 {
			joins++
		}
	}
	// 9 inception modules, each read by several branch heads plus the
	// module that follows: the CSV walk finds 34 concat reads.
	if joins != 34 {
		t.Errorf("recovered %d concatenation reads, want 34", joins)
	}
	if g.IsChain() {
		t.Error("GoogLeNet CSV graph claims to be a chain")
	}
}

// TestReadTopologyCSVRejectsDiscontinuity: a topology whose shapes cannot
// possibly flow into each other is a malformed model and must surface the
// typed taxonomy, not load silently.
func TestReadTopologyCSVRejectsDiscontinuity(t *testing.T) {
	bad := "Layer name,IFMAP Height,IFMAP Width,Filter Height,Filter Width,Channels,Num Filter,Strides,\n" +
		"conv1,32,32,3,3,3,16,1,\n" +
		"conv2,99,99,3,3,7,16,1,\n" // neither 16 channels nor any view of conv1
	_, err := ReadTopologyCSV("bad", strings.NewReader(bad))
	if err == nil {
		t.Fatal("discontinuous topology loaded")
	}
	if !errors.Is(err, smmerr.ErrBadModel) {
		t.Fatalf("error %v does not wrap ErrBadModel", err)
	}
	if _, err := ReadTopologyGraphCSV("bad", strings.NewReader(bad)); !errors.Is(err, smmerr.ErrBadModel) {
		t.Fatalf("graph reader error %v does not wrap ErrBadModel", err)
	}
}

func TestReadTopologyCSVRejectsMalformedRows(t *testing.T) {
	for name, body := range map[string]string{
		"short row":    "Layer name,IFMAP Height,IFMAP Width,Filter Height,Filter Width,Channels,Num Filter,Strides,\nconv1,32,32,3\n",
		"non-numeric":  "Layer name,IFMAP Height,IFMAP Width,Filter Height,Filter Width,Channels,Num Filter,Strides,\nconv1,32,32,3,3,x,16,1,\n",
		"zero filters": "Layer name,IFMAP Height,IFMAP Width,Filter Height,Filter Width,Channels,Num Filter,Strides,\nconv1,32,32,3,3,3,0,1,\n",
	} {
		if _, err := ReadTopologyCSV("bad", strings.NewReader(body)); err == nil {
			t.Errorf("%s: loaded", name)
		} else if !errors.Is(err, smmerr.ErrBadModel) {
			t.Errorf("%s: error %v does not wrap ErrBadModel", name, err)
		}
	}
}

// TestGraphJSONRoundTrip: the JSON graph format carries edges exactly —
// a concatenation join and a residual — and legacy files without edge
// columns load as inferred chains.
func TestGraphJSONRoundTrip(t *testing.T) {
	const doc = `{"name": "join", "layers": [
		{"name": "a", "type": "CV", "ih": 8, "iw": 8, "ci": 3, "fh": 3, "fw": 3, "f": 4, "s": 1, "p": 1, "inputs": ["@in"]},
		{"name": "b", "type": "CV", "ih": 8, "iw": 8, "ci": 4, "fh": 3, "fw": 3, "f": 4, "s": 1, "p": 1, "inputs": ["a"], "residual": ["a"]},
		{"name": "c", "type": "PW", "ih": 8, "iw": 8, "ci": 8, "fh": 1, "fw": 1, "f": 4, "s": 1, "p": 0, "inputs": ["a", "b"]}
	]}`
	g, err := ReadGraphJSON(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	want := []GraphNode{
		{Layer: layer.MustNew("a", layer.Conv, 8, 8, 3, 3, 3, 4, 1, 1), Inputs: []string{"@in"}},
		{Layer: layer.MustNew("b", layer.Conv, 8, 8, 4, 3, 3, 4, 1, 1), Inputs: []string{"a"}, Residual: []string{"a"}},
		{Layer: layer.MustNew("c", layer.PointwiseConv, 8, 8, 8, 1, 1, 4, 1, 0), Inputs: []string{"a", "b"}},
	}
	if g.Name != "join" || len(g.Nodes) != len(want) {
		t.Fatalf("read %q with %d nodes, want join with %d", g.Name, len(g.Nodes), len(want))
	}
	for i := range want {
		a, b := &want[i], &g.Nodes[i]
		if a.Layer != b.Layer {
			t.Fatalf("node %d layer = %+v, want %+v", i, b.Layer, a.Layer)
		}
		if strings.Join(a.Inputs, "|") != strings.Join(b.Inputs, "|") ||
			strings.Join(a.Residual, "|") != strings.Join(b.Residual, "|") {
			t.Fatalf("node %d edges = %v/%v, want %v/%v", i, b.Inputs, b.Residual, a.Inputs, a.Residual)
		}
	}
	if g.IsChain() {
		t.Error("a graph with a concatenation join read as a chain")
	}

	// A legacy linear JSON file (no edge columns) loads as a chain.
	n, err := Builtin("MobileNet")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lg, err := ReadGraphJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !lg.IsChain() {
		t.Error("legacy linear JSON did not load as a chain")
	}
}

// TestGraphLayerBound: graph input obeys Network.Validate's layer bound. A
// chain of MaxLayers nodes reads; one more is refused as a bad model.
func TestGraphLayerBound(t *testing.T) {
	chain := func(nodes int) string {
		var b strings.Builder
		b.WriteString(`{"name": "long", "layers": [`)
		for i := 0; i < nodes; i++ {
			if i > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, `{"name": "l%d", "type": "PW", "ih": 4, "iw": 4, "ci": 4, "fh": 1, "fw": 1, "f": 4, "s": 1, "p": 0}`, i)
		}
		b.WriteString("]}")
		return b.String()
	}
	g, err := ReadGraphJSON(strings.NewReader(chain(MaxLayers)))
	if err != nil {
		t.Fatalf("a %d-node chain was refused: %v", MaxLayers, err)
	}
	if len(g.Nodes) != MaxLayers || !g.IsChain() {
		t.Fatalf("read %d nodes (chain %t), want a %d-node chain", len(g.Nodes), g.IsChain(), MaxLayers)
	}
	if _, err := ReadGraphJSON(strings.NewReader(chain(MaxLayers + 1))); !errors.Is(err, smmerr.ErrBadModel) {
		t.Fatalf("a %d-node chain: err = %v, want ErrBadModel", MaxLayers+1, err)
	}
}

// TestGraphValidateRejects: the structural failure modes all wrap
// ErrBadModel.
func TestGraphValidateRejects(t *testing.T) {
	conv := func(name string, ci, f int) layer.Layer {
		return layer.MustNew(name, layer.Conv, 8, 8, ci, 3, 3, f, 1, 1)
	}
	cases := map[string]*Graph{
		"unknown input": {Name: "g", Nodes: []GraphNode{
			{Layer: conv("a", 3, 8), Inputs: []string{"ghost"}},
		}},
		"forward read": {Name: "g", Nodes: []GraphNode{
			{Layer: conv("a", 3, 8), Inputs: []string{"b"}},
			{Layer: conv("b", 8, 8), Inputs: []string{"a"}},
		}},
		"channel mismatch": {Name: "g", Nodes: []GraphNode{
			{Layer: conv("a", 3, 8), Inputs: []string{"@in0"}},
			{Layer: conv("b", 99, 8), Inputs: []string{"a"}},
		}},
		"duplicate producer": {Name: "g", Nodes: []GraphNode{
			{Layer: conv("a", 3, 8), Inputs: []string{"@in0"}},
			{Layer: conv("a", 8, 8), Inputs: []string{"a"}},
		}},
		"external residual": {Name: "g", Nodes: []GraphNode{
			{Layer: conv("a", 3, 8), Inputs: []string{"@in0"}},
			{Layer: conv("b", 8, 8), Inputs: []string{"a"}, Residual: []string{"@in0"}},
		}},
	}
	for name, g := range cases {
		if err := g.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		} else if !errors.Is(err, smmerr.ErrBadModel) {
			t.Errorf("%s: error %v does not wrap ErrBadModel", name, err)
		}
	}
}
