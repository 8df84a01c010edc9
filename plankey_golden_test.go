package scratchmem

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"scratchmem/internal/layer"
	"scratchmem/internal/model"
)

var updateKeys = flag.Bool("update", false, "rewrite testdata/plankeys.golden")

// planKeyGoldenPath pins today's plan keys: snapshots and fleet members
// address plans by them, so no change to how a key is computed may change
// one. Regenerate only for a deliberate key change:
//
//	go test -run TestPlanKeyGolden -update .
const planKeyGoldenPath = "testdata/plankeys.golden"

// awkwardNames are network and layer names whose canonical JSON exercises
// every escaping rule of json.Marshal: quotes, backslashes, the HTML
// characters, control bytes, the JavaScript line separators and invalid
// UTF-8 (written as the escape \ufffd).
var awkwardNames = []struct{ label, name string }{
	{"quote", `net "quoted"`},
	{"backslash", `C:\nets\tiny`},
	{"html", "<b>a&b</b>"},
	{"control", "tab\there\nnl\x00nul\x1fus\x7fdel"},
	{"linesep", "ls\u2028ps\u2029end"},
	{"invalid-utf8", "bad\xffbyte\xc3(\xed\xa0\x80end"},
	{"replacement", "rep\ufffdchar"},
	{"unicode", "ſtrict Kelvin\u212a é 日本"},
}

// planKeyGolden renders every pinned key, one "label key" line each.
func planKeyGolden(t *testing.T) []byte {
	t.Helper()
	var out bytes.Buffer
	key := func(label string, n *Network, o PlanOptions) {
		k, err := PlanKey(n, o)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		fmt.Fprintf(&out, "%s %s\n", label, k)
	}
	for _, name := range model.AllBuiltinNames() {
		n, err := BuiltinModel(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, obj := range []Objective{MinAccesses, MinLatency} {
			for _, hom := range []bool{false, true} {
				for _, noPrefetch := range []bool{false, true} {
					for _, inter := range []bool{false, true} {
						for _, strict := range []bool{false, true} {
							o := PlanOptions{GLBKiloBytes: 64, Objective: obj, Homogeneous: hom,
								DisablePrefetch: noPrefetch, InterLayerReuse: inter, Strict: strict}
							key(fmt.Sprintf("%s/%s/hom=%t/noprefetch=%t/interlayer=%t/strict=%t",
								name, obj, hom, noPrefetch, inter, strict), n, o)
						}
					}
				}
			}
		}
	}
	n, err := BuiltinModel("MobileNetV2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(96)
	key("MobileNetV2/glb_kb=96", n, PlanOptions{GLBKiloBytes: 96})
	key("MobileNetV2/config=96kB", n, PlanOptions{Config: cfg})
	for _, batch := range []int{0, 1, 4} {
		c := cfg
		c.Batch = batch
		key(fmt.Sprintf("MobileNetV2/config=96kB/batch=%d", batch), n, PlanOptions{Config: c})
	}
	noPad := cfg
	noPad.IncludePadding = false
	key("MobileNetV2/config=96kB/include_padding=false", n, PlanOptions{Config: noPad})
	wide := cfg
	wide.DataWidthBits, wide.OpsPerCycle, wide.DRAMBytesPerCycle = 16, 1024, 32
	key("MobileNetV2/config=96kB/width=16/ops=1024/dram=32", n, PlanOptions{Config: wide})

	for _, a := range awkwardNames {
		n := &Network{Name: a.name, Layers: []layer.Layer{
			layer.MustNew(a.name, layer.Conv, 8, 8, 3, 3, 3, 4, 1, 1),
			layer.MustNew("fc "+a.name, layer.FullyConnected, 1, 1, 256, 1, 1, 10, 1, 0),
		}}
		canon, err := model.CanonicalJSON(n)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "inline/%s/canonical-sha256 %x\n", a.label, sha256.Sum256(canon))
		key("inline/"+a.label, n, PlanOptions{GLBKiloBytes: 32})
	}
	return out.Bytes()
}

// TestPlanKeyGolden: every pinned key and canonical digest must match the
// golden file generated before the network decoder and encoder were
// rewritten.
func TestPlanKeyGolden(t *testing.T) {
	got := planKeyGolden(t)
	if *updateKeys {
		if err := os.MkdirAll(filepath.Dir(planKeyGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(planKeyGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(planKeyGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	if len(gl) != len(wl) {
		t.Fatalf("%d golden lines, want %d", len(gl), len(wl))
	}
	for i := range gl {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
}

// TestPlanKeyOptionsEncoding: PlanKey writes the options half of the key
// by hand. It must stay the bytes json.Marshal gives the fixed-field
// struct, so a field added to Config must be added to the key too.
func TestPlanKeyOptionsEncoding(t *testing.T) {
	if n := reflect.TypeOf(Config{}).NumField(); n != 6 {
		t.Fatalf("Config has %d fields; PlanKey encodes 6 of them", n)
	}
	n, err := BuiltinModel("ResNet18")
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []PlanOptions{
		{GLBKiloBytes: 64},
		{Config: Config{GLBBytes: 1 << 40, DataWidthBits: 32, OpsPerCycle: 2, DRAMBytesPerCycle: 1 << 30, Batch: 7},
			Objective: MinLatency, Homogeneous: true, DisablePrefetch: true, InterLayerReuse: true, Strict: true},
	} {
		cfg, err := o.config()
		if err != nil {
			t.Fatal(err)
		}
		canon, _ := model.CanonicalJSON(n)
		opts, err := json.Marshal(struct {
			Cfg             Config
			Objective       string
			Homogeneous     bool
			DisablePrefetch bool
			InterLayerReuse bool
			Strict          bool
		}{cfg, o.Objective.String(), o.Homogeneous, o.DisablePrefetch, o.InterLayerReuse, o.Strict})
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("%x", sha256.Sum256(append(append(canon, 0), opts...)))
		if got, _ := PlanKey(n, o); got != want {
			t.Errorf("%+v: key %s, json.Marshal gives %s", o, got, want)
		}
	}
}
