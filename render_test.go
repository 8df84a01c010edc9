package scratchmem

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"scratchmem/internal/model"
)

// referenceRender is what PlanDoc.MarshalIndent must reproduce byte for
// byte: the standard library's indent of the document plus a newline.
func referenceRender(d *PlanDoc) ([]byte, error) {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// checkRender compares d's canonical rendering with the reference and
// requires the body to be allocated at exactly its length.
func checkRender(t *testing.T, what string, d *PlanDoc) {
	t.Helper()
	want, wantErr := referenceRender(d)
	got, err := d.MarshalIndent()
	if wantErr != nil || err != nil {
		if (wantErr == nil) != (err == nil) {
			t.Fatalf("%s: MarshalIndent error %v, reference error %v", what, err, wantErr)
		}
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: rendering differs from json.MarshalIndent\n got %q\nwant %q", what, got, want)
	}
	if cap(got) != len(got) {
		t.Fatalf("%s: body has cap %d for len %d", what, cap(got), len(got))
	}
}

// TestPlanDocRenderEquivalence pins the one-pass indent against
// json.MarshalIndent over every builtin × GLB × option set. The 1 kB
// column degrades most models, so degraded_reasons are covered.
func TestPlanDocRenderEquivalence(t *testing.T) {
	sets := []struct {
		name string
		opts PlanOptions
	}{
		{"het", PlanOptions{}},
		{"het+interlayer", PlanOptions{InterLayerReuse: true}},
		{"hom", PlanOptions{Homogeneous: true}},
		{"latency", PlanOptions{Objective: MinLatency}},
	}
	var degraded int
	for _, name := range model.AllBuiltinNames() {
		net, err := BuiltinModel(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, kb := range []int{1, 16, 64, 256, 4096} {
			for _, set := range sets {
				o := set.opts
				o.GLBKiloBytes = kb
				p, err := PlanModel(net, o)
				if err != nil {
					t.Fatalf("%s@%d/%s: %v", name, kb, set.name, err)
				}
				checkRender(t, name+"/"+set.name, PlanDocument(p))
				if p.Degraded {
					degraded++
				}
			}
		}
	}
	if degraded == 0 {
		t.Fatal("coverage: no degraded document")
	}
}

// FuzzPlanDocRender renders documents whose string fields carry quotes,
// backslashes, HTML-escaped bytes, U+2028 and invalid UTF-8, and whose
// numbers span the int64 and float64 ranges (NaN and ±Inf must fail in
// both renderers). shape picks which optional sections are nil, empty or
// populated, so empty objects and arrays are covered too.
func FuzzPlanDocRender(f *testing.F) {
	f.Add("TinyCNN", `p"4\`, int64(1)<<40, 0.5, uint8(0xff))
	f.Add("<a&b>  ", "\xff\xfe\\\\\"", int64(-1), 1e-7, uint8(0))
	f.Add("\x00\n\t\x1f", `A\"`, int64(math.MinInt64), 1e21, uint8(0x55))
	f.Add("line\u2028sep\u2029", "", int64(0), math.Copysign(0, -1), uint8(0xaa))
	f.Add("end\\", "\"", int64(math.MaxInt64), math.Inf(1), uint8(0x0f))
	f.Fuzz(func(t *testing.T, s, u string, n int64, x float64, shape uint8) {
		d := &PlanDoc{
			Model:                s,
			Scheme:               u,
			Objective:            s + u,
			Config:               ConfigDoc{GLBBytes: n, DataWidthBits: int(shape), Batch: int(n % 7)},
			Totals:               PlanTotalsDoc{AccessElems: n, AccessBytes: -n, LatencyCycles: n / 3, MaxMemoryBytes: n >> 1},
			PrefetchCoverage:     x,
			InterLayerCoverage:   -x,
			ChainableTransitions: int(n % 1000),
			Feasible:             shape&1 != 0,
			Degraded:             shape&2 != 0,
			DegradedMode:         u,
		}
		layer := LayerPlanDoc{Name: u, Policy: s, Prefetch: shape&4 != 0, N: int(shape), MemoryBytes: n,
			AccessElems: -n, AccessBytes: n, LatencyCycles: n, ConsumesResident: shape&8 != 0, KeepsResident: shape&16 != 0}
		// Each two-bit field of shape picks nil, empty, one or two elements.
		pick := func(k int) int { return int(shape>>(2*k)) & 3 }
		if c := pick(0); c > 0 {
			d.Layers = make([]LayerPlanDoc, c-1)
			for i := range d.Layers {
				d.Layers[i] = layer
			}
		}
		if c := pick(1); c > 0 {
			d.PolicyMix = make([]string, c-1)
			for i := range d.PolicyMix {
				d.PolicyMix[i] = s
			}
		}
		if c := pick(2); c > 0 {
			d.DegradedReasons = make([]DegradedReasonDoc, c-1)
			for i := range d.DegradedReasons {
				d.DegradedReasons[i] = DegradedReasonDoc{Mode: s, Error: u}
			}
		}
		checkRender(t, "fuzz", d)
	})
}

// TestPlanDocSchemaGuard fills every field of the PlanDoc schema (PlanDoc,
// ConfigDoc, LayerPlanDoc, PlanTotalsDoc and DegradedReasonDoc) with a
// non-zero value and every slice with two elements, so every member is
// written, and requires the encoder to match json.MarshalIndent. A field added to a document struct but not to the
// encoder fails here, as does a field of a kind the filler cannot set.
func TestPlanDocSchemaGuard(t *testing.T) {
	var n int64
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		n++
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 2, 2))
			fill(v.Index(0))
			fill(v.Index(1))
		case reflect.String:
			v.SetString(fmt.Sprintf("s%d <\"\\>", n))
		case reflect.Int, reflect.Int64:
			v.SetInt(n * -1000003)
		case reflect.Float64:
			v.SetFloat(float64(n) / 7)
		case reflect.Bool:
			v.SetBool(true)
		default:
			t.Fatalf("%s: the guard cannot fill a %s field", v.Type(), v.Kind())
		}
	}
	var d PlanDoc
	fill(reflect.ValueOf(&d).Elem())
	checkRender(t, "every field set", &d)
}

// BenchmarkPlanDocRender times the canonical render of a MobileNetV2 plan
// at 64 kB and of a GoogLeNet plan at 256 kB. The +PlanDocument
// sub-benchmarks time PlanDocument and MarshalIndent together, which is
// what the server pays for every fresh plan.
func BenchmarkPlanDocRender(b *testing.B) {
	net, err := BuiltinModel("MobileNetV2")
	if err != nil {
		b.Fatal(err)
	}
	mobile, err := PlanModel(net, PlanOptions{GLBKiloBytes: 64})
	if err != nil {
		b.Fatal(err)
	}
	gnet, err := BuiltinModel("GoogLeNet")
	if err != nil {
		b.Fatal(err)
	}
	google, err := PlanModel(gnet, PlanOptions{GLBKiloBytes: 256})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		plan *Plan
	}{{"MobileNetV2", mobile}, {"GoogLeNet", google}} {
		doc := PlanDocument(bc.plan)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := doc.MarshalIndent(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(bc.name+"+PlanDocument", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := PlanDocument(bc.plan).MarshalIndent(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// raceEnabled is set by race_test.go under the race detector, whose
// sync.Pool drops a random share of the items put back.
var raceEnabled bool

// TestPlanDocRenderAllocs bounds what every fresh plan's render allocates,
// in the style of core's TestWarmPlanAllocs: PlanDocument allocates the
// document, its layer slice and its policy mix, and nothing per layer;
// MarshalIndent allocates only the body.
func TestPlanDocRenderAllocs(t *testing.T) {
	net, err := BuiltinModel("MobileNetV2")
	if err != nil {
		t.Fatal(err)
	}
	p, err := PlanModel(net, PlanOptions{GLBKiloBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	var doc *PlanDoc
	if got := testing.AllocsPerRun(50, func() { doc = PlanDocument(p) }); got > 5 {
		t.Errorf("PlanDocument allocates %.1f objects/op, want <= 5", got)
	}
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops the render buffer at random")
	}
	got := testing.AllocsPerRun(50, func() {
		if _, err := doc.MarshalIndent(); err != nil {
			t.Fatal(err)
		}
	})
	if got != 1 {
		t.Errorf("MarshalIndent allocates %.1f objects/op, want exactly 1 (the body)", got)
	}
}
