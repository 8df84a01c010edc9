package model

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"scratchmem/internal/layer"
)

// mutants returns base followed by one-layer mutants of it: the i'th has
// one more filter in layer i%L (one more channel in a depth-wise layer)
// and its own name.
func mutants(base *Network, count int) []*Network {
	out := []*Network{base}
	for i := 1; i < count; i++ {
		ls := append([]layer.Layer(nil), base.Layers...)
		l := &ls[i%len(ls)]
		if l.Kind == layer.DepthwiseConv {
			l.CI++
		} else {
			l.F++
		}
		out = append(out, &Network{Name: base.Name + "~" + l.Name, Layers: ls})
	}
	return out
}

// TestDecodeNetworkReuse: networks decoded one after another on one reader
// reuse every layer they repeat at the same index from the last accepted
// network, and each comes out as it does decoded alone, with canonical
// bytes equal to AppendCanonicalJSON's.
func TestDecodeNetworkReuse(t *testing.T) {
	for _, base := range []*Network{ResNet18(), MobileNetV2(), GoogLeNet()} {
		nets := mutants(base, 24)
		doc := []byte{'['}
		for i, n := range nets {
			if i > 0 {
				doc = append(doc, ',')
			}
			doc = AppendCanonicalJSON(doc, n)
		}
		doc = append(doc, ']')
		rd := NewJSONReader(doc)
		if !rd.Array() {
			t.Fatal(rd.Err())
		}
		for i := 0; rd.Elem(); i++ {
			rd.Next()
			start := rd.Offset()
			got, canon, err := DecodeNetwork(rd)
			if err != nil {
				t.Fatalf("%s item %d: %v", base.Name, i, err)
			}
			reused := 0
			for _, r := range rd.layers {
				if r.reused {
					reused++
				}
			}
			// Item i differs from item i-1 in layers i%L and (i-1)%L, except
			// that item 1 differs from the base in one layer only.
			want := len(base.Layers) - min(i, 2)
			if i == 0 {
				want = 0
			}
			if reused != want {
				t.Errorf("%s item %d: %d layers reused, want %d", base.Name, i, reused, want)
			}
			alone, aloneCanon, err := DecodeNetwork(NewJSONReader(doc[start:rd.Offset()]))
			if err != nil || !reflect.DeepEqual(got, alone) || !bytes.Equal(canon, aloneCanon) {
				t.Fatalf("%s item %d: differs from its decode alone (%v)", base.Name, i, err)
			}
			if !reflect.DeepEqual(got, nets[i]) || !bytes.Equal(canon, AppendCanonicalJSON(nil, got)) {
				t.Fatalf("%s item %d: decodes to another network or canonical form", base.Name, i)
			}
		}
	}
}

// TestDecodeNetworkReuseDepth: an entry is reused only at the nesting
// depth it was read at. A layer whose unknown member nests to exactly
// encoding/json's limit decodes inside a network at one depth; the same
// bytes one level deeper exceed it, and must still be a syntax error.
func TestDecodeNetworkReuseDepth(t *testing.T) {
	// Inside the outer array, the network object and "layers", the layer
	// object is at depth 4, so 9996 arrays reach 10000.
	ly := `{"name":"l","type":"CV","ih":4,"iw":4,"ci":1,"fh":3,"fw":3,"f":2,"s":1,"p":1,"x":` +
		strings.Repeat("[", 9996) + strings.Repeat("]", 9996) + `}`
	net := func(name string) string { return `{"name":"` + name + `","layers":[` + ly + `]}` }
	rd := NewJSONReader([]byte(`[` + net("a") + `,[` + net("b") + `]]`))
	rd.Array()
	rd.Elem()
	if _, _, err := DecodeNetwork(rd); err != nil {
		t.Fatalf("at the limit: %v", err)
	}
	rd.Elem()
	rd.Array()
	rd.Elem()
	if _, _, err := DecodeNetwork(rd); err == nil || rd.Err() == nil {
		t.Fatalf("one level deeper: error %v, want a syntax error", err)
	}
}

// TestDecodeNetworkReuseOnlyAccepted: a network that fails to decode or
// validate lends nothing to the next one, and a layer that made its
// network fail fails again when repeated.
func TestDecodeNetworkReuseOnlyAccepted(t *testing.T) {
	const good = `{"name":"l","type":"CV","ih":4,"iw":4,"ci":1,"fh":3,"fw":3,"f":2,"s":1,"p":1}`
	const dup = `{"name":"l","NAME":"m","type":"CV","ih":4,"iw":4,"ci":1,"fh":3,"fw":3,"f":2,"s":1,"p":1}`
	for _, tc := range []struct{ first, second string }{
		{`{"layers":[` + good + `]}`, `{"name":"b","layers":[` + good + `]}`}, // no name
		{`{"name":"a","layers":[` + dup + `]}`, `{"name":"b","layers":[` + dup + `]}`},
		{`{"name":"a","layers":[` + good + `,{"type":"XX"}]}`, `{"name":"b","layers":[` + good + `,{"type":"XX"}]}`},
	} {
		rd := NewJSONReader([]byte(`[` + tc.first + `,` + tc.second + `]`))
		rd.Array()
		rd.Elem()
		if _, _, err := DecodeNetwork(rd); err == nil {
			t.Fatalf("%s: accepted", tc.first)
		}
		rd.Elem()
		_, _, err := DecodeNetwork(rd)
		_, _, alone := DecodeNetwork(NewJSONReader([]byte(tc.second)))
		if (err == nil) != (alone == nil) || rd.layers[0].reused {
			t.Fatalf("%s after %s: %v, alone %v, reused %t", tc.second, tc.first, err, alone, rd.layers[0].reused)
		}
	}
}
