package model

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"scratchmem/internal/layer"
)

// The reflection form of the network JSON schema. It is no longer used to
// read or write networks; it stays here as the reference that DecodeNetwork
// and appendNetwork are held to.

type jsonLayer struct {
	Name string `json:"name"`
	Type string `json:"type"`
	IH   int    `json:"ih"`
	IW   int    `json:"iw"`
	CI   int    `json:"ci"`
	FH   int    `json:"fh"`
	FW   int    `json:"fw"`
	F    int    `json:"f"`
	S    int    `json:"s"`
	P    int    `json:"p"`
}

type jsonNetwork struct {
	Name   string      `json:"name"`
	Layers []jsonLayer `json:"layers"`
}

func toJSON(n *Network) jsonNetwork {
	jn := jsonNetwork{Name: n.Name, Layers: make([]jsonLayer, len(n.Layers))}
	for i, l := range n.Layers {
		jn.Layers[i] = jsonLayer{
			Name: l.Name, Type: l.Kind.String(),
			IH: l.IH, IW: l.IW, CI: l.CI, FH: l.FH, FW: l.FW, F: l.F, S: l.S, P: l.P,
		}
	}
	return jn
}

// referenceReadJSON is ReadJSON as encoding/json implemented it.
func referenceReadJSON(r io.Reader) (*Network, error) {
	var jn jsonNetwork
	if err := json.NewDecoder(r).Decode(&jn); err != nil {
		return nil, fmt.Errorf("model: decoding JSON: %w", err)
	}
	n := &Network{Name: jn.Name, Layers: make([]layer.Layer, len(jn.Layers))}
	for i, jl := range jn.Layers {
		kind, err := layer.ParseType(jl.Type)
		if err != nil {
			return nil, fmt.Errorf("model: layer %d (%s): %w", i+1, jl.Name, err)
		}
		l, err := layer.New(jl.Name, kind, jl.IH, jl.IW, jl.CI, jl.FH, jl.FW, jl.F, jl.S, jl.P)
		if err != nil {
			return nil, err
		}
		n.Layers[i] = l
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return n, nil
}

// referenceCanonical and referenceIndented are CanonicalJSON and WriteJSON
// as encoding/json implemented them.
func referenceCanonical(n *Network) []byte {
	b, err := json.Marshal(toJSON(n))
	if err != nil {
		panic(err)
	}
	return b
}

func referenceIndented(n *Network) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(toJSON(n)); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// hasDuplicateMember reports whether some object in the first JSON value of
// data names two members that encoding/json would match to the same field
// (equal under its case folding). It is the one accept-set difference
// between ReadJSON and referenceReadJSON: the reference lets the last
// duplicate win, ReadJSON rejects it with ErrDuplicateMember.
func hasDuplicateMember(data []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	type frame struct {
		object bool
		keys   []string
		key    bool // the next string token is a key
	}
	var stack []frame
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		if len(stack) > 0 {
			top := &stack[len(stack)-1]
			if k, ok := tok.(string); ok && top.object && top.key {
				for _, prev := range top.keys {
					if strings.EqualFold(prev, k) {
						return true
					}
				}
				top.keys = append(top.keys, k)
				top.key = false
				continue
			}
			if top.object {
				top.key = true // this token is the member's value (or opens it)
			}
		}
		switch tok {
		case json.Delim('{'):
			stack = append(stack, frame{object: true, key: true})
			continue
		case json.Delim('['):
			stack = append(stack, frame{})
			continue
		case json.Delim('}'), json.Delim(']'):
			stack = stack[:len(stack)-1]
			if len(stack) > 0 && stack[len(stack)-1].object {
				stack[len(stack)-1].key = true
			}
		}
		if len(stack) == 0 {
			return false
		}
	}
}

// checkReadJSON holds ReadJSON to the reference on one input: the same
// decision (bar duplicate members), the same network, and the same bytes
// from both encoders.
func checkReadJSON(t *testing.T, data []byte) {
	t.Helper()
	got, err := ReadJSON(bytes.NewReader(data))
	want, werr := referenceReadJSON(bytes.NewReader(data))
	switch {
	case err != nil && werr == nil:
		if !errors.Is(err, ErrDuplicateMember) || !hasDuplicateMember(data) {
			t.Fatalf("%q: ReadJSON rejects what encoding/json accepts: %v", data, err)
		}
		return
	case err == nil && werr != nil:
		t.Fatalf("%q: ReadJSON accepts what encoding/json rejects: %v", data, werr)
	case err != nil:
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: networks differ:\n got %+v\nwant %+v", data, got, want)
	}
	canon, _ := CanonicalJSON(got)
	if ref := referenceCanonical(got); !bytes.Equal(canon, ref) {
		t.Fatalf("%q: canonical bytes differ:\n got %s\nwant %s", data, canon, ref)
	}
	var indented bytes.Buffer
	if err := got.WriteJSON(&indented); err != nil {
		t.Fatal(err)
	}
	if ref := referenceIndented(got); !bytes.Equal(indented.Bytes(), ref) {
		t.Fatalf("%q: WriteJSON differs:\n got %s\nwant %s", data, indented.Bytes(), ref)
	}
	// A decoded network's canonical form reads back to the same network.
	back, err := ReadJSON(bytes.NewReader(canon))
	if err != nil || !reflect.DeepEqual(back, got) {
		t.Fatalf("%q: canonical form does not round-trip: %v", data, err)
	}
}

// tinyLayer is a valid layer body for the accept-set cases.
const tinyLayer = `"name":"l","type":"CV","ih":4,"iw":4,"ci":1,"fh":3,"fw":3,"f":2,"s":1,"p":1`

// readJSONCases pin the accept set: encoding/json's, with duplicated
// members refused.
var readJSONCases = []struct {
	name string
	in   string
	ok   bool
}{
	{"valid", `{"name":"x","layers":[{` + tinyLayer + `}]}`, true},
	{"upper-case member", `{"NAME":"x","Layers":[{` + strings.Replace(tinyLayer, `"ih"`, `"IH"`, 1) + `}]}`, true},
	{"long s folds to s", `{"name":"x","layers":[{` + strings.Replace(tinyLayer, `"s"`, `"ſ"`, 1) + `}]}`, true},
	{"escaped member name", `{"\u006eame":"x","layers":[{` + tinyLayer + `}]}`, true},
	{"unknown members ignored", `{"name":"x","extra":{"deep":[1,2,{"a":null}]},"layers":[{` + tinyLayer + `,"bias":true}]}`, true},
	{"null member unset", `{"name":null,"layers":[{` + strings.Replace(tinyLayer, `"p":1`, `"p":null`, 1) + `}]}`, false},
	{"null padding", `{"name":"x","layers":[{` + strings.Replace(tinyLayer, `"p":1`, `"p":null`, 1) + `}]}`, true},
	{"minus zero", `{"name":"x","layers":[{` + strings.Replace(tinyLayer, `"p":1`, `"p":-0`, 1) + `}]}`, true},
	{"trailing bytes ignored", `{"name":"x","layers":[{` + tinyLayer + `}]} trailing {`, true},
	{"escaped names", `{"name":"a\"b\\c 😀\ud800x","layers":[{` + strings.Replace(tinyLayer, `"l"`, `"<l>&\t"`, 1) + `}]}`, true},
	{"invalid UTF-8 name", "{\"name\":\"bad\xffbyte\",\"layers\":[{" + tinyLayer + "}]}", true},
	{"exponent int", `{"name":"x","layers":[{` + strings.Replace(tinyLayer, `"ih":4`, `"ih":1e1`, 1) + `}]}`, false},
	{"fraction int", `{"name":"x","layers":[{` + strings.Replace(tinyLayer, `"ih":4`, `"ih":8.0`, 1) + `}]}`, false},
	{"int64 overflow", `{"name":"x","layers":[{` + strings.Replace(tinyLayer, `"ih":4`, `"ih":9223372036854775808`, 1) + `}]}`, false},
	{"string int", `{"name":"x","layers":[{` + strings.Replace(tinyLayer, `"ih":4`, `"ih":"4"`, 1) + `}]}`, false},
	{"null network", `null`, false},
	{"array network", `[]`, false},
	{"null layer", `{"name":"x","layers":[null]}`, false},
	{"no layers", `{"name":"x","layers":[]}`, false},
	{"leading zero", `{"name":"x","layers":[{` + strings.Replace(tinyLayer, `"ih":4`, `"ih":04`, 1) + `}]}`, false},
	{"control byte in string", "{\"name\":\"a\x01\",\"layers\":[{" + tinyLayer + "}]}", false},
	{"bad escape", `{"name":"a\x","layers":[{` + tinyLayer + `}]}`, false},
	{"truncated", `{"name":"x","layers":[{` + tinyLayer, false},
	{"deep nesting", deepNetwork(64), true},
	{"duplicate name", `{"name":"x","name":"y","layers":[{` + tinyLayer + `}]}`, false},
	{"duplicate folded", `{"name":"x","layers":[{` + tinyLayer + `,"IH":4}]}`, false},
	{"duplicate layers", `{"name":"x","layers":[{` + tinyLayer + `}],"layers":[{"f":3}]}`, false},
}

// deepNetwork nests arrays depth levels deep inside an unknown member.
func deepNetwork(depth int) string {
	return `{"name":"x","deep":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `,"layers":[{` + tinyLayer + `}]}`
}

// TestReadJSONNestingLimit: ReadJSON stops at encoding/json's nesting
// limit, 10000 levels counted from the root.
func TestReadJSONNestingLimit(t *testing.T) {
	for _, depth := range []int{9999, 10000} {
		in := deepNetwork(depth)
		if _, err := ReadJSON(strings.NewReader(in)); (err == nil) != (depth == 9999) {
			t.Errorf("depth %d: error %v", depth+1, err)
		}
		checkReadJSON(t, []byte(in))
	}
}

// TestReadJSONAcceptSet: the pinned cases decide as listed, and agree with
// encoding/json wherever no member is duplicated.
func TestReadJSONAcceptSet(t *testing.T) {
	for _, c := range readJSONCases {
		_, err := ReadJSON(strings.NewReader(c.in))
		if (err == nil) != c.ok {
			t.Errorf("%s: accepted=%t, want %t (%v)", c.name, err == nil, c.ok, err)
		}
		if strings.HasPrefix(c.name, "duplicate") && !errors.Is(err, ErrDuplicateMember) {
			t.Errorf("%s: error %v does not wrap ErrDuplicateMember", c.name, err)
		}
		checkReadJSON(t, []byte(c.in))
	}
}

// TestCanonicalJSONMatchesMarshal: both encoders write exactly what
// encoding/json writes, for every builtin and for names that need every
// kind of escape.
func TestCanonicalJSONMatchesMarshal(t *testing.T) {
	nets := Builtins()
	for _, name := range []string{`q"uote`, `back\slash`, "<a>&b", "ctl\x00\x01\b\f\n\r\t\x1f\x7f", "ls ps ",
		"bad\xff\xc3(\xed\xa0\x80", "�", "ſtrict 日本"} {
		nets = append(nets, &Network{Name: name, Layers: []layer.Layer{
			layer.MustNew(name, layer.Conv, 8, 8, 3, 3, 3, 4, 1, 1),
		}}, &Network{Name: name})
	}
	for _, n := range nets {
		canon, _ := CanonicalJSON(n)
		if ref := referenceCanonical(n); !bytes.Equal(canon, ref) {
			t.Errorf("%q: CanonicalJSON\n got %s\nwant %s", n.Name, canon, ref)
		}
		var buf bytes.Buffer
		if err := n.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if ref := referenceIndented(n); !bytes.Equal(buf.Bytes(), ref) {
			t.Errorf("%q: WriteJSON\n got %s\nwant %s", n.Name, buf.Bytes(), ref)
		}
	}
}
