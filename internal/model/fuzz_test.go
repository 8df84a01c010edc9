package model

import (
	"strings"
	"testing"
)

// FuzzReadJSON: arbitrary input must never panic, and ReadJSON must agree
// with encoding/json (referenceReadJSON) on every input: the same decision,
// bar a duplicated member, and for accepted input a reflect.DeepEqual
// network whose canonical and indented bytes match json.Marshal's.
func FuzzReadJSON(f *testing.F) {
	var seed strings.Builder
	if err := ResNet18().WriteJSON(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add(`{"name":"x","layers":[{"name":"l","type":"CV","ih":4,"iw":4,"ci":1,"fh":3,"fw":3,"f":2,"s":1,"p":1}]}`)
	f.Add(`{"name":"","layers":[]}`)
	f.Add(`not json at all`)
	for _, c := range readJSONCases {
		f.Add(c.in)
	}
	f.Fuzz(func(t *testing.T, data string) {
		checkReadJSON(t, []byte(data))
	})
}

// FuzzReadTopologyCSV: arbitrary CSV must never panic; accepted inputs must
// be valid networks.
func FuzzReadTopologyCSV(f *testing.F) {
	var seed strings.Builder
	if err := MobileNet().WriteTopologyCSV(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("conv1, 8, 8, 3, 3, 2, 4, 1,\n")
	f.Add("Layer name, IFMAP Height, IFMAP Width, Filter Height, Filter Width, Channels, Num Filter, Strides,\n")
	f.Add("a,b,c\n")
	f.Fuzz(func(t *testing.T, data string) {
		n, err := ReadTopologyCSV("fuzz", strings.NewReader(data))
		if err != nil {
			return
		}
		if err := n.Validate(); err != nil {
			t.Fatalf("parser accepted invalid network: %v", err)
		}
	})
}
