package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	scratchmem "scratchmem"
	"scratchmem/internal/layer"
	"scratchmem/internal/model"
)

// This file holds the ingest seam to the request path it replaced, which
// decoded bodies with a strict json.Decoder into the public request structs
// and inline networks with encoding/json's reflection.

type refLayer struct {
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

type refNetwork struct {
	Name   string     `json:"name"`
	Layers []refLayer `json:"layers"`
}

func refToJSON(n *scratchmem.Network) refNetwork {
	jn := refNetwork{Name: n.Name, Layers: make([]refLayer, len(n.Layers))}
	for i, l := range n.Layers {
		jn.Layers[i] = refLayer{Name: l.Name, Type: l.Kind.String(),
			IH: l.IH, IW: l.IW, CI: l.CI, FH: l.FH, FW: l.FW, F: l.F, S: l.S, P: l.P}
	}
	return jn
}

func refReadNetwork(raw []byte) (*scratchmem.Network, error) {
	var jn refNetwork
	if err := json.NewDecoder(bytes.NewReader(raw)).Decode(&jn); err != nil {
		return nil, err
	}
	n := &scratchmem.Network{Name: jn.Name, Layers: make([]layer.Layer, len(jn.Layers))}
	for i, jl := range jn.Layers {
		kind, err := layer.ParseType(jl.Type)
		if err != nil {
			return nil, err
		}
		if n.Layers[i], err = layer.New(jl.Name, kind, jl.IH, jl.IW, jl.CI, jl.FH, jl.FW, jl.F, jl.S, jl.P); err != nil {
			return nil, err
		}
	}
	return n, n.Validate()
}

// refPlanKey is scratchmem.PlanKey as json.Marshal computed it.
func refPlanKey(n *scratchmem.Network, o scratchmem.PlanOptions) string {
	canon, err := json.Marshal(refToJSON(n))
	if err != nil {
		panic(err)
	}
	cfg := o.Config
	if cfg.Batch == 1 {
		cfg.Batch = 0
	}
	opts, err := json.Marshal(struct {
		Cfg             scratchmem.Config
		Objective       string
		Homogeneous     bool
		DisablePrefetch bool
		InterLayerReuse bool
		Strict          bool
	}{cfg, o.Objective.String(), o.Homogeneous, o.DisablePrefetch, o.InterLayerReuse, o.Strict})
	if err != nil {
		panic(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(append(append(canon, 0), opts...)))
}

// refResolve is the resolution the routes ran on a strictly decoded
// request.
func refResolve(pr *PlanRequest, kind bodyKind) (in planInput) {
	in.req = *pr
	fail := func(err error) planInput {
		return planInput{req: *pr, err: err}
	}
	if (pr.Model == "") == (len(pr.Network) == 0) {
		return fail(errors.New("exactly one of model or network"))
	}
	var err error
	if pr.Model != "" {
		in.net, err = scratchmem.BuiltinModel(pr.Model)
	} else {
		in.net, err = refReadNetwork(pr.Network)
	}
	if err != nil {
		return fail(err)
	}
	switch pr.Objective {
	case "", "accesses":
		in.opts.Objective = scratchmem.MinAccesses
	case "latency":
		in.opts.Objective = scratchmem.MinLatency
	default:
		return fail(errors.New("unknown objective"))
	}
	switch {
	case pr.Config != nil:
		in.opts.Config = pr.Config.ToConfig()
	case pr.GLBKiloBytes > 0:
		in.opts.Config = scratchmem.DefaultConfig(pr.GLBKiloBytes)
	default:
		return fail(errors.New("no glb_kb or config"))
	}
	if err := in.opts.Config.Validate(); err != nil {
		return fail(err)
	}
	in.opts.Homogeneous, in.opts.DisablePrefetch = pr.Homogeneous, pr.DisablePrefetch
	in.opts.InterLayerReuse, in.opts.Strict = pr.InterLayerReuse, pr.Strict
	keyOpts := in.opts
	if kind == dseBody {
		keyOpts = scratchmem.PlanOptions{Config: in.opts.Config}
	}
	in.key = refPlanKey(in.net, keyOpts)
	return in
}

// refIngest decodes a body the way the routes did: strictly, into the
// route's public request struct. err fails the whole body.
func refIngest(body []byte, kind bodyKind, batch bool) ([]planInput, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if batch {
		var br BatchRequest
		if err := dec.Decode(&br); err != nil {
			return nil, err
		}
		if len(br.Requests) == 0 || len(br.Requests) > maxBatchItems {
			return nil, errors.New("batch size")
		}
		items := make([]planInput, len(br.Requests))
		for i := range br.Requests {
			items[i] = refResolve(&br.Requests[i], planBody)
		}
		return items, nil
	}
	var sr SimulateRequest
	var err error
	if kind == simulateBody {
		err = dec.Decode(&sr)
	} else {
		err = dec.Decode(&sr.PlanRequest)
	}
	if err != nil {
		return nil, err
	}
	in := refResolve(&sr.PlanRequest, kind)
	in.baseline = sr.Baseline
	if in.err != nil {
		return nil, in.err
	}
	return []planInput{in}, nil
}

// duplicateMember reports whether some object in the body's first JSON
// value names two members that encoding/json matches to the same field
// (equal under its case folding). It recognises the one accept-set
// difference the seam is allowed: the reference let the last duplicate win
// (or merged a repeated array), the seam answers 400.
func duplicateMember(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	type frame struct {
		object, wantKey bool
		keys            []string
	}
	var stack []frame
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		if n := len(stack); n > 0 && stack[n-1].object {
			top := &stack[n-1]
			if k, ok := tok.(string); ok && top.wantKey {
				for _, prev := range top.keys {
					if strings.EqualFold(prev, k) {
						return true
					}
				}
				top.keys = append(top.keys, k)
				top.wantKey = false
				continue
			}
			top.wantKey = true
		}
		switch tok {
		case json.Delim('{'):
			stack = append(stack, frame{object: true, wantKey: true})
			continue
		case json.Delim('['):
			stack = append(stack, frame{})
			continue
		case json.Delim('}'), json.Delim(']'):
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			return false
		}
	}
}

// excused reports whether a seam rejection the reference does not share is
// the duplicate-member tightening.
func excused(err error, body []byte) bool {
	return errors.Is(err, model.ErrDuplicateMember) && duplicateMember(body)
}

// checkIngest holds the seam to the reference on one body and route.
func checkIngest(t *testing.T, body []byte, kind bodyKind, batch bool) {
	t.Helper()
	var got []planInput
	var err error
	if batch {
		got, err = ingestBatch(body)
	} else {
		var in planInput
		if err = ingest(&in, body, kind); err == nil {
			got = []planInput{in}
		}
	}
	want, werr := refIngest(body, kind, batch)
	route := fmt.Sprintf("kind %d batch %t: %q", kind, batch, body)
	switch {
	case err != nil && werr == nil:
		if !excused(err, body) {
			t.Fatalf("%s: the seam rejects what the reference accepts: %v", route, err)
		}
		return
	case err == nil && werr != nil:
		t.Fatalf("%s: the seam accepts what the reference rejects: %v", route, werr)
	case err != nil:
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d items, reference %d", route, len(got), len(want))
	}
	for i := range got {
		g, w := &got[i], &want[i]
		switch {
		case g.err != nil && w.err == nil:
			if !excused(g.err, body) {
				t.Fatalf("%s item %d: the seam rejects what the reference accepts: %v", route, i, g.err)
			}
			continue
		case g.err == nil && w.err != nil:
			t.Fatalf("%s item %d: the seam accepts what the reference rejects: %v", route, i, w.err)
		case g.err != nil:
			if code, _ := statusOf(g.err); code != http.StatusBadRequest {
				t.Fatalf("%s item %d: status %d, want 400", route, i, code)
			}
			continue
		}
		if !reflect.DeepEqual(g.net, w.net) {
			t.Fatalf("%s item %d: networks differ:\n got %+v\nwant %+v", route, i, g.net, w.net)
		}
		if g.opts != w.opts || !reflect.DeepEqual(g.req, w.req) || !reflect.DeepEqual(g.baseline, w.baseline) {
			t.Fatalf("%s item %d: requests differ:\n got %+v %+v\nwant %+v %+v", route, i, g.req, g.opts, w.req, w.opts)
		}
		canon, _ := model.CanonicalJSON(g.net)
		if ref, _ := json.Marshal(refToJSON(w.net)); !bytes.Equal(canon, ref) {
			t.Fatalf("%s item %d: canonical bytes differ:\n got %s\nwant %s", route, i, canon, ref)
		}
		if g.key != w.key {
			t.Fatalf("%s item %d: key %s, reference %s", route, i, g.key, w.key)
		}
	}
}

const ingestLayer = `{"name":"l","type":"CV","ih":4,"iw":4,"ci":1,"fh":3,"fw":3,"f":2,"s":1,"p":1}`

// ingestSeeds are bodies at the edges of the accept set.
var ingestSeeds = []string{
	`{"model": "TinyCNN", "glb_kb": 32}`,
	`{"model": "TinyCNN", "glb_kb": 32, "baseline": {"split_percent": 50}}`,
	`{"model": "TinyCNN", "config": {"glb_bytes": 65536, "data_width_bits": 8, "ops_per_cycle": 512, "dram_bytes_per_cycle": 16, "include_padding": true, "batch": 1}, "objective": "latency", "homogeneous": true, "disable_prefetch": true, "interlayer": true, "strict": true}`,
	`{"network": {"name":"n","layers":[` + ingestLayer + `]}, "glb_kb": 8}`,
	`{"network": {"name":"n","layers":[{"name":"l","type":"CV","IH":4,"iw":4,"ci":1,"fh":3,"fw":3,"f":2,"s":1,"p":1}]}, "GLB_KB": 8, "ſtrict": true}`,
	`{"network": {"name":"n","layers":[{"name":"l","type":"CV","ih":1e1,"iw":4,"ci":1,"fh":3,"fw":3,"f":2,"s":1,"p":1}]}, "glb_kb": 8}`,
	`{"network": {"name":"n","layers":[{"name":"l","type":"CV","ih":8.0,"iw":4,"ci":1,"fh":3,"fw":3,"f":2,"s":1,"p":1}]}, "glb_kb": 8}`,
	`{"network": {"name":"n","layers":[{"name":"l","type":"CV","ih":4,"iw":4,"ci":1,"fh":3,"fw":3,"f":2,"s":1,"p":-0}]}, "glb_kb": -0}`,
	`{"network": {"name":"n","layers":[` + ingestLayer + `]}, "glb_kb": 9223372036854775808}`,
	`{"network": {"name":"n","layers":[{"name":"l","type":"CV","ih":9223372036854775808,"iw":4,"ci":1,"fh":3,"fw":3,"f":2,"s":1,"p":1}]}, "glb_kb": 8}`,
	`{"network": {"name":"n","source":"onnx","layers":[{"name":"l","type":"CV","bias":[1,{"x":null}],"ih":4,"iw":4,"ci":1,"fh":3,"fw":3,"f":2,"s":1,"p":1}]}, "glb_kb": 8}`,
	`{"network": null, "glb_kb": 8}`,
	`{"model": null, "network": {"name":"n","layers":[` + ingestLayer + `]}, "config": null, "glb_kb": 8, "baseline": null}`,
	`{"model": "TinyCNN", "glb_kb": 32} trailing {"model": "AlexNet"`,
	`{"model": "TinyCNN", "glb_kb": 32, "unknown_field": 1}`,
	deepBody(64),
	`{"network": {"name":"a\"b\\<c>& \ud800","layers":[` + ingestLayer + `]}, "glb_kb": 8}`,
	`{"model": "TinyCNN", "glb_kb": 32, "glb_kb": 64}`,
	`{"network": {"name":"n","layers":[` + ingestLayer + `],"layers":[{"f":3}]}, "glb_kb": 8}`,
	`{"requests": [{"model": "TinyCNN", "glb_kb": 32}, {"model": "NoSuchNet", "glb_kb": 32}, {"network": {"name":"n","layers":[{"type":"XX"}]}, "glb_kb": 8}, null]}`,
	`{"requests": [{"network": {"name":"n","layers":[` + ingestLayer + `]}, "glb_kb": 8}, {"network": {"name":"n","name":"m","layers":[` + ingestLayer + `]}, "glb_kb": 8}]}`,
	`{"requests": [{"model": "TinyCNN", "glb_kb": 32}, {"model": "TinyCNN", "glb_kb": "32"}]}`,
	`{"requests": [{"model": "TinyCNN", "glb_kb": 32}], "requests": [{"model": "AlexNet"}]}`,
	`{"requests": [{"network": {"name":"n","layers":[` + ingestLayer + `]}, "glb_kb": 8}, {"network": {"name":"n","layers":[}, "glb_kb": 8}]}`,
	`{"requests": []}`,
	`{"requests": null}`,
	`null`,
	`[]`,
	``,
	// Layer objects a batch repeats, which DecodeNetwork reuses: byte for
	// byte; after an invalid network (no name, a bad type), a duplicate
	// member or a wrong-typed field; spelled differently (white space,
	// member order, name case, escapes); and cut off by the end.
	`{"requests": [{"network": {"name":"a","layers":[` + ingestLayer + `,` + ingestLayer2 + `]}, "glb_kb": 8}, {"network": {"name":"b","layers":[` + ingestLayer + `,` + ingestLayer + `]}, "glb_kb": 8}, {"network": {"name":"c","layers":[` + ingestLayer + `,` + ingestLayer2 + `]}, "glb_kb": 8}]}`,
	`{"requests": [{"network": {"layers":[` + ingestLayer + `]}, "glb_kb": 8}, {"network": {"name":"b","layers":[` + ingestLayer + `]}, "glb_kb": 8}]}`,
	`{"requests": [{"network": {"name":"a","layers":[` + ingestLayer + `,{"type":"XX"}]}, "glb_kb": 8}, {"network": {"name":"b","layers":[` + ingestLayer + `,{"type":"XX"}]}, "glb_kb": 8}]}`,
	`{"requests": [{"network": {"name":"a","layers":[{"name":"l","NAME":"m","type":"CV","ih":4,"iw":4,"ci":1,"fh":3,"fw":3,"f":2,"s":1,"p":1}]}, "glb_kb": 8}, {"network": {"name":"b","layers":[{"name":"l","NAME":"m","type":"CV","ih":4,"iw":4,"ci":1,"fh":3,"fw":3,"f":2,"s":1,"p":1}]}, "glb_kb": 8}]}`,
	`{"requests": [{"network": {"name":"a","layers":[{"name":"l","type":"CV","ih":"4","iw":4,"ci":1,"fh":3,"fw":3,"f":2,"s":1,"p":1}]}, "glb_kb": 8}, {"network": {"name":"b","layers":[{"name":"l","type":"CV","ih":"4","iw":4,"ci":1,"fh":3,"fw":3,"f":2,"s":1,"p":1}]}, "glb_kb": 8}]}`,
	`{"requests": [{"network": {"name":"a","layers":[` + ingestLayer + `]}, "glb_kb": 8}, {"network": {"name":"b","layers":[ {"name": "l", "type":"CV","ih":4,"iw":4,"ci":1,"fh":3,"fw":3,"f":2,"s":1,"p":1} ]}, "glb_kb": 8}, {"network": {"name":"c","layers":[{"type":"CV","name":"l","ih":4,"iw":4,"ci":1,"fh":3,"fw":3,"f":2,"s":1,"p":1}]}, "glb_kb": 8}, {"network": {"name":"d","layers":[{"Name":"l","TYPE":"CV","ih":4,"iw":4,"ci":1,"fh":3,"fw":3,"f":2,"s":1,"p":1}]}, "glb_kb": 8}, {"network": {"name":"e","layers":[{"name":"\u006c","type":"C\u0056","ih":4,"iw":4,"ci":1,"fh":3,"fw":3,"f":2,"s":1,"p":1}]}, "glb_kb": 8}]}`,
	`{"requests": [{"network": {"name":"a","layers":[` + ingestLayer + `]}, "glb_kb": 8}, {"network": {"name":"b","layers":[` + ingestLayer[:len(ingestLayer)-4],
}

// ingestLayer2 is ingestLayer with one more filter: the one-layer mutant a
// neighbour batch carries.
const ingestLayer2 = `{"name":"l","type":"CV","ih":4,"iw":4,"ci":1,"fh":3,"fw":3,"f":3,"s":1,"p":1}`

// boundSeeds probe the input domain's maxima: the 3x3 layer of
// IH=IW=CI=F=2^16 whose MACs wrap to 0 in int64, the same at 2^20, a batch
// and a data width one above their maxima, and one network layer too many.
var boundSeeds = []string{
	`{"network": {"name":"n","layers":[{"name":"c","type":"CV","ih":65536,"iw":65536,"ci":65536,"fh":3,"fw":3,"f":65536,"s":1,"p":1}]}, "glb_kb": 64}`,
	`{"network": {"name":"n","layers":[{"name":"c","type":"CV","ih":1048576,"iw":1048576,"ci":1048576,"fh":3,"fw":3,"f":1048576,"s":1,"p":1}]}, "glb_kb": 64}`,
	`{"model": "TinyCNN", "config": {"glb_bytes": 65536, "data_width_bits": 8, "ops_per_cycle": 512, "dram_bytes_per_cycle": 16, "batch": 1025}}`,
	`{"model": "TinyCNN", "config": {"glb_bytes": 65536, "data_width_bits": 65, "ops_per_cycle": 512, "dram_bytes_per_cycle": 16}}`,
	`{"network": {"name":"n","layers":[` + strings.Repeat(ingestLayer+`,`, model.MaxLayers) + ingestLayer + `]}, "glb_kb": 8}`,
}

// deepBody nests arrays depth levels deep inside an inline network's
// unknown member, under two levels of objects.
func deepBody(depth int) string {
	return `{"network": {"name":"n","deep":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) +
		`,"layers":[` + ingestLayer + `]}, "glb_kb": 8}`
}

// TestIngestNestingLimit: the seam stops at encoding/json's nesting limit,
// 10000 levels counted from the body's root, on every route.
func TestIngestNestingLimit(t *testing.T) {
	for _, depth := range []int{9998, 9999} {
		body := []byte(deepBody(depth))
		var in planInput
		if err := ingest(&in, body, planBody); (err == nil) != (depth == 9998) {
			t.Errorf("depth %d: error %v", depth+2, err)
		}
		for _, kind := range []bodyKind{planBody, simulateBody, dseBody} {
			checkIngest(t, body, kind, false)
		}
		batch := []byte(`{"requests": [` + string(body) + `]}`)
		checkIngest(t, batch, planBody, true)
	}
}

// FuzzIngest: the ingest seam must agree with the encoding/json request
// path on every body, for every route: the same accept/reject decision
// (per item for batches), and for an accepted request an equal network,
// options, wire request, canonical bytes and plan key. The one allowed
// difference is the duplicate-member 400.
func FuzzIngest(f *testing.F) {
	for _, s := range append(ingestSeeds, boundSeeds...) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkIngest(t, body, planBody, false)
		checkIngest(t, body, simulateBody, false)
		checkIngest(t, body, dseBody, false)
		checkIngest(t, body, planBody, true)
	})
}

// TestDuplicateMemberIs400: the tightening end to end. A repeated member is
// a 400 on /v1/plan, and inside one batch item's network a per-item 400.
func TestDuplicateMemberIs400(t *testing.T) {
	h := New(Config{}).Handler()
	post := func(path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec
	}
	if rec := post("/v1/plan", `{"model": "TinyCNN", "glb_kb": 32, "GLB_KB": 64}`); rec.Code != http.StatusBadRequest ||
		!strings.Contains(rec.Body.String(), "duplicate member") {
		t.Errorf("/v1/plan: %d %s, want a duplicate-member 400", rec.Code, rec.Body.Bytes())
	}
	rec := post("/v1/plan/batch", `{"requests": [{"model": "TinyCNN", "glb_kb": 32},
		{"network": {"name":"n","layers":[`+ingestLayer+`],"layers":[]}, "glb_kb": 8}]}`)
	var br BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil || rec.Code != http.StatusOK || len(br.Results) != 2 {
		t.Fatalf("batch: %d %s (%v)", rec.Code, rec.Body.Bytes(), err)
	}
	if br.Results[0].Status != http.StatusOK || br.Results[1].Status != http.StatusBadRequest ||
		!strings.Contains(br.Results[1].Error, "duplicate member") {
		t.Errorf("batch items: %+v", br.Results)
	}
}

// TestBodyLimit: every plan route reads the whole body before decoding, so
// a body over maxBodyBytes is a 400 even when its first JSON value ends
// early; a body without Content-Length is read as it arrives.
func TestBodyLimit(t *testing.T) {
	h := New(Config{}).Handler()
	valid := map[string]string{
		"/v1/plan":       `{"model": "TinyCNN", "glb_kb": 32}`,
		"/v1/simulate":   `{"model": "TinyCNN", "glb_kb": 32}`,
		"/v1/dse":        `{"model": "TinyCNN", "glb_kb": 32}`,
		"/v1/plan/batch": `{"requests": [{"model": "TinyCNN", "glb_kb": 32}]}`,
	}
	for path, body := range valid {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body+strings.Repeat(" ", maxBodyBytes))))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s over the limit: status %d, want 400", path, rec.Code)
		}
		req := httptest.NewRequest(http.MethodPost, path, io.MultiReader(strings.NewReader(body), strings.NewReader(" trailing")))
		req.ContentLength = -1
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Errorf("%s without Content-Length: status %d: %s", path, rec.Code, rec.Body.Bytes())
		}
	}
}

// TestInputDomainBounds: a request outside the input domain is a 400, on
// /v1/plan and as its own item of a batch. Without the bounds both layers
// were planned: the 2^16 layer's MACs wrapped to 0 and it came back a
// degraded 200 moving 1.41 PB; the 2^20 layer came back a plan the cache
// would keep.
// Nothing inside the domain changes: every builtin validates, and no
// FuzzIngest seed is refused for a maximum. (TestPlanDocGolden's inputs
// are checked by that test: a refusal would change a pinned document.)
func TestInputDomainBounds(t *testing.T) {
	h := New(Config{}).Handler()
	for _, body := range boundSeeds {
		if rec := serve(h, http.MethodPost, "/v1/plan", body); rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "maximum") {
			t.Errorf("/v1/plan %.120s: %d %.300s, want a 400 naming the maximum", body, rec.Code, rec.Body.Bytes())
		}
		rec := serve(h, http.MethodPost, "/v1/plan/batch", `{"requests": [{"model": "TinyCNN", "glb_kb": 32}, `+body+`]}`)
		var br BatchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil || rec.Code != http.StatusOK || len(br.Results) != 2 {
			t.Fatalf("batch: %d %.300s (%v)", rec.Code, rec.Body.Bytes(), err)
		}
		if br.Results[0].Status != http.StatusOK || br.Results[1].Status != http.StatusBadRequest ||
			!strings.Contains(br.Results[1].Error, "maximum") {
			t.Errorf("batch items for %.120s: %d, %d %s", body, br.Results[0].Status, br.Results[1].Status, br.Results[1].Error)
		}
	}
	for _, name := range model.AllBuiltinNames() {
		if n, _, err := model.SharedBuiltin(name); err != nil || n.Validate() != nil {
			t.Errorf("builtin %s: %v", name, err)
		}
	}
	for _, seed := range ingestSeeds {
		items, err := ingestBatch([]byte(seed))
		var in planInput
		errs := []error{err, ingest(&in, []byte(seed), planBody), ingest(&in, []byte(seed), simulateBody)}
		for i := range items {
			errs = append(errs, items[i].err)
		}
		for _, err := range errs {
			if err != nil && strings.Contains(err.Error(), "maximum") {
				t.Errorf("seed %.120s refused for a maximum: %v", seed, err)
			}
		}
	}
}

// TestNeighbourBatchMatchesAlone: in a batch of one-layer mutants, where
// DecodeNetwork reuses every layer an item repeats from the item before,
// each item resolves to the network and key it gets sent alone, and its
// key is the one PlanKey computes from the network: the canonical bytes
// the decoder assembles are the network's.
func TestNeighbourBatchMatchesAlone(t *testing.T) {
	for _, base := range []string{"ResNet18", "MobileNetV2", "GoogLeNet"} {
		body := mutantBatch(t, base, 64)
		items, err := ingestBatch(body)
		if err != nil {
			t.Fatal(err)
		}
		for i := range items {
			g := &items[i]
			var alone planInput
			if err := ingest(&alone, []byte(`{"network": `+string(g.req.Network)+`, "glb_kb": 64}`), planBody); err != nil || g.err != nil {
				t.Fatalf("%s item %d: %v / %v", base, i, g.err, err)
			}
			if !reflect.DeepEqual(g.net, alone.net) || g.key != alone.key {
				t.Fatalf("%s item %d: the batch resolves %s, alone %s", base, i, g.key, alone.key)
			}
			if want, _ := scratchmem.PlanKey(g.net, g.opts); g.key != want {
				t.Fatalf("%s item %d: key %s, PlanKey %s", base, i, g.key, want)
			}
		}
	}
}

// TestIngestBatchAllocs pins what decoding and keying a 64-item neighbour
// batch allocates per item: its network, name, layers, canonical bytes,
// hash and key. That measures 5.4 objects on each base, where decoding
// and encoding every layer again took 7.3.
func TestIngestBatchAllocs(t *testing.T) {
	for _, base := range []string{"ResNet18", "MobileNetV2", "GoogLeNet"} {
		body := mutantBatch(t, base, 64)
		perItem := testing.AllocsPerRun(20, func() {
			if _, err := ingestBatch(body); err != nil {
				t.Fatal(err)
			}
		}) / 64
		if perItem > 6 {
			t.Errorf("%s: ingestBatch allocates %.2f objects per item, want <= 6", base, perItem)
		}
	}
}
