package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	scratchmem "scratchmem"
	"scratchmem/internal/layer"
)

// neighborNetwork is a one-layer mutant of a builtin in the scratchmem JSON
// format: layer idx gets delta more filters (channels for depth-wise).
func neighborNetwork(tb testing.TB, base string, idx, delta int) []byte {
	tb.Helper()
	net, err := scratchmem.BuiltinModel(base)
	if err != nil {
		tb.Fatal(err)
	}
	layers := append([]layer.Layer(nil), net.Layers...)
	l := layers[idx]
	if l.Kind == layer.DepthwiseConv {
		layers[idx] = layer.MustNew(l.Name, l.Kind, l.IH, l.IW, l.CI+delta, l.FH, l.FW, l.F, l.S, l.P)
	} else {
		layers[idx] = layer.MustNew(l.Name, l.Kind, l.IH, l.IW, l.CI, l.FH, l.FW, l.F+delta, l.S, l.P)
	}
	nn := &scratchmem.Network{Name: fmt.Sprintf("%s-n%d-%d", base, idx, delta), Layers: layers}
	var buf bytes.Buffer
	if err := nn.WriteJSON(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// sweepRequests builds a 59-item DSE-style sweep: 50 pairs of two models
// crossed with objective/scheme/reuse options over a few GLB sizes; eight
// one-layer mutants of the two models at 64 kB, most under options the
// pairs also plan, so batch items share sweep tables with other items'
// bases; and one AlexNet plan at 4 kB, whose requested plan fails before
// the baseline plan. Every item is a distinct plan key.
func sweepRequests(tb testing.TB) []PlanRequest {
	var reqs []PlanRequest
	for _, model := range []string{"TinyCNN", "AlexNet"} {
		for _, glb := range []int{64, 108, 256} {
			for _, objective := range []string{"accesses", "latency"} {
				for _, hom := range []bool{false, true} {
					for _, inter := range []bool{false, true} {
						for _, nopf := range []bool{false, true} {
							reqs = append(reqs, PlanRequest{
								Model:           model,
								GLBKiloBytes:    glb,
								Objective:       objective,
								Homogeneous:     hom,
								InterLayerReuse: inter,
								DisablePrefetch: nopf,
							})
						}
					}
				}
			}
		}
	}
	reqs = reqs[:50]
	for i := 0; i < 8; i++ {
		reqs = append(reqs, PlanRequest{
			Network:         neighborNetwork(tb, []string{"TinyCNN", "AlexNet"}[i%2], i/2, 1),
			GLBKiloBytes:    64,
			Objective:       []string{"accesses", "latency"}[i/4],
			Homogeneous:     i == 7,
			InterLayerReuse: i%4 >= 2,
			DisablePrefetch: i == 5,
		})
	}
	return append(reqs, PlanRequest{Model: "AlexNet", GLBKiloBytes: 4})
}

// TestBatchMatchesSequential pins the batch acceptance criterion: a sweep
// through POST /v1/plan/batch returns documents byte-identical to
// sequential /v1/plan calls. Each item's raw plan bytes are the /v1/plan body minus its trailing
// newline: the envelope splices cached documents in verbatim.
func TestBatchMatchesSequential(t *testing.T) {
	reqs := sweepRequests(t)

	seq := httptest.NewServer(New(Config{}).Handler())
	defer seq.Close()
	sequential := make([][]byte, len(reqs))
	for i, pr := range reqs {
		body, err := json.Marshal(pr)
		if err != nil {
			t.Fatal(err)
		}
		resp, respBody := post(t, seq, "/v1/plan", string(body))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sequential %d: status %d: %s", i, resp.StatusCode, respBody)
		}
		sequential[i] = respBody
	}

	bat := httptest.NewServer(New(Config{CacheEntries: len(reqs) + 8}).Handler())
	defer bat.Close()
	reqBody, err := json.Marshal(BatchRequest{Requests: reqs})
	if err != nil {
		t.Fatal(err)
	}
	resp, respBody := post(t, bat, "/v1/plan/batch", string(reqBody))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, respBody)
	}
	var br BatchResponse
	if err := json.Unmarshal(respBody, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != len(reqs) {
		t.Fatalf("batch returned %d results for %d requests", len(br.Results), len(reqs))
	}
	for i, item := range br.Results {
		if item.Status != http.StatusOK {
			t.Fatalf("item %d: status %d: %s", i, item.Status, item.Error)
		}
		if !bytes.Equal(item.Plan, bytes.TrimSuffix(sequential[i], []byte("\n"))) {
			t.Errorf("item %d: batch document differs from the sequential one", i)
		}
	}
	if last := br.Results[len(reqs)-1].Plan; !bytes.Contains(last, []byte(`"degraded_mode": "baseline-fallback"`)) {
		t.Errorf("the AlexNet 4 kB item is not a baseline plan:\n%s", last)
	}
	_, metricsBody := get(t, bat, "/metrics")
	if got := metric(t, metricsBody, "smm_batch_size_sum"); got != int64(len(reqs)) {
		t.Errorf("smm_batch_size_sum = %d, want %d", got, len(reqs))
	}
	if got := metric(t, metricsBody, "smm_batch_size_count"); got != 1 {
		t.Errorf("smm_batch_size_count = %d, want 1", got)
	}
}

// TestBatchItemsFailIndependently: one malformed item gets its own per-item
// status; its siblings still plan.
func TestBatchItemsFailIndependently(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	reqs := []PlanRequest{
		{Model: "TinyCNN", GLBKiloBytes: 32},
		{Model: "NoSuchNet", GLBKiloBytes: 32},
		{Model: "TinyCNN"}, // no glb_kb and no config
	}
	body, err := json.Marshal(BatchRequest{Requests: reqs})
	if err != nil {
		t.Fatal(err)
	}
	resp, respBody := post(t, ts, "/v1/plan/batch", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, respBody)
	}
	var br BatchResponse
	if err := json.Unmarshal(respBody, &br); err != nil {
		t.Fatal(err)
	}
	wantStatus := []int{http.StatusOK, http.StatusBadRequest, http.StatusBadRequest}
	for i, want := range wantStatus {
		if br.Results[i].Status != want {
			t.Errorf("item %d: status %d, want %d (%s)", i, br.Results[i].Status, want, br.Results[i].Error)
		}
	}
	if len(br.Results[0].Plan) == 0 {
		t.Error("healthy item returned no document")
	}
}

// TestBatchLimits: empty and oversized batches are client errors.
func TestBatchLimits(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	if resp, _ := post(t, ts, "/v1/plan/batch", `{"requests": []}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", resp.StatusCode)
	}
	big := BatchRequest{Requests: make([]PlanRequest, maxBatchItems+1)}
	for i := range big.Requests {
		big.Requests[i] = PlanRequest{Model: "TinyCNN", GLBKiloBytes: 16 + i}
	}
	body, err := json.Marshal(big)
	if err != nil {
		t.Fatal(err)
	}
	if resp, _ := post(t, ts, "/v1/plan/batch", string(body)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d, want 400", resp.StatusCode)
	}
}

// TestBatchDeduplicatesInsideOneCall: identical items inside one batch
// collapse onto one planner execution through the shared cache.
func TestBatchDeduplicatesInsideOneCall(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	reqs := make([]PlanRequest, 8)
	for i := range reqs {
		reqs[i] = PlanRequest{Model: "TinyCNN", GLBKiloBytes: 32}
	}
	body, err := json.Marshal(BatchRequest{Requests: reqs})
	if err != nil {
		t.Fatal(err)
	}
	resp, respBody := post(t, ts, "/v1/plan/batch", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, respBody)
	}
	var br BatchResponse
	if err := json.Unmarshal(respBody, &br); err != nil {
		t.Fatal(err)
	}
	misses := 0
	for i, item := range br.Results {
		if item.Status != http.StatusOK {
			t.Fatalf("item %d failed: %s", i, item.Error)
		}
		if item.Cache == "miss" {
			misses++
		}
		if !bytes.Equal(item.Plan, br.Results[0].Plan) {
			t.Errorf("item %d differs", i)
		}
	}
	if misses != 1 {
		t.Errorf("%d cache misses for 8 identical items, want 1", misses)
	}
	_, metricsBody := get(t, ts, "/metrics")
	if got := metric(t, metricsBody, "smm_planner_latency_seconds_count"); got != 1 {
		t.Errorf("planner ran %d times for 8 identical items, want 1", got)
	}
}

// TestBatchEnvelope decodes a mixed envelope strictly: 200, 400 and 422
// items (one error text carrying '"', '\' and '<') and a duplicate that
// hits the cache. Re-encoded the way
// writeJSON encodes a BatchResponse, it compacts to the same JSON, so the
// hand-written envelope keeps the encoder's field names, order and escaping.
func TestBatchEnvelope(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	odd := `No"Such\\Net<x>`
	reqs := []PlanRequest{
		{Model: "TinyCNN", GLBKiloBytes: 32},
		{Model: odd, GLBKiloBytes: 32},
		{Model: "ResNet18", GLBKiloBytes: 1, Strict: true},
		{Model: "AlexNet", GLBKiloBytes: 128},
		{Model: "TinyCNN", GLBKiloBytes: 32},
	}
	body, err := json.Marshal(BatchRequest{Requests: reqs})
	if err != nil {
		t.Fatal(err)
	}
	resp, respBody := post(t, ts, "/v1/plan/batch", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, respBody)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q", ct)
	}
	dec := json.NewDecoder(bytes.NewReader(respBody))
	dec.DisallowUnknownFields()
	var br BatchResponse
	if err := dec.Decode(&br); err != nil {
		t.Fatalf("strict decode: %v\n%s", err, respBody)
	}
	if dec.More() {
		t.Error("bytes after the envelope")
	}
	if len(br.Results) != len(reqs) {
		t.Fatalf("%d results for %d requests", len(br.Results), len(reqs))
	}

	// Every item agrees with the lone /v1/plan answer to the same request:
	// status, plan key, error text and document bytes.
	for i, pr := range reqs {
		one, err := json.Marshal(pr)
		if err != nil {
			t.Fatal(err)
		}
		r, b := post(t, ts, "/v1/plan", string(one))
		it := br.Results[i]
		if it.Status != r.StatusCode {
			t.Errorf("item %d: status %d, /v1/plan %d", i, it.Status, r.StatusCode)
			continue
		}
		switch it.Status {
		case http.StatusOK:
			if it.PlanKey == "" || it.PlanKey != r.Header.Get("X-SMM-Plan-Key") {
				t.Errorf("item %d: plan key %q, /v1/plan %q", i, it.PlanKey, r.Header.Get("X-SMM-Plan-Key"))
			}
			if !bytes.Equal(it.Plan, bytes.TrimSuffix(b, []byte("\n"))) {
				t.Errorf("item %d: plan differs from the /v1/plan body", i)
			}
			if it.Error != "" {
				t.Errorf("item %d: 200 with error %q", i, it.Error)
			}
		default:
			var e errorResponse
			if err := json.Unmarshal(b, &e); err != nil {
				t.Fatal(err)
			}
			if it.Error != e.Error || len(it.Plan) != 0 || it.Cache != "" {
				t.Errorf("item %d: error %q plan %dB cache %q; /v1/plan error %q", i, it.Error, len(it.Plan), it.Cache, e.Error)
			}
		}
	}
	if e := br.Results[1].Error; !strings.Contains(e, `"`) || !strings.Contains(e, `\`) || !strings.Contains(e, "<") {
		t.Errorf("400 error text %q lost its quote, backslash or '<'", e)
	}
	if br.Results[1].PlanKey != "" {
		t.Errorf("unresolvable item has plan key %q", br.Results[1].PlanKey)
	}
	if br.Results[2].PlanKey == "" {
		t.Error("infeasible item lost its plan key")
	}
	// TinyCNN@32 appears twice: one planner run, one hit. Which of the two
	// runs it is up to the fan-out.
	if c0, c4 := br.Results[0].Cache, br.Results[4].Cache; c0+c4 != "hitmiss" && c0+c4 != "misshit" {
		t.Errorf("duplicate items: cache %q and %q, want one hit and one miss", c0, c4)
	}
	if br.Results[3].Cache != "miss" {
		t.Errorf("AlexNet item: cache %q, want miss", br.Results[3].Cache)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(br); err != nil {
		t.Fatal(err)
	}
	var gotC, wantC bytes.Buffer
	if err := json.Compact(&gotC, respBody); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&wantC, want.Bytes()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotC.Bytes(), wantC.Bytes()) {
		t.Errorf("envelope differs from the encoder's:\n got %s\nwant %s", gotC.Bytes(), wantC.Bytes())
	}
}
