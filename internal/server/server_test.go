package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	scratchmem "scratchmem"
)

var update = flag.Bool("update", false, "rewrite golden files")

func post(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// metric extracts one counter value from a /metrics body.
func metric(t *testing.T, body []byte, name string) int64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\d+)$`)
	m := re.FindSubmatch(body)
	if m == nil {
		t.Fatalf("metric %s not found in:\n%s", name, body)
	}
	v, err := strconv.ParseInt(string(m[1]), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

const tinyPlanBody = `{"model": "TinyCNN", "glb_kb": 32}`

// TestPlanMissThenHit covers the acceptance path: first request computes
// (miss), the identical second request is served from the cache (hit, seen
// in the metrics counters) with a byte-identical body.
func TestPlanMissThenHit(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	resp1, body1 := post(t, ts, "/v1/plan", tinyPlanBody)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first plan: status %d: %s", resp1.StatusCode, body1)
	}
	if h := resp1.Header.Get("X-SMM-Cache"); h != "miss" {
		t.Errorf("first plan: X-SMM-Cache = %q, want miss", h)
	}
	var doc scratchmem.PlanDoc
	if err := json.Unmarshal(body1, &doc); err != nil {
		t.Fatalf("plan body is not a PlanDoc: %v", err)
	}
	if doc.Model != "TinyCNN" || len(doc.Layers) == 0 || !doc.Feasible {
		t.Errorf("unexpected document: model=%q layers=%d feasible=%v", doc.Model, len(doc.Layers), doc.Feasible)
	}

	resp2, body2 := post(t, ts, "/v1/plan", tinyPlanBody)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second plan: status %d", resp2.StatusCode)
	}
	if h := resp2.Header.Get("X-SMM-Cache"); h != "hit" {
		t.Errorf("second plan: X-SMM-Cache = %q, want hit", h)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("cache hit returned a different body than the miss")
	}
	if k1, k2 := resp1.Header.Get("X-SMM-Plan-Key"), resp2.Header.Get("X-SMM-Plan-Key"); k1 == "" || k1 != k2 {
		t.Errorf("plan keys differ or empty: %q vs %q", k1, k2)
	}

	_, mbody := get(t, ts, "/metrics")
	if hits := metric(t, mbody, "smm_cache_hits_total"); hits != 1 {
		t.Errorf("smm_cache_hits_total = %d, want 1", hits)
	}
	if misses := metric(t, mbody, "smm_cache_misses_total"); misses != 1 {
		t.Errorf("smm_cache_misses_total = %d, want 1", misses)
	}
	if n := metric(t, mbody, "smm_planner_latency_seconds_count"); n != 1 {
		t.Errorf("planner ran %d times, want 1", n)
	}
	// The same semantic request spelled via an explicit default config must
	// hit the same cache entry (canonical-key normalisation).
	resp3, body3 := post(t, ts, "/v1/plan",
		`{"model": "TinyCNN", "config": {"glb_bytes": 32768, "data_width_bits": 8, "ops_per_cycle": 512, "dram_bytes_per_cycle": 16, "include_padding": true}}`)
	if resp3.StatusCode != http.StatusOK || resp3.Header.Get("X-SMM-Cache") != "hit" {
		t.Errorf("equivalent explicit-config request: status %d cache %q, want 200 hit",
			resp3.StatusCode, resp3.Header.Get("X-SMM-Cache"))
	}
	if !bytes.Equal(body1, body3) {
		t.Error("equivalent request returned a different body")
	}
}

// TestPlanSingleFlight is the acceptance criterion: N concurrent identical
// requests run the planner exactly once.
func TestPlanSingleFlight(t *testing.T) {
	srv := New(Config{})
	var executions int32
	release := make(chan struct{})
	srv.planFn = func(ctx context.Context, n *scratchmem.Network, o scratchmem.PlanOptions) (*scratchmem.Plan, error) {
		atomic.AddInt32(&executions, 1)
		<-release
		return scratchmem.PlanModelCtx(ctx, n, o, nil)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const concurrent = 8
	var wg sync.WaitGroup
	bodies := make([][]byte, concurrent)
	codes := make([]int, concurrent)
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, b := post(t, ts, "/v1/plan", tinyPlanBody)
			codes[i], bodies[i] = resp.StatusCode, b
		}(i)
	}
	// Wait until all but the leader have coalesced onto the flight, then
	// let the planner finish.
	deadline := time.Now().Add(5 * time.Second)
	for srv.local.Stats().Coalesced < concurrent-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d requests coalesced", srv.local.Stats().Coalesced)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if n := atomic.LoadInt32(&executions); n != 1 {
		t.Errorf("planner executed %d times for %d concurrent identical requests, want 1", n, concurrent)
	}
	for i := 0; i < concurrent; i++ {
		if codes[i] != http.StatusOK {
			t.Errorf("request %d: status %d", i, codes[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d: body differs", i)
		}
	}
}

// TestPlanTimeout covers the deadline path: a planner slower than the
// request timeout yields 504 and the error is not cached.
func TestPlanTimeout(t *testing.T) {
	srv := New(Config{Timeout: 30 * time.Millisecond})
	block := make(chan struct{})
	var calls int32
	srv.planFn = func(ctx context.Context, n *scratchmem.Network, o scratchmem.PlanOptions) (*scratchmem.Plan, error) {
		if atomic.AddInt32(&calls, 1) == 1 {
			<-block // first call outlives the request deadline
		}
		return scratchmem.PlanModelCtx(ctx, n, o, nil)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := post(t, ts, "/v1/plan", tinyPlanBody)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Errorf("timeout response is not a JSON error envelope: %s", body)
	}
	close(block)

	_, mbody := get(t, ts, "/metrics")
	if n := metric(t, mbody, `smm_errors_total{code="504"}`); n != 1 {
		t.Errorf("504 counter = %d, want 1", n)
	}
}

func TestSimulateAndBaseline(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	resp, body := post(t, ts, "/v1/simulate", tinyPlanBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: status %d: %s", resp.StatusCode, body)
	}
	var sim SimulateResponse
	if err := json.Unmarshal(body, &sim); err != nil {
		t.Fatal(err)
	}
	if sim.MeasuredCycles <= 0 || sim.EstimatedCycles <= 0 || sim.PlanKey == "" {
		t.Errorf("implausible simulation: %+v", sim)
	}
	// Repeat is a cache hit.
	resp2, _ := post(t, ts, "/v1/simulate", tinyPlanBody)
	if resp2.Header.Get("X-SMM-Cache") != "hit" {
		t.Error("repeated simulate not served from cache")
	}

	resp3, body3 := post(t, ts, "/v1/simulate", `{"model": "TinyCNN", "glb_kb": 32, "baseline": {"split_percent": 50}}`)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("baseline: status %d: %s", resp3.StatusCode, body3)
	}
	var base BaselineResponse
	if err := json.Unmarshal(body3, &base); err != nil {
		t.Fatal(err)
	}
	if base.Baseline != "sa_50_50" || base.Cycles <= 0 || base.DRAMElems <= 0 {
		t.Errorf("implausible baseline result: %+v", base)
	}

	resp4, body4 := post(t, ts, "/v1/simulate", `{"model": "TinyCNN", "glb_kb": 32, "baseline": {"split_percent": 10}}`)
	if resp4.StatusCode != http.StatusBadRequest {
		t.Errorf("bad split accepted: status %d: %s", resp4.StatusCode, body4)
	}
}

func TestDSE(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	resp, body := post(t, ts, "/v1/dse", tinyPlanBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dse: status %d: %s", resp.StatusCode, body)
	}
	var dse DSEResponse
	if err := json.Unmarshal(body, &dse); err != nil {
		t.Fatal(err)
	}
	if !dse.Feasible || dse.AccessElems <= 0 {
		t.Errorf("implausible DSE result: %+v", dse)
	}
	// Plan-shaping options must not fragment the DSE cache key.
	resp2, _ := post(t, ts, "/v1/dse", `{"model": "TinyCNN", "glb_kb": 32, "homogeneous": true}`)
	if resp2.Header.Get("X-SMM-Cache") != "hit" {
		t.Error("DSE key depends on plan-shaping options")
	}
}

func TestInlineNetwork(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	net, err := scratchmem.BuiltinModel("TinyCNN")
	if err != nil {
		t.Fatal(err)
	}
	var nbuf bytes.Buffer
	if err := net.WriteJSON(&nbuf); err != nil {
		t.Fatal(err)
	}
	inline := fmt.Sprintf(`{"network": %s, "glb_kb": 32}`, nbuf.String())
	resp, body := post(t, ts, "/v1/plan", inline)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inline network: status %d: %s", resp.StatusCode, body)
	}
	// An inline network identical to the builtin must share its cache slot:
	// the key is content-addressed, not name-addressed.
	resp2, _ := post(t, ts, "/v1/plan", tinyPlanBody)
	if resp2.Header.Get("X-SMM-Cache") != "hit" {
		t.Error("builtin request missed after identical inline-network request")
	}
}

func TestModelsAndHealthz(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	resp, body := get(t, ts, "/v1/models")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("models: status %d", resp.StatusCode)
	}
	var infos []ModelInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(servedModels) {
		t.Errorf("models: %d entries, want %d", len(infos), len(servedModels))
	}
	for _, info := range infos {
		if info.Layers <= 0 {
			t.Errorf("model %s has %d layers", info.Name, info.Layers)
		}
	}

	resp, body = get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Errorf("healthz: status %d body %q", resp.StatusCode, body)
	}
}

func TestBadRequests(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	cases := []struct {
		name, path, body string
		want             int
	}{
		{"malformed JSON", "/v1/plan", `{`, http.StatusBadRequest},
		{"unknown field", "/v1/plan", `{"model": "TinyCNN", "glb_kb": 32, "nope": 1}`, http.StatusBadRequest},
		{"no model", "/v1/plan", `{"glb_kb": 32}`, http.StatusBadRequest},
		{"both model and network", "/v1/plan", `{"model": "TinyCNN", "network": {"name": "x", "layers": []}, "glb_kb": 32}`, http.StatusBadRequest},
		{"unknown model", "/v1/plan", `{"model": "NoSuchNet", "glb_kb": 32}`, http.StatusBadRequest},
		{"no glb", "/v1/plan", `{"model": "TinyCNN"}`, http.StatusBadRequest},
		{"bad objective", "/v1/plan", `{"model": "TinyCNN", "glb_kb": 32, "objective": "speed"}`, http.StatusBadRequest},
		{"infeasible GLB, strict", "/v1/plan", `{"model": "ResNet18", "glb_kb": 1, "strict": true}`, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		resp, body := post(t, ts, tc.path, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: not a JSON error envelope: %s", tc.name, body)
		}
	}

	// Wrong method on a POST route.
	resp, _ := get(t, ts, "/v1/plan")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/plan: status %d, want 405", resp.StatusCode)
	}
}

// TestUnknownModelListsEveryBuiltin: the 400 for an unknown "model" offers
// every name /v1/models advertises, extras included, not just Table 2's.
func TestUnknownModelListsEveryBuiltin(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	resp, body := post(t, ts, "/v1/plan", `{"model": "NoSuchNet", "glb_kb": 32}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	for _, name := range append([]string{"VGG16", "TinyCNN"}, servedModels...) {
		if !strings.Contains(e.Error, name) {
			t.Errorf("error %q does not name %s", e.Error, name)
		}
	}
}

// TestPlannerPanicIsA500 exercises the recover path end to end: a panic in
// the planner must produce a 500 response, not kill the server.
func TestPlannerPanicIsA500(t *testing.T) {
	srv := New(Config{})
	srv.planFn = func(context.Context, *scratchmem.Network, scratchmem.PlanOptions) (*scratchmem.Plan, error) {
		panic("planner exploded")
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := post(t, ts, "/v1/plan", tinyPlanBody)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d (%s), want 500", resp.StatusCode, body)
	}
	// Panics are not cached: a fixed planner then succeeds.
	srv.planFn = func(ctx context.Context, n *scratchmem.Network, o scratchmem.PlanOptions) (*scratchmem.Plan, error) {
		return scratchmem.PlanModelCtx(ctx, n, o, nil)
	}
	resp2, _ := post(t, ts, "/v1/plan", tinyPlanBody)
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("recovery request: status %d, want 200", resp2.StatusCode)
	}
}

// TestDSEGoldenBody pins the exact response body of POST /v1/dse for the
// canonical request, so wire-format drift is caught by diff rather than by
// a downstream consumer. Regenerate with: go test ./internal/server -run
// TestDSEGoldenBody -update
func TestDSEGoldenBody(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	resp, body := post(t, ts, "/v1/dse", tinyPlanBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dse: status %d: %s", resp.StatusCode, body)
	}
	golden := filepath.Join("testdata", "dse_tinycnn_32kb.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("DSE body drifted from golden file:\ngot:  %s\nwant: %s", body, want)
	}
}

// TestClientCancelIs499 and TestPlanTimeout together pin the 499-vs-504
// distinction: the server must answer "they hung up" and "we were slow"
// with different typed-error mappings, resolved via errors.Is, not text.
func TestClientCancelIs499(t *testing.T) {
	srv := New(Config{})
	started := make(chan struct{})
	var once sync.Once
	srv.planFn = func(ctx context.Context, n *scratchmem.Network, o scratchmem.PlanOptions) (*scratchmem.Plan, error) {
		once.Do(func() { close(started) })
		<-ctx.Done() // outlive the caller; the abandoned flight cancels us
		return nil, ctx.Err()
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/plan", strings.NewReader(tinyPlanBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	<-started
	cancel()
	if err := <-done; err == nil {
		t.Fatal("canceled request unexpectedly completed")
	}

	// The client never sees the 499 (it hung up), but the server counts it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, mbody := get(t, ts, "/metrics")
		if n := metric(t, mbody, `smm_errors_total{code="499"}`); n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("499 never counted after client cancel")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCanceledClientFreesWorkerSlot is the semaphore-release guarantee: a
// sole caller abandoning its flight cancels the computation context, the
// planner returns, and the worker slot frees for the next request instead
// of staying occupied until the (already-pointless) plan completes.
func TestCanceledClientFreesWorkerSlot(t *testing.T) {
	srv := New(Config{Workers: 1})
	blocked := make(chan struct{})
	srv.planFn = func(ctx context.Context, n *scratchmem.Network, o scratchmem.PlanOptions) (*scratchmem.Plan, error) {
		if n.Name == "GoogLeNet" {
			close(blocked)
			<-ctx.Done() // hold the only slot until the flight is abandoned
			return nil, ctx.Err()
		}
		return scratchmem.PlanModelCtx(ctx, n, o, nil)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/plan",
		strings.NewReader(`{"model": "GoogLeNet", "glb_kb": 64}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	slow := make(chan struct{})
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		close(slow)
	}()
	<-blocked // the slow plan holds the single worker slot
	cancel()  // sole caller leaves; the slot must free promptly
	<-slow

	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader(tinyPlanBody))
	if err != nil {
		t.Fatalf("request after canceled slot-holder: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d (%s), want 200 — worker slot not released", resp.StatusCode, b)
	}
}

// TestLeaderCancelFollowerStillServed is the other half of the waiter
// accounting: with a follower coalesced onto the flight, the leader's
// cancellation must NOT kill the computation.
func TestLeaderCancelFollowerStillServed(t *testing.T) {
	srv := New(Config{})
	started := make(chan struct{})
	release := make(chan struct{})
	srv.planFn = func(ctx context.Context, n *scratchmem.Network, o scratchmem.PlanOptions) (*scratchmem.Plan, error) {
		close(started)
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-release:
			return scratchmem.PlanModelCtx(ctx, n, o, nil)
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	req, err := http.NewRequestWithContext(leaderCtx, http.MethodPost, ts.URL+"/v1/plan", strings.NewReader(tinyPlanBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	leaderDone := make(chan struct{})
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		close(leaderDone)
	}()
	<-started

	followerCode := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader(tinyPlanBody))
		if err != nil {
			followerCode <- -1
			return
		}
		resp.Body.Close()
		followerCode <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.local.Stats().Coalesced < 1 {
		if time.Now().After(deadline) {
			t.Fatal("follower never coalesced")
		}
		time.Sleep(time.Millisecond)
	}
	cancelLeader()
	<-leaderDone
	close(release)
	select {
	case code := <-followerCode:
		if code != http.StatusOK {
			t.Errorf("follower status %d, want 200", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower never answered after leader canceled")
	}
}

// TestPlanBodyMatchesCLIDocument pins the contract that the server's plan
// body equals the canonical PlanDoc rendering cmd/smm-plan -json emits.
func TestPlanBodyMatchesCLIDocument(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	_, body := post(t, ts, "/v1/plan", tinyPlanBody)
	net, _ := scratchmem.BuiltinModel("TinyCNN")
	plan, err := scratchmem.PlanModel(net, scratchmem.PlanOptions{GLBKiloBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	want, err := scratchmem.PlanDocument(plan).MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("server body differs from canonical PlanDoc rendering:\nserver: %s\ncanon:  %s", body, want)
	}
}
