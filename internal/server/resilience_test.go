package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	scratchmem "scratchmem"
	"scratchmem/internal/core"
)

const infeasibleBody = `{"model": "ResNet18", "glb_kb": 1}`

// TestDegradedPlan pins the graceful-degradation contract: a GLB too small
// for every policy returns 200 with a baseline-fallback plan marked
// degraded and carrying the full reason chain, counts in the degraded
// metric, and refuses simulation with a typed 422 (the plan exceeds the
// GLB, the executor cannot run it).
func TestDegradedPlan(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	resp, body := post(t, ts, "/v1/plan", infeasibleBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded plan: status %d (%s), want 200", resp.StatusCode, body)
	}
	var doc scratchmem.PlanDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Degraded || doc.DegradedMode != core.DegradedBaseline {
		t.Errorf("degraded=%v mode=%q, want true/%q", doc.Degraded, doc.DegradedMode, core.DegradedBaseline)
	}
	wantChain := []string{"requested"}
	if len(doc.DegradedReasons) != len(wantChain) {
		t.Fatalf("reason chain %v, want modes %v", doc.DegradedReasons, wantChain)
	}
	for i, want := range wantChain {
		if doc.DegradedReasons[i].Mode != want || doc.DegradedReasons[i].Error == "" {
			t.Errorf("reason %d = %+v, want mode %q with a message", i, doc.DegradedReasons[i], want)
		}
	}
	if doc.Feasible {
		t.Error("a truly-degraded baseline plan cannot fit the GLB, yet feasible=true")
	}
	if doc.Scheme != core.DegradedBaseline {
		t.Errorf("scheme = %q, want %q", doc.Scheme, core.DegradedBaseline)
	}

	// Degraded plans are cached like any other successful plan.
	resp2, body2 := post(t, ts, "/v1/plan", infeasibleBody)
	if resp2.Header.Get("X-SMM-Cache") != "hit" || !bytes.Equal(body, body2) {
		t.Error("repeated degraded request not served byte-identically from cache")
	}

	// Simulating an over-capacity plan is a classified 422, never a 500.
	resp3, body3 := post(t, ts, "/v1/simulate", infeasibleBody)
	if resp3.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("simulate of over-capacity degraded plan: status %d (%s), want 422", resp3.StatusCode, body3)
	}

	_, mbody := get(t, ts, "/metrics")
	if n := metric(t, mbody, "smm_degraded_plans_total"); n != 1 {
		t.Errorf("smm_degraded_plans_total = %d, want 1 (one computation, one cache hit)", n)
	}
}

// TestStrictPreserves422 pins the opt-out: the strict flag restores the
// pre-ladder behaviour and hashes to its own cache key, so a cached
// degraded plan can never leak into a strict response.
func TestStrictPreserves422(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	// Warm the cache with the degraded (non-strict) plan first.
	if resp, body := post(t, ts, "/v1/plan", infeasibleBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("non-strict: status %d (%s)", resp.StatusCode, body)
	}
	resp, body := post(t, ts, "/v1/plan", `{"model": "ResNet18", "glb_kb": 1, "strict": true}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("strict: status %d (%s), want 422", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "fallback tiling") {
		t.Errorf("strict 422 lost the precise infeasibility message: %s", body)
	}
}

// TestShedWhenQueueFull covers admission control: with the single worker
// busy and the one-deep wait queue occupied, the next request is shed
// immediately with 503 + Retry-After instead of camping until its deadline.
func TestShedWhenQueueFull(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 1})
	blocked := make(chan struct{})
	release := make(chan struct{})
	srv.planFn = func(ctx context.Context, n *scratchmem.Network, o scratchmem.PlanOptions) (*scratchmem.Plan, error) {
		if n.Name == "TinyCNN" && o.Config.GLBBytes == 32*1024 {
			close(blocked)
		}
		<-release
		return scratchmem.PlanModelCtx(ctx, n, o, nil)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Three distinct keys, so no single-flight coalescing: the first holds
	// the only worker slot, the second fills the queue, the third is shed.
	first, second := make(chan int, 1), make(chan int, 1)
	go func() {
		resp, _ := post(t, ts, "/v1/plan", tinyPlanBody)
		first <- resp.StatusCode
	}()
	<-blocked
	go func() {
		resp, _ := post(t, ts, "/v1/plan", `{"model": "TinyCNN", "glb_kb": 16}`)
		second <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.sem.Waiting() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	resp, body := post(t, ts, "/v1/plan", `{"model": "TinyCNN", "glb_kb": 8}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%s), want 503", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != shedRetryAfterSeconds {
		t.Errorf("Retry-After = %q, want %q", ra, shedRetryAfterSeconds)
	}
	close(release)
	if code := <-first; code != http.StatusOK {
		t.Errorf("slot-holding request: status %d, want 200", code)
	}
	if code := <-second; code != http.StatusOK {
		t.Errorf("queued request: status %d, want 200", code)
	}

	_, mbody := get(t, ts, "/metrics")
	if n := metric(t, mbody, "smm_shed_total"); n != 1 {
		t.Errorf("smm_shed_total = %d, want 1", n)
	}
	if n := metric(t, mbody, `smm_errors_total{code="503"}`); n != 1 {
		t.Errorf("503 counter = %d, want 1", n)
	}
	if n := srv.sem.InUse(); n != 0 {
		t.Errorf("%d worker slots still held after all requests finished", n)
	}
}

// TestCircuitBreaker covers the consecutive-panic breaker: threshold
// panics trip the route to fast-503 (handler not invoked, Retry-After
// set, other routes unaffected), the cooldown admits one half-open probe,
// and a successful probe closes the circuit.
func TestCircuitBreaker(t *testing.T) {
	srv := New(Config{BreakerThreshold: 2, BreakerCooldown: time.Hour})
	now := time.Now()
	br := srv.breakers["/v1/plan"]
	br.Now = func() time.Time { return now } // frozen clock
	var calls atomic.Int32
	srv.planFn = func(context.Context, *scratchmem.Network, scratchmem.PlanOptions) (*scratchmem.Plan, error) {
		calls.Add(1)
		panic("planner exploded")
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		if resp, _ := post(t, ts, "/v1/plan", tinyPlanBody); resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("panic %d: status %d, want 500", i, resp.StatusCode)
		}
	}
	// Tripped: fast-503 without running the handler.
	resp, body := post(t, ts, "/v1/plan", tinyPlanBody)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open breaker: status %d (%s), want 503", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("open breaker response missing Retry-After")
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("planner invoked %d times, want 2 (breaker must not admit the third)", n)
	}
	// Other routes keep their own (closed) breakers.
	if resp, _ := get(t, ts, "/healthz"); resp.StatusCode != http.StatusOK {
		t.Error("healthz affected by the plan route's breaker")
	}
	if resp, _ := post(t, ts, "/v1/dse", tinyPlanBody); resp.StatusCode != http.StatusOK {
		t.Error("dse affected by the plan route's breaker")
	}

	// Cooldown elapses; the probe panics; the breaker reopens immediately.
	now = now.Add(2 * time.Hour)
	if resp, _ := post(t, ts, "/v1/plan", tinyPlanBody); resp.StatusCode != http.StatusInternalServerError {
		t.Fatal("half-open probe was not admitted")
	}
	if resp, _ := post(t, ts, "/v1/plan", tinyPlanBody); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatal("failed probe did not reopen the breaker")
	}

	// Cooldown again; a fixed planner's probe closes the circuit for good.
	srv.planFn = func(ctx context.Context, n *scratchmem.Network, o scratchmem.PlanOptions) (*scratchmem.Plan, error) {
		return scratchmem.PlanModelCtx(ctx, n, o, nil)
	}
	now = now.Add(2 * time.Hour)
	for i := 0; i < 2; i++ {
		if resp, _ := post(t, ts, "/v1/plan", tinyPlanBody); resp.StatusCode != http.StatusOK {
			t.Fatalf("recovered request %d: status %d, want 200", i, resp.StatusCode)
		}
	}

	_, mbody := get(t, ts, "/metrics")
	if n := metric(t, mbody, "smm_breaker_open_total"); n != 2 {
		t.Errorf("smm_breaker_open_total = %d, want 2 fast-failed requests", n)
	}
}

// TestMetricsGolden pins the full /metrics output of a fresh server (fixed
// worker count for determinism), so new counters land in the document
// deliberately. Regenerate with -update.
func TestMetricsGolden(t *testing.T) {
	ts := httptest.NewServer(New(Config{Workers: 4}).Handler())
	defer ts.Close()

	_, body := get(t, ts, "/metrics")
	golden := filepath.Join("testdata", "metrics_fresh.golden")
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
		t.Errorf("metrics drifted from golden file:\ngot:\n%s\nwant:\n%s", body, want)
	}
}
