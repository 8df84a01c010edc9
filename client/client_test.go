package client

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	scratchmem "scratchmem"
	"scratchmem/internal/core"
	"scratchmem/internal/server"
)

// testClient wires a Client to ts with recorded (not slept) backoffs and a
// deterministic jitter source.
func testClient(ts *httptest.Server, slept *[]time.Duration) *Client {
	c := New(ts.URL)
	c.rng = rand.New(rand.NewSource(1))
	c.sleep = func(ctx context.Context, d time.Duration) error {
		*slept = append(*slept, d)
		return nil
	}
	return c
}

func TestPlanAgainstRealServer(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	defer ts.Close()
	var slept []time.Duration
	c := testClient(ts, &slept)

	doc, err := c.Plan(context.Background(), server.PlanRequest{Model: "TinyCNN", GLBKiloBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Model != "TinyCNN" || doc.Degraded || len(doc.Layers) == 0 {
		t.Errorf("unexpected plan doc: model=%q degraded=%v layers=%d", doc.Model, doc.Degraded, len(doc.Layers))
	}
	if len(slept) != 0 {
		t.Errorf("healthy request slept %v", slept)
	}

	sim, err := c.Simulate(context.Background(), server.SimulateRequest{PlanRequest: server.PlanRequest{Model: "TinyCNN", GLBKiloBytes: 32}})
	if err != nil {
		t.Fatal(err)
	}
	if sim.MeasuredCycles <= 0 {
		t.Errorf("simulate returned %+v", sim)
	}

	models, err := c.Models(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(models) == 0 {
		t.Error("no models listed")
	}
}

// TestDegradedAndStrictOverTheWire: the ladder's two faces map through the
// client — degraded 200 decodes with its reason chain, strict 422 satisfies
// errors.Is(err, scratchmem.ErrInfeasible) without any retries.
func TestDegradedAndStrictOverTheWire(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	defer ts.Close()
	var slept []time.Duration
	c := testClient(ts, &slept)

	doc, err := c.Plan(context.Background(), server.PlanRequest{Model: "ResNet18", GLBKiloBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !doc.Degraded || doc.DegradedMode != core.DegradedBaseline || len(doc.DegradedReasons) == 0 {
		t.Errorf("degraded plan lost its record over the wire: %+v", doc)
	}

	_, err = c.Plan(context.Background(), server.PlanRequest{Model: "ResNet18", GLBKiloBytes: 1, Strict: true})
	if !errors.Is(err, scratchmem.ErrInfeasible) {
		t.Fatalf("strict err = %v, want ErrInfeasible", err)
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusUnprocessableEntity {
		t.Errorf("err = %v, want APIError with status 422", err)
	}
	if len(slept) != 0 {
		t.Errorf("terminal 422 triggered retries: slept %v", slept)
	}
}

// TestRetriesTransientThenSucceeds: 503s with Retry-After are retried, the
// hint floors the jittered backoff, and the eventual 200 wins.
func TestRetriesTransientThenSucceeds(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error": "shed"}`))
			return
		}
		w.Write([]byte(`{"model": "TinyCNN"}`))
	}))
	defer ts.Close()
	var slept []time.Duration
	c := testClient(ts, &slept)

	doc, err := c.Plan(context.Background(), server.PlanRequest{Model: "TinyCNN", GLBKiloBytes: 32})
	if err != nil || doc.Model != "TinyCNN" {
		t.Fatalf("Plan = (%+v, %v), want success on third attempt", doc, err)
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("server saw %d calls, want 3", n)
	}
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(slept))
	}
	for i, d := range slept {
		if d < 2*time.Second {
			t.Errorf("backoff %d = %v, below the 2s Retry-After floor", i, d)
		}
	}
}

// TestTerminalErrorsDoNotRetry: 400 maps to ErrBadModel and is never
// retried.
func TestTerminalErrorsDoNotRetry(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error": "no such model"}`))
	}))
	defer ts.Close()
	var slept []time.Duration
	c := testClient(ts, &slept)

	_, err := c.Plan(context.Background(), server.PlanRequest{Model: "nope", GLBKiloBytes: 32})
	if !errors.Is(err, scratchmem.ErrBadModel) {
		t.Fatalf("err = %v, want ErrBadModel", err)
	}
	if calls.Load() != 1 || len(slept) != 0 {
		t.Errorf("terminal 400: %d calls, %d sleeps; want 1, 0", calls.Load(), len(slept))
	}
}

// TestRetriesExhausted: a persistently failing server consumes MaxRetries
// and surfaces the last APIError.
func TestRetriesExhausted(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte(`{"error": "kaboom"}`))
	}))
	defer ts.Close()
	var slept []time.Duration
	c := testClient(ts, &slept)
	c.MaxRetries = 2

	_, err := c.Plan(context.Background(), server.PlanRequest{Model: "TinyCNN", GLBKiloBytes: 32})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusInternalServerError {
		t.Fatalf("err = %v, want the final 500", err)
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("server saw %d calls, want 1 + 2 retries", n)
	}
}

// TestDeadlineBudget: when the remaining deadline cannot cover the next
// backoff, the client stops immediately and reports the last real failure
// instead of sleeping into certain expiry.
func TestDeadlineBudget(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	var slept []time.Duration
	c := testClient(ts, &slept)

	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Plan(ctx, server.PlanRequest{Model: "TinyCNN", GLBKiloBytes: 32})
	if elapsed := time.Since(start); elapsed > 400*time.Millisecond {
		t.Errorf("budget-bounded call took %v", elapsed)
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want the underlying 503 inside the budget error", err)
	}
	if len(slept) != 0 {
		t.Errorf("client slept %v with a 30s floor and a 500ms budget", slept)
	}
}

// TestPlanRawRetryBudgetExhausted: when a flapping server's Retry-After
// floor cannot fit inside the caller's deadline, PlanRaw gives up
// immediately — no sleep, no extra attempt — and surfaces the underlying
// 503 inside a budget error, leaving the caller the rest of its deadline.
func TestPlanRawRetryBudgetExhausted(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/plan" {
			t.Errorf("PlanRaw hit %s", r.URL.Path)
		}
		calls.Add(1)
		w.Header().Set("Retry-After", "2")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error": "shed"}`))
	}))
	defer ts.Close()
	var slept []time.Duration
	c := testClient(ts, &slept)

	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.PlanRaw(ctx, server.PlanRequest{Model: "TinyCNN", GLBKiloBytes: 32})
	if elapsed := time.Since(start); elapsed > 400*time.Millisecond {
		t.Errorf("budget-bounded call took %v", elapsed)
	}
	if err == nil || !strings.Contains(err.Error(), "retry budget exhausted") {
		t.Fatalf("err = %v, want a retry-budget error", err)
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Errorf("err = %v, want the underlying 503 preserved", err)
	}
	if calls.Load() != 1 || len(slept) != 0 {
		t.Errorf("exhausted budget: %d calls, %d sleeps; want 1, 0", calls.Load(), len(slept))
	}
}

// TestNetworkErrorsRetry: connection failures are transient too.
func TestNetworkErrorsRetry(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := ts.URL
	ts.Close() // nothing listens any more
	var slept []time.Duration
	c := New(url)
	c.rng = rand.New(rand.NewSource(1))
	c.sleep = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}
	c.MaxRetries = 2

	_, err := c.Plan(context.Background(), server.PlanRequest{Model: "TinyCNN", GLBKiloBytes: 32})
	if err == nil {
		t.Fatal("dead server answered")
	}
	if errors.Is(err, scratchmem.ErrBadModel) || errors.Is(err, scratchmem.ErrInfeasible) {
		t.Errorf("network error misclassified as terminal: %v", err)
	}
	if len(slept) != 2 {
		t.Errorf("slept %d times, want 2 (network errors retry)", len(slept))
	}
}

// TestBackoffShape: full jitter stays within [0, min(base<<attempt, max)]
// and a Retry-After hint floors it.
func TestBackoffShape(t *testing.T) {
	c := New("http://unused")
	c.rng = rand.New(rand.NewSource(42))
	c.BaseDelay = 100 * time.Millisecond
	c.MaxDelay = time.Second
	for attempt := 0; attempt < 10; attempt++ {
		ceil := c.BaseDelay << attempt
		if ceil > c.MaxDelay || ceil <= 0 {
			ceil = c.MaxDelay
		}
		for i := 0; i < 50; i++ {
			if d := c.backoff(attempt, &APIError{Status: 503}); d < 0 || d > ceil {
				t.Fatalf("attempt %d: backoff %v outside [0, %v]", attempt, d, ceil)
			}
		}
	}
	floor := 3 * time.Second
	for i := 0; i < 50; i++ {
		if d := c.backoff(0, &APIError{Status: 503, RetryAfter: floor}); d < floor {
			t.Fatalf("backoff %v below Retry-After floor %v", d, floor)
		}
	}
}

// TestRetryableClassification pins the status table.
func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{&APIError{Status: 400}, false},
		{&APIError{Status: 404}, false},
		{&APIError{Status: 422}, false},
		{&APIError{Status: 429}, true},
		{&APIError{Status: 500}, true},
		{&APIError{Status: 502}, true},
		{&APIError{Status: 503}, true},
		{&APIError{Status: 504}, true},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
		{errors.New("connection refused"), true},
	}
	for _, tc := range cases {
		if got := Retryable(tc.err); got != tc.want {
			t.Errorf("Retryable(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}
