package client

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"scratchmem/internal/obs"
	"scratchmem/internal/server"
)

// TestPlanBatchAgainstRealServer round-trips a small mixed batch: healthy
// items return documents, the broken one carries its own 400 without
// failing the call.
func TestPlanBatchAgainstRealServer(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	defer ts.Close()
	var slept []time.Duration
	c := testClient(ts, &slept)

	res, err := c.PlanBatch(context.Background(), []server.PlanRequest{
		{Model: "TinyCNN", GLBKiloBytes: 32},
		{Model: "NoSuchNet", GLBKiloBytes: 32},
		{Model: "TinyCNN", GLBKiloBytes: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 3 {
		t.Fatalf("batch returned %d results, want 3", len(res.Results))
	}
	for _, i := range []int{0, 2} {
		item := res.Results[i]
		if item.Status != http.StatusOK || len(item.Plan) == 0 {
			t.Errorf("item %d: status %d, %d plan bytes (%s)", i, item.Status, len(item.Plan), item.Error)
		}
	}
	if res.Results[1].Status != http.StatusBadRequest {
		t.Errorf("bad item status %d, want 400", res.Results[1].Status)
	}
	if len(slept) != 0 {
		t.Errorf("healthy batch slept %v", slept)
	}
}

// TestSnapshotFetchAndRestore moves a warm cache between servers through
// the client: plan on A, Snapshot, RestoreSnapshot into B, and B's first
// request is already a cache hit serving the identical document.
func TestSnapshotFetchAndRestore(t *testing.T) {
	srvA := server.New(server.Config{})
	tsA := httptest.NewServer(srvA.Handler())
	defer tsA.Close()
	var slept []time.Duration
	c := testClient(tsA, &slept)

	want, err := c.PlanRaw(context.Background(), server.PlanRequest{Model: "TinyCNN", GLBKiloBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := c.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	srvB := server.New(server.Config{})
	added, skipped, err := srvB.RestoreSnapshot(bytes.NewReader(snap))
	if err != nil || added != 1 || skipped != 0 {
		t.Fatalf("RestoreSnapshot = (%d, %d, %v), want (1, 0, nil)", added, skipped, err)
	}
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()
	resp, err := http.Post(tsB.URL+"/v1/plan", "application/json", strings.NewReader(`{"model": "TinyCNN", "glb_kb": 32}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if hdr := resp.Header.Get("X-SMM-Cache"); hdr != "hit" {
		t.Errorf("restored server X-SMM-Cache = %q, want hit", hdr)
	}
	if !bytes.Equal(got, want) {
		t.Error("restored server served a different document")
	}
}

// TestVersionOverTheWire: GET /v1/version decodes through the client.
func TestVersionOverTheWire(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	defer ts.Close()
	var slept []time.Duration
	c := testClient(ts, &slept)

	v, err := c.Version(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v.Module != "scratchmem" || !strings.HasPrefix(v.Go, "go") {
		t.Errorf("version = %+v", v)
	}
}

// TestClientInjectsTraceparent: every request through the client carries
// the caller's trace context as the X-SMM-Traceparent header — the single
// funnel that makes fleet traces cross process boundaries.
func TestClientInjectsTraceparent(t *testing.T) {
	var gotHeader atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotHeader.Store(r.Header.Get(obs.TraceparentHeader))
		w.Write([]byte(`{"module": "scratchmem", "go": "go0"}`))
	}))
	defer ts.Close()
	c := New(ts.URL)
	c.MaxRetries = -1

	tr := obs.NewTracer(4)
	ctx, span := obs.StartSpan(obs.WithTracer(context.Background(), tr), "request")
	if _, err := c.Version(ctx); err != nil {
		t.Fatal(err)
	}
	want := obs.TraceContext{TraceID: span.TraceID, ParentID: span.SpanID}
	if got, _ := gotHeader.Load().(string); got != want.String() {
		t.Errorf("traceparent header = %q, want %q", got, want.String())
	}
	span.End()

	// Without an active span there is nothing to propagate: no header.
	if _, err := c.Version(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, _ := gotHeader.Load().(string); got != "" {
		t.Errorf("traceparent header = %q on a span-less request, want absent", got)
	}
}

// TestClusterOverviewOverTheWire: the overview document round-trips
// through the typed client accessor, and StatusTransport pulls a member's
// raw status document.
func TestClusterOverviewOverTheWire(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	defer ts.Close()
	c := New(ts.URL)
	c.MaxRetries = -1

	ov, err := c.ClusterOverview(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// A standalone server answers with its own single row.
	if len(ov.Members) != 1 || ov.Members[0].Status == nil || ov.Totals.Reachable != 1 {
		t.Errorf("standalone overview = %+v", ov)
	}

	body, err := c.StatusTransport()(context.Background(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	var st server.ClusterStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("status transport body does not decode: %v: %s", err, body)
	}
}
