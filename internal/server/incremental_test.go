package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"testing"

	scratchmem "scratchmem"
	"scratchmem/internal/layer"
)

// neighborBody renders a /v1/plan request for a one-layer mutation of a
// builtin: layer idx gets delta more filters (channels for depth-wise).
func neighborBody(t *testing.T, base string, idx, delta int) string {
	t.Helper()
	return fmt.Sprintf(`{"network": %s, "glb_kb": 64}`, neighborNetwork(t, base, idx, delta))
}

// neighborNetwork is neighborBody's inline network in the scratchmem JSON
// format.
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

// metricValue scrapes one counter (with its exact label string) out of a
// /metrics exposition body.
func metricValue(t *testing.T, ts *httptest.Server, name string) int64 {
	t.Helper()
	resp, body := get(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\d+)$`)
	m := re.FindSubmatch(body)
	if m == nil {
		t.Fatalf("metric %s not exposed:\n%s", name, body)
	}
	v, err := strconv.ParseInt(string(m[1]), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestIncrementalPlanMetrics drives the server's differential-planning seam
// end to end: the first plan of a network is a full run, a one-layer
// neighbor splices from its fingerprint, and both show up in /metrics.
func TestIncrementalPlanMetrics(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	if resp, body := post(t, ts, "/v1/plan", `{"model": "ResNet18", "glb_kb": 64}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("base plan: status %d: %s", resp.StatusCode, body)
	}
	if got := metricValue(t, ts, `smm_incremental_plans_total{outcome="full"}`); got < 1 {
		t.Fatalf("full outcome counter = %d after a cold plan", got)
	}
	if got := metricValue(t, ts, `smm_incremental_plans_total{outcome="spliced"}`); got != 0 {
		t.Fatalf("spliced counter = %d before any neighbor", got)
	}

	if resp, body := post(t, ts, "/v1/plan", neighborBody(t, "ResNet18", 10, 1)); resp.StatusCode != http.StatusOK {
		t.Fatalf("neighbor plan: status %d: %s", resp.StatusCode, body)
	}
	if got := metricValue(t, ts, `smm_incremental_plans_total{outcome="spliced"}`); got < 1 {
		t.Fatalf("spliced counter = %d after a one-layer neighbor", got)
	}
	if got := metricValue(t, ts, "smm_incremental_layers_reused_total"); got <= 0 {
		t.Fatalf("layers reused = %d after a spliced plan", got)
	}
}

// TestIncrementalPurgeNeverSplices is the invalidation acceptance test: a
// purged plan must never be spliced from. After POST /v1/cache/purge the
// fingerprint index is empty, so the next neighbor plans in full.
func TestIncrementalPurgeNeverSplices(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	if resp, body := post(t, ts, "/v1/plan", `{"model": "ResNet18", "glb_kb": 64}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("base plan: status %d: %s", resp.StatusCode, body)
	}
	if resp, _ := post(t, ts, "/v1/cache/purge", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("purge: status %d", resp.StatusCode)
	}
	if resp, body := post(t, ts, "/v1/plan", neighborBody(t, "ResNet18", 10, 1)); resp.StatusCode != http.StatusOK {
		t.Fatalf("neighbor plan: status %d: %s", resp.StatusCode, body)
	}
	if got := metricValue(t, ts, `smm_incremental_plans_total{outcome="spliced"}`); got != 0 {
		t.Fatalf("a neighbor spliced from a purged plan (spliced counter = %d)", got)
	}
	if got := metricValue(t, ts, `smm_incremental_plans_total{outcome="full"}`); got < 2 {
		t.Fatalf("full counter = %d, want both plans full after purge", got)
	}
}

// TestIncrementalDeleteInvalidatesFingerprint is the same property for a
// single-key DELETE /v1/cache/{key}: after invalidating the base plan, its
// neighbor cannot splice from it.
func TestIncrementalDeleteInvalidatesFingerprint(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	resp, body := post(t, ts, "/v1/plan", `{"model": "ResNet18", "glb_kb": 64}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("base plan: status %d: %s", resp.StatusCode, body)
	}
	key := resp.Header.Get("X-SMM-Plan-Key")
	if key == "" {
		t.Fatal("plan response carries no X-SMM-Plan-Key")
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/cache/"+key, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", dresp.StatusCode)
	}

	if resp, body := post(t, ts, "/v1/plan", neighborBody(t, "ResNet18", 10, 1)); resp.StatusCode != http.StatusOK {
		t.Fatalf("neighbor plan: status %d: %s", resp.StatusCode, body)
	}
	if got := metricValue(t, ts, `smm_incremental_plans_total{outcome="spliced"}`); got != 0 {
		t.Fatalf("a neighbor spliced from a deleted plan (spliced counter = %d)", got)
	}
}

// TestBatchNeighborsSplice exercises the batch-local fingerprint index: a
// /v1/plan/batch of one base network plus neighbors splices within the
// batch even on a cold server.
func TestBatchNeighborsSplice(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	batch := fmt.Sprintf(`{"requests": [{"model": "ResNet18", "glb_kb": 64}, %s, %s]}`,
		neighborBody(t, "ResNet18", 5, 1), neighborBody(t, "ResNet18", 15, 2))
	if resp, body := post(t, ts, "/v1/plan/batch", batch); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, body)
	}
	if got := metricValue(t, ts, `smm_incremental_plans_total{outcome="spliced"}`); got < 1 {
		t.Fatalf("spliced counter = %d after a neighbor batch", got)
	}
}
