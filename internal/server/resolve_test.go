package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	scratchmem "scratchmem"
)

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

// countPlans wraps srv's planner with a run counter.
func countPlans(srv *Server) *atomic.Int64 {
	var runs atomic.Int64
	inner := srv.planFn
	srv.planFn = func(ctx context.Context, n *scratchmem.Network, o scratchmem.PlanOptions) (*scratchmem.Plan, error) {
		runs.Add(1)
		return inner(ctx, n, o)
	}
	return &runs
}

// inlineTinyBody is a /v1/plan body carrying TinyCNN as an inline network,
// the case where resolution (model.ReadJSON) costs the most.
func inlineTinyBody(t *testing.T) string {
	t.Helper()
	net, err := scratchmem.BuiltinModel("TinyCNN")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := net.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf(`{"network": %s, "glb_kb": 32}`, buf.String())
}

// TestResolveMemoConcurrentBody: many goroutines repeating one body get
// byte-identical plans from one planner run, and after each goroutine's
// first request every repeat resolves from the memo.
func TestResolveMemoConcurrentBody(t *testing.T) {
	srv := New(Config{})
	runs := countPlans(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body := inlineTinyBody(t)

	const goroutines, each = 8, 25
	bodies := make([][]byte, goroutines*each)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				resp, err := http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				b, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("goroutine %d request %d: status %d, err %v", g, i, resp.StatusCode, err)
					return
				}
				bodies[g*each+i] = b
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, b := range bodies {
		if !bytes.Equal(b, bodies[0]) {
			t.Fatalf("response %d differs from response 0", i)
		}
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("planner ran %d times, want 1", n)
	}
	// A goroutine's first request may miss the memo, but it is stored
	// before that response completes, so every later one hits.
	st := srv.resolved.Stats()
	if st.Hits+st.Misses != goroutines*each || st.Misses > goroutines || st.Entries != 1 {
		t.Errorf("resolve memo: %+v, want %d lookups, at most %d misses, 1 entry", st, goroutines*each, goroutines)
	}
}

// TestResolveMemoSurvivesInvalidation: invalidation and purge drop the
// plan, not the body's resolution. The same body then misses the plan
// cache, re-plans from the memoized network and returns the same bytes.
func TestResolveMemoSurvivesInvalidation(t *testing.T) {
	srv := New(Config{})
	runs := countPlans(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, want := post(t, ts, "/v1/plan", tinyPlanBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first plan: status %d: %s", resp.StatusCode, want)
	}
	key := resp.Header.Get("X-SMM-Plan-Key")
	invalidations := []struct {
		name, method, path string
	}{
		{"delete", http.MethodDelete, "/v1/cache/" + key},
		{"purge", http.MethodPost, "/v1/cache/purge"},
	}
	for i, inv := range invalidations {
		req, err := http.NewRequest(inv.method, ts.URL+inv.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		iresp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		iresp.Body.Close()
		if iresp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", inv.name, iresp.StatusCode)
		}
		resp, got := post(t, ts, "/v1/plan", tinyPlanBody)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-SMM-Cache") != "miss" {
			t.Errorf("after %s: status %d cache %q, want 200 miss", inv.name, resp.StatusCode, resp.Header.Get("X-SMM-Cache"))
		}
		if !bytes.Equal(got, want) {
			t.Errorf("after %s: re-planned body differs", inv.name)
		}
		if n := runs.Load(); n != int64(i+2) {
			t.Errorf("after %s: planner ran %d times, want %d", inv.name, n, i+2)
		}
		if n := metricValue(t, ts, "smm_resolve_memo_hits_total"); n != int64(i+1) {
			t.Errorf("after %s: smm_resolve_memo_hits_total = %d, want %d", inv.name, n, i+1)
		}
	}
}

// TestResolveMemoSkipsErrors: a body that earns an error is never
// memoized, so sending it again resolves (and fails) again.
func TestResolveMemoSkipsErrors(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		body string
		want int
	}{
		{`{"model": "TinyCNN", "glb_kb": 32, "nope": 1}`, http.StatusBadRequest},
		{`{"model":"ResNet18","glb_kb":1,"strict":true}`, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		for i := 0; i < 2; i++ {
			if resp, body := post(t, ts, "/v1/plan", tc.body); resp.StatusCode != tc.want {
				t.Errorf("%s (send %d): status %d, want %d: %s", tc.body, i+1, resp.StatusCode, tc.want, body)
			}
		}
	}
	if n := metricValue(t, ts, "smm_resolve_memo_hits_total"); n != 0 {
		t.Errorf("smm_resolve_memo_hits_total = %d, want 0", n)
	}
	if n := metricValue(t, ts, "smm_resolve_memo_misses_total"); n != 4 {
		t.Errorf("smm_resolve_memo_misses_total = %d, want 4", n)
	}
}

// TestResolveMemoFollowsCacheCapacity: with plan storage disabled the memo
// is disabled too, so every request resolves and plans.
func TestResolveMemoFollowsCacheCapacity(t *testing.T) {
	srv := New(Config{CacheEntries: -1})
	runs := countPlans(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const sends = 3
	for i := 0; i < sends; i++ {
		if resp, body := post(t, ts, "/v1/plan", tinyPlanBody); resp.StatusCode != http.StatusOK {
			t.Fatalf("send %d: status %d: %s", i+1, resp.StatusCode, body)
		}
	}
	if st := srv.resolved.Stats(); st.Hits != 0 || st.Misses != sends || st.Capacity != 0 {
		t.Errorf("resolve memo: %+v, want 0 hits, %d misses, capacity 0", st, sends)
	}
	if n := runs.Load(); n != sends {
		t.Errorf("planner ran %d times, want %d", n, sends)
	}
}

// TestResolveMemoWhitespaceVariants: the memo keys raw bytes, so a
// whitespace variant is its own entry, but it resolves to the same plan
// key and is served from the plan cache.
func TestResolveMemoWhitespaceVariants(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp1, body1 := post(t, ts, "/v1/plan", tinyPlanBody)
	resp2, body2 := post(t, ts, "/v1/plan", " "+tinyPlanBody+"\n")
	if resp1.StatusCode != http.StatusOK || resp2.StatusCode != http.StatusOK {
		t.Fatalf("statuses %d, %d", resp1.StatusCode, resp2.StatusCode)
	}
	if k1, k2 := resp1.Header.Get("X-SMM-Plan-Key"), resp2.Header.Get("X-SMM-Plan-Key"); k1 != k2 {
		t.Errorf("plan keys differ: %q vs %q", k1, k2)
	}
	if resp2.Header.Get("X-SMM-Cache") != "hit" || !bytes.Equal(body1, body2) {
		t.Error("whitespace variant was not served the cached plan")
	}
	if st := srv.resolved.Stats(); st.Hits != 0 || st.Entries != 2 {
		t.Errorf("resolve memo: %+v, want 0 hits and 2 entries", st)
	}
}
