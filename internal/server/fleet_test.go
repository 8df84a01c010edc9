package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	scratchmem "scratchmem"
	"scratchmem/internal/cluster"
	"scratchmem/internal/faultinject"
)

// planKeyFor computes the full cache key ("plan:" + content hash) for a
// builtin-model request, matching what the fleet hashes onto its ring.
func planKeyFor(t *testing.T, modelName string, glbKB int) string {
	t.Helper()
	net, err := scratchmem.BuiltinModel(modelName)
	if err != nil {
		t.Fatal(err)
	}
	key, err := scratchmem.PlanKey(net, scratchmem.PlanOptions{Config: scratchmem.DefaultConfig(glbKB)})
	if err != nil {
		t.Fatal(err)
	}
	return "plan:" + key
}

// TestFleetMemberPlansItsOwnMisses: a fleet member plans every miss itself.
// Its fleet lists it and two peers that count every request they get, with
// health probes off. 24 distinct keys, sent 8 at a time, each answer a 200
// byte-identical to a standalone server's, the member's planner runs once
// per key, and the peers receive no request.
func TestFleetMemberPlansItsOwnMisses(t *testing.T) {
	var peerRequests atomic.Int64
	peers := make([]string, 2)
	for i := range peers {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			peerRequests.Add(1)
			http.Error(w, "a peer must not be asked", http.StatusTeapot)
		}))
		t.Cleanup(ts.Close)
		peers[i] = ts.URL
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	self := "http://" + l.Addr().String()
	fleet, err := cluster.NewFleet(append([]string{self}, peers...), self)
	if err != nil {
		t.Fatal(err)
	}
	fleet.Invalidate, fleet.Status = chaosInvalidate, chaosStatus
	srv := New(Config{Timeout: 5 * time.Second, Fleet: fleet})
	var planned atomic.Int64
	inner := srv.planFn
	srv.planFn = func(ctx context.Context, net *scratchmem.Network, o scratchmem.PlanOptions) (*scratchmem.Plan, error) {
		planned.Add(1)
		return inner(ctx, net, o)
	}
	member := &httptest.Server{Listener: l, Config: &http.Server{Handler: srv.Handler()}}
	member.Start()
	t.Cleanup(member.Close)

	standalone := httptest.NewServer(New(Config{}).Handler())
	defer standalone.Close()
	var bodies []string
	want := map[string][]byte{}
	for _, name := range []string{"TinyCNN", "AlexNet", "MobileNet"} {
		for _, kb := range []int{64, 96, 128, 192, 256, 384, 512, 768} {
			body := fmt.Sprintf(`{"model": %q, "glb_kb": %d}`, name, kb)
			resp, doc := post(t, standalone, "/v1/plan", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("standalone %s: status %d: %s", body, resp.StatusCode, doc)
			}
			bodies = append(bodies, body)
			want[body] = doc
		}
	}

	const inFlight = 8
	for start := 0; start < len(bodies); start += inFlight {
		var wg sync.WaitGroup
		for _, body := range bodies[start : start+inFlight] {
			wg.Add(1)
			go func(body string) {
				defer wg.Done()
				resp, doc, err := rawPost(member.URL, "/v1/plan", body)
				switch {
				case err != nil:
					t.Errorf("%s: %v", body, err)
				case resp.StatusCode != http.StatusOK:
					t.Errorf("%s: status %d: %s", body, resp.StatusCode, doc)
				case !bytes.Equal(doc, want[body]):
					t.Errorf("%s: the member's document differs from the standalone server's", body)
				}
			}(body)
		}
		wg.Wait()
	}
	if n := planned.Load(); n != int64(len(bodies)) {
		t.Errorf("the member's planner ran %d times for %d keys, want once per key", n, len(bodies))
	}
	if n := peerRequests.Load(); n != 0 {
		t.Errorf("the peers received %d requests, want none", n)
	}
}

// TestFanoutBoundedPerMember: a peer that accepts connections and never
// answers holds a fan-out invalidation for memberTimeout, both attempts
// included, not for the request deadline. With health probes off, so the
// hung peer stays live, DELETE /v1/cache/{key} and POST /v1/cache/purge
// each answer within the bound plus a margin, with the peer's row not ok
// and the local removal applied.
func TestFanoutBoundedPerMember(t *testing.T) {
	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer hung.Close()
	defer close(release)
	member := httptest.NewUnstartedServer(nil)
	self := "http://" + member.Listener.Addr().String()
	fleet, err := cluster.NewFleet([]string{self, hung.URL}, self)
	if err != nil {
		t.Fatal(err)
	}
	fleet.Invalidate, fleet.Status = chaosInvalidate, chaosStatus
	const timeout = 10 * time.Second
	member.Config.Handler = New(Config{Timeout: timeout, Fleet: fleet}).Handler()
	member.Start()
	defer member.Close()

	const margin = time.Second
	send := func(method, path string) []byte {
		t.Helper()
		req, err := http.NewRequest(method, member.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body bytes.Buffer
		body.ReadFrom(resp.Body)
		if d := time.Since(start); resp.StatusCode != http.StatusOK || d > memberTimeout+margin {
			t.Errorf("%s %s: status %d after %v, want 200 within %v (the request deadline is %v)",
				method, path, resp.StatusCode, d.Round(time.Millisecond), memberTimeout+margin, timeout)
		}
		return body.Bytes()
	}
	hungRow := func(fanout []FanoutResult) {
		t.Helper()
		if len(fanout) != 1 || fanout[0].Member != hung.URL || fanout[0].OK || fanout[0].Error == "" {
			t.Errorf("fanout = %+v, want one failed row for %s", fanout, hung.URL)
		}
	}

	planKey := func() string {
		resp, body, err := rawPost(member.URL, "/v1/plan", tinyPlanBody)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("plan: %v %s", err, body)
		}
		return resp.Header.Get("X-SMM-Plan-Key")
	}
	var inv InvalidateResponse
	if err := json.Unmarshal(send(http.MethodDelete, "/v1/cache/"+planKey()), &inv); err != nil {
		t.Fatal(err)
	}
	if inv.Removed != 1 {
		t.Errorf("removed = %d, want the local plan removed", inv.Removed)
	}
	hungRow(inv.Fanout)

	planKey()
	var purge PurgeResponse
	if err := json.Unmarshal(send(http.MethodPost, "/v1/cache/purge"), &purge); err != nil {
		t.Fatal(err)
	}
	if purge.Purged != 1 {
		t.Errorf("purged = %d, want the local plan purged", purge.Purged)
	}
	hungRow(purge.Fanout)
}

// TestSnapshotRestore round-trips the cache through the snapshot stream:
// a fresh server restored from it serves the same documents as pure cache
// hits without ever running its planner.
func TestSnapshotRestore(t *testing.T) {
	a := New(Config{})
	tsA := httptest.NewServer(a.Handler())
	defer tsA.Close()

	requests := []string{
		`{"model": "TinyCNN", "glb_kb": 32}`,
		`{"model": "TinyCNN", "glb_kb": 64, "objective": "latency", "interlayer": true}`,
		`{"model": "AlexNet", "glb_kb": 108, "homogeneous": true}`,
	}
	want := make(map[string][]byte, len(requests))
	for _, reqBody := range requests {
		resp, body := post(t, tsA, "/v1/plan", reqBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed plan failed: %d %s", resp.StatusCode, body)
		}
		want[reqBody] = body
	}

	resp, snap := get(t, tsA, "/v1/cache/snapshot")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-SMM-Snapshot-Entries"); got != "3" {
		t.Fatalf("snapshot entries = %s, want 3", got)
	}

	b := New(Config{})
	b.planFn = func(context.Context, *scratchmem.Network, scratchmem.PlanOptions) (*scratchmem.Plan, error) {
		t.Error("restored server ran its planner")
		return nil, fmt.Errorf("must not plan")
	}
	added, skipped, err := b.RestoreSnapshot(bytes.NewReader(snap))
	if err != nil || added != 3 || skipped != 0 {
		t.Fatalf("RestoreSnapshot = %d added, %d skipped, %v", added, skipped, err)
	}
	tsB := httptest.NewServer(b.Handler())
	defer tsB.Close()
	for _, reqBody := range requests {
		resp, body := post(t, tsB, "/v1/plan", reqBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("restored plan failed: %d %s", resp.StatusCode, body)
		}
		if resp.Header.Get("X-SMM-Cache") != "hit" {
			t.Errorf("restored server answered %q, want a warm hit", resp.Header.Get("X-SMM-Cache"))
		}
		if !bytes.Equal(body, want[reqBody]) {
			t.Errorf("restored document differs for %s", reqBody)
		}
	}
}

// TestSnapshotSkipsDegradedAndTampered: degraded plans never enter the
// stream, and a tampered record is skipped on restore, not trusted.
func TestSnapshotSkipsDegradedAndTampered(t *testing.T) {
	a := New(Config{})
	tsA := httptest.NewServer(a.Handler())
	defer tsA.Close()

	if resp, body := post(t, tsA, "/v1/plan", `{"model": "AlexNet", "glb_kb": 1}`); resp.StatusCode != http.StatusOK ||
		!strings.Contains(string(body), `"degraded": true`) {
		t.Fatalf("expected a 200 degraded plan, got %d", resp.StatusCode)
	}
	post(t, tsA, "/v1/plan", tinyPlanBody)

	resp, snap := get(t, tsA, "/v1/cache/snapshot")
	if got := resp.Header.Get("X-SMM-Snapshot-Entries"); got != "1" {
		t.Fatalf("snapshot entries = %s, want 1 (degraded plan must be skipped)", got)
	}

	// Corrupt the surviving record's figures; the restorer must reject it.
	var rec SnapshotRecord
	if err := json.Unmarshal(snap, &rec); err != nil {
		t.Fatal(err)
	}
	rec.Doc.Layers[0].AccessElems++
	tampered, err := json.Marshal(&rec)
	if err != nil {
		t.Fatal(err)
	}
	b := New(Config{})
	added, skipped, err := b.RestoreSnapshot(bytes.NewReader(tampered))
	if err != nil || added != 0 || skipped != 1 {
		t.Fatalf("RestoreSnapshot(tampered) = %d added, %d skipped, %v; want 0/1", added, skipped, err)
	}
}

// TestSnapshotFaultInjection: the cluster.snapshot chaos site turns the
// stream into a retryable 503.
func TestSnapshotFaultInjection(t *testing.T) {
	faultinject.Enable(3, faultinject.Fault{Site: "cluster.snapshot", Kind: faultinject.KindError, P: 1})
	defer faultinject.Disable()
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	resp, _ := get(t, ts, "/v1/cache/snapshot")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

// TestVersionEndpoint: /v1/version reports the module and toolchain.
func TestVersionEndpoint(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	resp, body := get(t, ts, "/v1/version")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var v VersionInfo
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.Module != "scratchmem" {
		t.Errorf("module = %q, want scratchmem", v.Module)
	}
	if !strings.HasPrefix(v.Go, "go") {
		t.Errorf("go version = %q", v.Go)
	}
}
