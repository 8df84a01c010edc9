package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	scratchmem "scratchmem"
	"scratchmem/internal/cluster"
	"scratchmem/internal/faultinject"
	"scratchmem/internal/obs"
)

// fleetNode is one member of an in-process loopback fleet.
type fleetNode struct {
	srv     *Server
	ts      *httptest.Server
	url     string
	planned *atomic.Int64 // planner executions on this node
}

// testFill is the test transport: a plain POST to the owner's
// /v1/peer/fill, no retries (cmd/smm-serve wires the retrying client
// here). It stamps the traceparent header exactly like the client's
// transport does, so cross-node trace assertions hold in-process too.
func testFill(ctx context.Context, baseURL string, request any) ([]byte, error) {
	b, err := json.Marshal(request)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/peer/fill", bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tc := obs.TraceContextFrom(ctx); tc.Valid() {
		req.Header.Set(obs.TraceparentHeader, tc.String())
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("peer fill: %s: %s", resp.Status, body)
	}
	return body, nil
}

// newFleet starts n clustered servers on loopback listeners sharing one
// ring, each with a counting planner seam and breakerThreshold for its
// per-member fill breakers (0 selects the default).
func newFleet(t *testing.T, n, breakerThreshold int) ([]*fleetNode, *cluster.Ring) {
	t.Helper()
	listeners := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		urls[i] = "http://" + l.Addr().String()
	}
	ring, err := cluster.NewRing(urls, 0)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*fleetNode, n)
	for i := range nodes {
		self := urls[i]
		srv := New(Config{
			Timeout: 5 * time.Second,
			Fleet:   &cluster.Fleet{Ring: ring, Self: self, Fill: testFill, BreakerThreshold: breakerThreshold},
		})
		counter := &atomic.Int64{}
		inner := srv.planFn
		srv.planFn = func(ctx context.Context, net *scratchmem.Network, o scratchmem.PlanOptions) (*scratchmem.Plan, error) {
			counter.Add(1)
			return inner(ctx, net, o)
		}
		ts := &httptest.Server{Listener: listeners[i], Config: &http.Server{Handler: srv.Handler()}}
		ts.Start()
		t.Cleanup(ts.Close)
		nodes[i] = &fleetNode{srv: srv, ts: ts, url: self, planned: counter}
	}
	return nodes, ring
}

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

// TestFleetPlansExactlyOnce is the headline property: the same plan
// requested on every node of a three-node fleet runs the planner exactly
// once fleet-wide, the non-owners filling from the owner.
func TestFleetPlansExactlyOnce(t *testing.T) {
	nodes, ring := newFleet(t, 3, 0)

	var bodies [][]byte
	for _, n := range nodes {
		resp, body := post(t, n.ts, "/v1/plan", tinyPlanBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("node %s: status %d: %s", n.url, resp.StatusCode, body)
		}
		bodies = append(bodies, body)
	}
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Errorf("node %d served a different document than node 0", i)
		}
	}

	var total int64
	for _, n := range nodes {
		total += n.planned.Load()
	}
	if total != 1 {
		t.Fatalf("planner ran %d times fleet-wide, want exactly 1", total)
	}

	// The owner reports owning the key; the two non-owners report fill
	// hits — visible both in PeerStats and on /metrics.
	owner := ring.Owner(planKeyFor(t, "TinyCNN", 32))
	hits := int64(0)
	for _, n := range nodes {
		ps := n.srv.fleet.PeerStats()
		_, metricsBody := get(t, n.ts, "/metrics")
		if n.url == owner {
			if n.planned.Load() != 1 {
				t.Errorf("owner %s did not run the planner", n.url)
			}
			if ps.OwnerSelf == 0 {
				t.Errorf("owner %s reports no owned keys", n.url)
			}
			if metric(t, metricsBody, `smm_ring_owner_self_total`) == 0 {
				t.Errorf("owner %s: smm_ring_owner_self_total is zero", n.url)
			}
		} else {
			if n.planned.Load() != 0 {
				t.Errorf("non-owner %s ran the planner", n.url)
			}
			if metric(t, metricsBody, `smm_peer_fill_total{outcome="hit"}`) != ps.Hit {
				t.Errorf("non-owner %s: metrics and PeerStats disagree", n.url)
			}
		}
		hits += ps.Hit
	}
	if hits != 2 {
		t.Fatalf("fleet recorded %d fill hits, want 2", hits)
	}

	// Repeat requests on a non-owner are served from its plan cache, where
	// the fill was stored: no new fills, no new planner runs.
	for _, n := range nodes {
		if n.url == owner {
			continue
		}
		before := n.srv.fleet.PeerStats().Hit
		resp, body := post(t, n.ts, "/v1/plan", tinyPlanBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("repeat on %s: status %d", n.url, resp.StatusCode)
		}
		if !bytes.Equal(body, bodies[0]) {
			t.Errorf("repeat on %s: body differs", n.url)
		}
		if resp.Header.Get("X-SMM-Cache") != "hit" {
			t.Errorf("repeat on %s: X-SMM-Cache = %q, want hit", n.url, resp.Header.Get("X-SMM-Cache"))
		}
		if after := n.srv.fleet.PeerStats().Hit; after != before {
			t.Errorf("repeat on %s crossed the network again", n.url)
		}
		break
	}
}

// TestFleetOwnerDownDegradesToLocal: killing a key's owner must not take
// plan availability with it — the non-owner computes locally.
func TestFleetOwnerDownDegradesToLocal(t *testing.T) {
	nodes, ring := newFleet(t, 2, 0)

	// Find a request whose key the second node owns.
	glb := 0
	for g := 16; g <= 128; g++ {
		if ring.Owner(planKeyFor(t, "TinyCNN", g)) == nodes[1].url {
			glb = g
			break
		}
	}
	if glb == 0 {
		t.Fatal("no probed request owned by node 1")
	}
	nodes[1].ts.Close()

	body := fmt.Sprintf(`{"model": "TinyCNN", "glb_kb": %d}`, glb)
	resp, respBody := post(t, nodes[0].ts, "/v1/plan", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d with owner down: %s", resp.StatusCode, respBody)
	}
	if nodes[0].planned.Load() != 1 {
		t.Fatalf("survivor ran the planner %d times, want 1", nodes[0].planned.Load())
	}
	ps := nodes[0].srv.fleet.PeerStats()
	if ps.Error != 1 || ps.Hit != 0 {
		t.Fatalf("peer stats = %+v, want exactly one fill error", ps)
	}
}

// TestFleetDegradedPlanFillsBadAndRecomputes: a degraded plan's document is
// not rehydratable, so a peer fill of one is counted "bad" and the asking
// node recomputes locally — same answer, one extra planner run, no wrong
// result served.
func TestFleetDegradedPlanFillsBadAndRecomputes(t *testing.T) {
	nodes, ring := newFleet(t, 2, 0)

	// Find a request that degrades AND is owned by the other node.
	found := ""
	for g := 1; g <= 12; g++ {
		net, err := scratchmem.BuiltinModel("AlexNet")
		if err != nil {
			t.Fatal(err)
		}
		p, err := scratchmem.PlanModel(net, scratchmem.PlanOptions{GLBKiloBytes: g})
		if err != nil || !p.Degraded {
			continue
		}
		key, err := scratchmem.PlanKey(net, scratchmem.PlanOptions{Config: scratchmem.DefaultConfig(g)})
		if err != nil {
			t.Fatal(err)
		}
		if ring.Owner("plan:"+key) == nodes[1].url {
			found = fmt.Sprintf(`{"model": "AlexNet", "glb_kb": %d}`, g)
			break
		}
	}
	if found == "" {
		t.Skip("no degraded request owned by the peer in the probed range")
	}

	resp, body := post(t, nodes[0].ts, "/v1/plan", found)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"degraded": true`) {
		t.Fatal("expected a degraded document")
	}
	ps := nodes[0].srv.fleet.PeerStats()
	if ps.Bad != 1 {
		t.Fatalf("peer stats = %+v, want Bad=1", ps)
	}
	// Both nodes ran the planner: the owner for the fill, the asker for
	// the local fallback.
	if nodes[0].planned.Load() != 1 || nodes[1].planned.Load() != 1 {
		t.Fatalf("planner runs = %d/%d, want 1/1", nodes[0].planned.Load(), nodes[1].planned.Load())
	}
}

// TestFleetPeerFaultInjection: the cluster.peer chaos site downs fills
// without downing planning.
func TestFleetPeerFaultInjection(t *testing.T) {
	nodes, ring := newFleet(t, 2, -1)
	faultinject.Enable(7, faultinject.Fault{Site: "cluster.peer", Kind: faultinject.KindError, P: 1})
	defer faultinject.Disable()

	glb := 0
	for g := 16; g <= 128; g++ {
		if ring.Owner(planKeyFor(t, "TinyCNN", g)) == nodes[1].url {
			glb = g
			break
		}
	}
	if glb == 0 {
		t.Fatal("no probed request owned by node 1")
	}
	resp, body := post(t, nodes[0].ts, "/v1/plan", fmt.Sprintf(`{"model": "TinyCNN", "glb_kb": %d}`, glb))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d under peer faults: %s", resp.StatusCode, body)
	}
	if ps := nodes[0].srv.fleet.PeerStats(); ps.Error != 1 {
		t.Fatalf("peer stats = %+v, want Error=1", ps)
	}
	if nodes[0].planned.Load() != 1 {
		t.Fatal("asker did not compute locally under injected peer faults")
	}
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
