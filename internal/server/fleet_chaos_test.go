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
	"sync"
	"sync/atomic"
	"testing"
	"time"

	scratchmem "scratchmem"
	"scratchmem/internal/cluster"
	"scratchmem/internal/faultinject"
	"scratchmem/internal/obs"
)

// The chaos transports are the plain-HTTP twins of the client package's
// adapters: no retries, so the suite observes every failure the fleet
// machinery has to absorb.

func chaosProbe(ctx context.Context, baseURL string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

func chaosLookup(ctx context.Context, baseURL string, request any) ([]byte, error) {
	b, err := json.Marshal(request)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/peer/fill?cached=only", bytes.NewReader(b))
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
	switch resp.StatusCode {
	case http.StatusOK:
		return body, nil
	case http.StatusNotFound:
		return nil, cluster.ErrNoReplica
	default:
		return nil, fmt.Errorf("cached-only fill: %s: %s", resp.Status, body)
	}
}

func chaosPush(ctx context.Context, baseURL string, payload []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/peer/replicate", bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if tc := obs.TraceContextFrom(ctx); tc.Valid() {
		req.Header.Set(obs.TraceparentHeader, tc.String())
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("replicate: %s: %s", resp.Status, body)
	}
	return nil
}

// chaosStatus is the overview fan-out transport: a plain GET of the
// member's own /v1/cluster/status document.
func chaosStatus(ctx context.Context, baseURL string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/cluster/status", nil)
	if err != nil {
		return nil, err
	}
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
		return nil, fmt.Errorf("cluster status: %s: %s", resp.Status, body)
	}
	return body, nil
}

func chaosInvalidate(ctx context.Context, baseURL, key string) error {
	method, path := http.MethodDelete, "/v1/cache/"+key+"?fanout=no"
	if key == "" {
		method, path = http.MethodPost, "/v1/cache/purge?fanout=no"
	}
	req, err := http.NewRequestWithContext(ctx, method, baseURL+path, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("invalidate: %s", resp.Status)
	}
	return nil
}

// chaosNode is one killable, restartable member of an in-process fleet.
type chaosNode struct {
	url     string
	srv     *Server
	ts      *httptest.Server
	fleet   *cluster.Fleet
	planned *atomic.Int64
}

// kill stops the node the way a process death looks from outside: the
// listener drops and the control loops go with it. Safe to call twice.
func (n *chaosNode) kill() {
	n.fleet.Stop()
	n.ts.Close()
}

// startChaosNode boots one fleet member with the full self-healing control
// plane wired: health tracker, successor replicator, invalidation fan-out,
// cached-only successor lookup. A nil listener re-binds the address in the
// node's URL — that is what "restart" means here.
func startChaosNode(t *testing.T, ring *cluster.Ring, self string, l net.Listener, hopts cluster.HealthOptions, startHealthLoop bool) *chaosNode {
	t.Helper()
	if l == nil {
		var err error
		l, err = net.Listen("tcp", strings.TrimPrefix(self, "http://"))
		if err != nil {
			t.Fatalf("rebinding %s: %v", self, err)
		}
	}
	health := cluster.NewHealth(ring, self, chaosProbe, hopts)
	repl := cluster.NewReplicator(ring, self, chaosPush, health, cluster.ReplicatorOptions{})
	fleet := &cluster.Fleet{Ring: ring, Self: self, Health: health, Repl: repl,
		Fill: testFill, Lookup: chaosLookup, Invalidate: chaosInvalidate, Status: chaosStatus}
	srv := New(Config{
		Timeout: 5 * time.Second,
		Fleet:   fleet,
	})
	counter := &atomic.Int64{}
	inner := srv.planFn
	srv.planFn = func(ctx context.Context, net *scratchmem.Network, o scratchmem.PlanOptions) (*scratchmem.Plan, error) {
		counter.Add(1)
		return inner(ctx, net, o)
	}
	ts := &httptest.Server{Listener: l, Config: &http.Server{Handler: srv.Handler()}}
	ts.Start()
	repl.Start()
	if startHealthLoop {
		health.Start()
	}
	n := &chaosNode{url: self, srv: srv, ts: ts, fleet: fleet, planned: counter}
	t.Cleanup(n.kill)
	return n
}

// newChaosFleet allocates n loopback listeners, builds the static ring over
// them, and boots a chaosNode on each.
func newChaosFleet(t *testing.T, n int, hopts cluster.HealthOptions, startHealthLoop bool) (map[string]*chaosNode, []string, *cluster.Ring) {
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
	nodes := make(map[string]*chaosNode, n)
	for i, u := range urls {
		nodes[u] = startChaosNode(t, ring, u, listeners[i], hopts, startHealthLoop)
	}
	return nodes, urls, ring
}

// rawPost hits a node by URL with a plain one-shot request (no httptest
// client, no retries), returning a transport error instead of failing the
// test — the flood needs to tolerate requests racing a node kill.
func rawPost(url, path, body string) (*http.Response, []byte, error) {
	resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	return resp, b, nil
}

func flushRepl(t *testing.T, n *chaosNode) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := n.fleet.Repl.Flush(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestChaosFleetOwnerKillRecoversFromSuccessor is the deterministic
// self-healing walkthrough: plan on the owner, watch the replica land on the
// ring successor, kill the owner, and verify a third node serves the plan
// from the successor's replica with ZERO additional planner runs. Then
// invalidate fleet-wide, restart the owner, and verify the fleet heals.
func TestChaosFleetOwnerKillRecoversFromSuccessor(t *testing.T) {
	// Interval is effectively "never": the test drives probes by hand so
	// every liveness transition is deterministic.
	hopts := cluster.HealthOptions{Interval: time.Hour, DeadAfter: 2, Timeout: time.Second}
	nodes, urls, ring := newChaosFleet(t, 3, hopts, false)

	key := planKeyFor(t, "TinyCNN", 32)
	owner := ring.Owner(key)
	succ, ok := ring.Successor(key)
	if !ok {
		t.Fatal("no successor on a 3-member ring")
	}
	third := ""
	for _, u := range urls {
		if u != owner && u != succ {
			third = u
		}
	}

	// Plan on the owner: one planner run, and the replica is pushed to the
	// successor without the successor ever seeing a plan request.
	resp, body0 := post(t, nodes[owner].ts, "/v1/plan", tinyPlanBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("owner plan: status %d: %s", resp.StatusCode, body0)
	}
	if nodes[owner].planned.Load() != 1 {
		t.Fatalf("owner ran the planner %d times, want 1", nodes[owner].planned.Load())
	}
	flushRepl(t, nodes[owner])
	if st := nodes[owner].fleet.Repl.Stats(); st.Sent != 1 {
		t.Fatalf("replication stats = %+v, want Sent=1", st)
	}
	if !nodes[succ].srv.local.Contains(key) {
		t.Fatal("successor holds no replica after the replication queue drained")
	}

	// Kill the owner. Two failed probe rounds on the surviving third node
	// mark it dead; /v1/cluster/status shows the retraction.
	nodes[owner].kill()
	nodes[third].fleet.Health.ProbeNow(context.Background())
	nodes[third].fleet.Health.ProbeNow(context.Background())
	var cs ClusterStatus
	if _, b := get(t, nodes[third].ts, "/v1/cluster/status"); json.Unmarshal(b, &cs) != nil {
		t.Fatalf("bad cluster status: %s", b)
	}
	ownerDead := false
	for _, m := range cs.Members {
		if m.Member == owner && !m.Alive {
			ownerDead = true
		}
	}
	if !ownerDead {
		t.Fatalf("status does not report the killed owner dead: %+v", cs.Members)
	}

	// The third node now serves the plan from the successor's replica:
	// byte-identical document, no fill attempt against the corpse, no
	// planner run anywhere in the surviving fleet.
	resp, body := post(t, nodes[third].ts, "/v1/plan", tinyPlanBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan with owner dead: status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, body0) {
		t.Fatal("successor replica served a different document than the owner")
	}
	if resp.Header.Get("X-SMM-Cache") != "hit" {
		t.Errorf("X-SMM-Cache = %q, want hit (served from replica)", resp.Header.Get("X-SMM-Cache"))
	}
	if n := nodes[third].planned.Load() + nodes[succ].planned.Load(); n != 0 {
		t.Fatalf("survivors ran the planner %d times; the replica made that unnecessary", n)
	}
	ps := nodes[third].fleet.PeerStats()
	if ps.Dead == 0 || ps.SuccHit != 1 {
		t.Fatalf("peer stats = %+v, want Dead>=1 and SuccHit=1", ps)
	}

	// Fleet-wide invalidation from the third node: its own copy and the
	// successor's replica both disappear; the dead owner is skipped (it is
	// not a live member), not waited on.
	bare := strings.TrimPrefix(key, "plan:")
	req, err := http.NewRequest(http.MethodDelete, nodes[third].url+"/v1/cache/"+bare, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	db, _ := io.ReadAll(dresp.Body)
	dresp.Body.Close()
	var inv InvalidateResponse
	if err := json.Unmarshal(db, &inv); err != nil {
		t.Fatalf("bad invalidate response: %s", db)
	}
	if inv.Key != bare {
		t.Fatalf("invalidate echoed key %q, want %q", inv.Key, bare)
	}
	// The third node is not the key's owner, but the successor's replica it
	// recovered is stored in its plan cache like any other plan, so Removed
	// counts it.
	if inv.Removed != 1 {
		t.Fatalf("invalidate removed %d entries on the third node, want its one plan", inv.Removed)
	}
	for _, fr := range inv.Fanout {
		if fr.Member == owner {
			t.Fatalf("fan-out addressed the dead owner: %+v", fr)
		}
		if fr.Member == succ && !fr.OK {
			t.Fatalf("fan-out to the live successor failed: %+v", fr)
		}
	}
	if nodes[succ].srv.local.Contains(key) {
		t.Fatal("successor replica survived fleet-wide invalidation")
	}
	if nodes[third].srv.local.Contains(key) {
		t.Fatal("third node's copy survived its own invalidation")
	}

	// Restart the owner on the same address. One successful probe round
	// heals the liveness view, and planning flows through the owner again.
	restarted := startChaosNode(t, ring, owner, nil, hopts, false)
	nodes[owner] = restarted
	nodes[third].fleet.Health.ProbeNow(context.Background())
	if _, b := get(t, nodes[third].ts, "/v1/cluster/status"); strings.Contains(string(b), `"alive": false`) ||
		strings.Contains(string(b), `"alive":false`) {
		t.Fatalf("status still reports a dead member after restart: %s", b)
	}
	resp, body = post(t, nodes[third].ts, "/v1/plan", tinyPlanBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan after restart: status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, body0) {
		t.Fatal("post-restart document differs")
	}
	if restarted.planned.Load() != 1 {
		t.Fatalf("restarted owner ran the planner %d times, want 1 (fresh fill)", restarted.planned.Load())
	}
}

// TestChaosFleetKillRestartMidFlood is the kill/restart chaos run: a
// three-node fleet under injected peer, replication, and probe faults takes
// a concurrent plan flood while one member is killed and restarted
// mid-stream. Invariants: every HTTP response is a classified status (200,
// or 503/504 shedding), every 200 body is byte-identical to the standalone
// reference, and the fleet heals completely once the faults stop.
func TestChaosFleetKillRestartMidFlood(t *testing.T) {
	hopts := cluster.HealthOptions{Interval: 20 * time.Millisecond, DeadAfter: 2, Timeout: 500 * time.Millisecond}
	nodes, urls, ring := newChaosFleet(t, 3, hopts, true)
	_ = ring

	// Reference documents from a standalone server: canonical encoding is
	// deterministic, so every 200 anywhere in the fleet must match these.
	standalone := httptest.NewServer(New(Config{}).Handler())
	defer standalone.Close()
	requests := []string{
		tinyPlanBody,
		`{"model": "TinyCNN", "glb_kb": 48}`,
		`{"model": "TinyCNN", "glb_kb": 64}`,
		`{"model": "AlexNet", "glb_kb": 96}`,
	}
	ref := make(map[string][]byte, len(requests))
	for _, rb := range requests {
		resp, body := post(t, standalone, "/v1/plan", rb)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reference plan failed: %d %s", resp.StatusCode, body)
		}
		ref[rb] = body
	}

	faultinject.Enable(11,
		faultinject.Fault{Site: "cluster.peer", Kind: faultinject.KindError, P: 0.3},
		faultinject.Fault{Site: "cluster.replicate", Kind: faultinject.KindError, P: 0.3},
		faultinject.Fault{Site: "cluster.health", Kind: faultinject.KindError, P: 0.2},
	)
	defer faultinject.Disable()

	victim := urls[1]
	var wg sync.WaitGroup
	var restarted *chaosNode

	// The killer: take the victim down mid-flood, leave it dead for a few
	// probe generations, bring it back on the same address.
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(50 * time.Millisecond)
		nodes[victim].kill()
		time.Sleep(150 * time.Millisecond)
		restarted = startChaosNode(t, ring, victim, nil, hopts, true)
	}()

	// The flood: every worker rotates across all three members, including
	// the one being killed. Transport errors are legitimate only there.
	const workers, perWorker = 4, 25
	problems := make(chan string, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				url := urls[(w+i)%len(urls)]
				rb := requests[(w*perWorker+i)%len(requests)]
				resp, body, err := rawPost(url, "/v1/plan", rb)
				if err != nil {
					if url != victim {
						problems <- fmt.Sprintf("transport error against live node %s: %v", url, err)
					}
					continue
				}
				switch resp.StatusCode {
				case http.StatusOK:
					if !bytes.Equal(body, ref[rb]) {
						problems <- fmt.Sprintf("node %s served a non-canonical document for %s", url, rb)
					}
				case http.StatusServiceUnavailable, http.StatusGatewayTimeout:
					// Classified shedding; 503 must carry its retry hint.
					if resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") == "" {
						problems <- fmt.Sprintf("node %s: 503 without Retry-After", url)
					}
				default:
					problems <- fmt.Sprintf("node %s: unclassified status %d: %s", url, resp.StatusCode, body)
				}
			}
		}(w)
	}
	wg.Wait()
	close(problems)
	for p := range problems {
		t.Error(p)
	}
	if restarted == nil {
		t.Fatal("the victim never restarted")
	}
	nodes[victim] = restarted

	// Disarm the chaos and require a full heal: the restarted member
	// answers with the canonical document, and every member's liveness view
	// converges back to all-alive.
	faultinject.Disable()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, body, err := rawPost(victim, "/v1/plan", tinyPlanBody)
		healthy := err == nil && resp.StatusCode == http.StatusOK && bytes.Equal(body, ref[tinyPlanBody])
		if healthy {
			allAlive := true
			for _, u := range urls {
				r2, b2, err2 := rawPost(u, "/v1/plan", tinyPlanBody) // warm every member
				_ = r2
				_ = b2
				if err2 != nil {
					allAlive = false
					break
				}
				_, sb, serr := rawGet(u, "/v1/cluster/status")
				if serr != nil || strings.Contains(string(sb), `"alive": false`) || strings.Contains(string(sb), `"alive":false`) {
					allAlive = false
					break
				}
			}
			if allAlive {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("fleet did not heal after the chaos stopped")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// rawGet is rawPost's GET twin.
func rawGet(url, path string) (*http.Response, []byte, error) {
	resp, err := http.Get(url + path)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	return resp, b, nil
}
