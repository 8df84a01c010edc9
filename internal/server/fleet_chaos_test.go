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
	if tc := obs.TraceContextFrom(ctx); tc.Valid() {
		req.Header.Set(obs.TraceparentHeader, tc.String())
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

// startChaosNode boots one fleet member with the whole control plane
// wired: health tracker, invalidation fan-out and status transport. A nil
// listener re-binds the address in the node's URL — that is what
// "restart" means here.
func startChaosNode(t *testing.T, members []string, self string, l net.Listener, hopts cluster.HealthOptions, startHealthLoop bool) *chaosNode {
	t.Helper()
	if l == nil {
		var err error
		l, err = net.Listen("tcp", strings.TrimPrefix(self, "http://"))
		if err != nil {
			t.Fatalf("rebinding %s: %v", self, err)
		}
	}
	fleet, err := cluster.NewFleet(members, self)
	if err != nil {
		t.Fatal(err)
	}
	fleet.Health = cluster.NewHealth(fleet.Members, self, chaosProbe, hopts)
	fleet.Invalidate, fleet.Status = chaosInvalidate, chaosStatus
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
	if startHealthLoop {
		fleet.Health.Start()
	}
	n := &chaosNode{url: self, srv: srv, ts: ts, fleet: fleet, planned: counter}
	t.Cleanup(n.kill)
	return n
}

// newChaosFleet allocates n loopback listeners and boots a chaosNode on
// each, every node listing all n as its members.
func newChaosFleet(t *testing.T, n int, hopts cluster.HealthOptions, startHealthLoop bool) (map[string]*chaosNode, []string) {
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
	nodes := make(map[string]*chaosNode, n)
	for i, u := range urls {
		nodes[u] = startChaosNode(t, urls, u, listeners[i], hopts, startHealthLoop)
	}
	return nodes, urls
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

// TestChaosFleetMemberKillSurvivorsAnswer is the deterministic
// self-healing walkthrough: every member plans the key, one member is
// killed, and the survivors answer it with byte-identical 200s from their
// own caches (no new planner run) and plan new keys themselves. Then
// invalidate fleet-wide past the dead member, restart it, and verify the
// fleet heals.
func TestChaosFleetMemberKillSurvivorsAnswer(t *testing.T) {
	// Interval is effectively "never": the test drives probes by hand so
	// every liveness transition is deterministic.
	hopts := cluster.HealthOptions{Interval: time.Hour, DeadAfter: 2, Timeout: time.Second}
	nodes, urls := newChaosFleet(t, 3, hopts, false)
	victim, survivors := urls[0], urls[1:]

	// Each member plans the key once, for itself.
	var body0 []byte
	for _, u := range urls {
		resp, body := post(t, nodes[u].ts, "/v1/plan", tinyPlanBody)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-SMM-Cache") != "miss" {
			t.Fatalf("%s: status %d, X-SMM-Cache %q: %s", u, resp.StatusCode, resp.Header.Get("X-SMM-Cache"), body)
		}
		if body0 == nil {
			body0 = body
		} else if !bytes.Equal(body, body0) {
			t.Fatalf("%s planned a different document", u)
		}
		if n := nodes[u].planned.Load(); n != 1 {
			t.Fatalf("%s ran the planner %d times, want 1", u, n)
		}
	}

	// Kill one member. Two failed probe rounds on a survivor mark it dead;
	// /v1/cluster/status shows the retraction.
	nodes[victim].kill()
	for _, u := range survivors {
		nodes[u].fleet.Health.ProbeNow(context.Background())
		nodes[u].fleet.Health.ProbeNow(context.Background())
	}
	var cs ClusterStatus
	if _, b := get(t, nodes[survivors[0]].ts, "/v1/cluster/status"); json.Unmarshal(b, &cs) != nil {
		t.Fatalf("bad cluster status: %s", b)
	}
	victimDead := false
	for _, m := range cs.Members {
		if m.Member == victim && !m.Alive {
			victimDead = true
		}
	}
	if !victimDead {
		t.Fatalf("status does not report the killed member dead: %+v", cs.Members)
	}

	// The survivors answer the key from their own caches, and plan a new
	// key locally: the dead member costs them nothing.
	for _, u := range survivors {
		resp, body := post(t, nodes[u].ts, "/v1/plan", tinyPlanBody)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, body0) || resp.Header.Get("X-SMM-Cache") != "hit" {
			t.Fatalf("%s with a member dead: status %d, X-SMM-Cache %q, same document %t",
				u, resp.StatusCode, resp.Header.Get("X-SMM-Cache"), bytes.Equal(body, body0))
		}
		if resp, body := post(t, nodes[u].ts, "/v1/plan", `{"model": "TinyCNN", "glb_kb": 48}`); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: a new key with a member dead: status %d: %s", u, resp.StatusCode, body)
		}
		if n := nodes[u].planned.Load(); n != 2 {
			t.Fatalf("%s ran the planner %d times, want 2 (the first key and the new one)", u, n)
		}
	}

	// Fleet-wide invalidation from a survivor: its own copy and the other
	// survivor's both disappear; the dead member is skipped (it is not a
	// live member), not waited on.
	key := planKeyFor(t, "TinyCNN", 32)
	bare := strings.TrimPrefix(key, "plan:")
	req, err := http.NewRequest(http.MethodDelete, nodes[survivors[0]].url+"/v1/cache/"+bare, nil)
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
	if inv.Key != bare || inv.Removed != 1 {
		t.Fatalf("invalidate echoed key %q and removed %d, want %q and the one plan", inv.Key, inv.Removed, bare)
	}
	if len(inv.Fanout) != 1 || inv.Fanout[0].Member != survivors[1] || !inv.Fanout[0].OK {
		t.Fatalf("fan-out = %+v, want one delivery to the live survivor %s", inv.Fanout, survivors[1])
	}
	for _, u := range survivors {
		if nodes[u].srv.local.Contains(key) {
			t.Fatalf("%s's copy survived fleet-wide invalidation", u)
		}
	}

	// Restart the killed member on the same address. One successful probe
	// round heals the liveness view, and the restarted member plans for
	// itself.
	restarted := startChaosNode(t, urls, victim, nil, hopts, false)
	nodes[victim] = restarted
	nodes[survivors[0]].fleet.Health.ProbeNow(context.Background())
	if _, b := get(t, nodes[survivors[0]].ts, "/v1/cluster/status"); strings.Contains(string(b), `"alive": false`) ||
		strings.Contains(string(b), `"alive":false`) {
		t.Fatalf("status still reports a dead member after restart: %s", b)
	}
	resp, body := post(t, restarted.ts, "/v1/plan", tinyPlanBody)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, body0) {
		t.Fatalf("plan after restart: status %d, same document %t", resp.StatusCode, bytes.Equal(body, body0))
	}
	if restarted.planned.Load() != 1 {
		t.Fatalf("restarted member ran the planner %d times, want 1", restarted.planned.Load())
	}
}

// TestChaosFleetKillRestartMidFlood is the kill/restart chaos run: a
// three-node fleet under injected planner and probe faults takes a
// concurrent plan flood while one member is killed and restarted
// mid-stream. Invariants: every HTTP response is a classified status (200,
// or 503/504 shedding), every 200 body is byte-identical to the standalone
// reference, and the fleet heals completely once the faults stop.
func TestChaosFleetKillRestartMidFlood(t *testing.T) {
	hopts := cluster.HealthOptions{Interval: 20 * time.Millisecond, DeadAfter: 2, Timeout: 500 * time.Millisecond}
	nodes, urls := newChaosFleet(t, 3, hopts, true)

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
		faultinject.Fault{Site: "server.plan", Kind: faultinject.KindError, P: 0.3},
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
		restarted = startChaosNode(t, urls, victim, nil, hopts, true)
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
