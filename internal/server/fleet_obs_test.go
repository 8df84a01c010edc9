package server

import (
	"context"
	"encoding/json"
	"fmt"
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

// waitSpans polls until the tracer has finished at least n spans; the
// request span ends after the response body reaches the client, so tests
// must not read the span store the instant the POST returns.
func waitSpans(t *testing.T, tr *obs.Tracer, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for tr.Finished() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d spans finished, want >= %d", tr.Finished(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// spanNamed returns the first finished span with the given name, or nil.
func spanNamed(tr *obs.Tracer, name string) *obs.Span {
	for _, s := range tr.Spans() {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// TestFleetCrossNodeTrace is the PR's acceptance walk: one plan request to
// a non-owner whose fill crosses to the ring owner yields a SINGLE trace id
// in both members' span stores, with the owner's request span parented
// under the caller's peer_fill span — one distributed trace, not two
// per-process ones.
func TestFleetCrossNodeTrace(t *testing.T) {
	nodes, ring := newFleet(t, 3, 0)
	key := planKeyFor(t, "TinyCNN", 32)
	owner := ring.Owner(key)

	var callerN, ownerN *fleetNode
	for _, n := range nodes {
		if n.url == owner {
			ownerN = n
		} else if callerN == nil {
			callerN = n
		}
	}
	if callerN == nil || ownerN == nil {
		t.Fatal("ring did not split caller/owner across 3 nodes")
	}

	resp, body := post(t, callerN.ts, "/v1/plan", tinyPlanBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan via non-owner: status %d: %s", resp.StatusCode, body)
	}
	if callerN.planned.Load() != 0 || ownerN.planned.Load() != 1 {
		t.Fatalf("planner runs caller=%d owner=%d, want 0/1 (fill must cross to the owner)",
			callerN.planned.Load(), ownerN.planned.Load())
	}

	// Caller: the request root span and the peer_fill child share one trace.
	waitSpans(t, callerN.srv.tracer, 2)
	waitSpans(t, ownerN.srv.tracer, 1)
	fill := spanNamed(callerN.srv.tracer, "peer_fill")
	if fill == nil {
		t.Fatalf("caller has no peer_fill span; spans: %v", spanNames(callerN.srv.tracer))
	}
	traceID := fill.TraceID
	root := spanNamed(callerN.srv.tracer, "request")
	if root == nil || root.TraceID != traceID || root.ParentID != "" {
		t.Fatalf("caller request span %+v does not root trace %s", root, traceID)
	}

	// Owner: its /v1/peer/fill request span joined the caller's trace, and
	// its remote parent is exactly the caller's peer_fill span.
	var remote *obs.Span
	for _, s := range ownerN.srv.tracer.Spans() {
		if s.Name == "request" && s.TraceID == traceID {
			remote = s
		}
	}
	if remote == nil {
		t.Fatalf("owner has no request span in trace %s; spans: %v", traceID, spanNames(ownerN.srv.tracer))
	}
	if remote.ParentID != fill.SpanID {
		t.Fatalf("owner request span parent = %s, want the caller's peer_fill span %s", remote.ParentID, fill.SpanID)
	}
	if got := remote.Attr("route"); got != "/v1/peer/fill" {
		t.Errorf("remote span route = %v, want /v1/peer/fill", got)
	}

	// The rendered timelines on BOTH members carry the one trace id.
	for _, n := range []*fleetNode{callerN, ownerN} {
		if _, b := get(t, n.ts, "/v1/spans"); !strings.Contains(string(b), traceID) {
			t.Errorf("%s /v1/spans does not mention trace %s", n.url, traceID)
		}
	}
}

func spanNames(tr *obs.Tracer) []string {
	var names []string
	for _, s := range tr.Spans() {
		names = append(names, s.Name)
	}
	return names
}

// obsNode is a fleet member with its own access-log buffer, for asserting
// what trace ids land in the logs of servers receiving peer traffic.
type obsNode struct {
	*chaosNode
	logBuf *syncBuffer
}

// newObsFleet boots n members with the full control plane (health,
// replication, status transport) AND a JSON access log per member.
func newObsFleet(t *testing.T, n int) (map[string]*obsNode, []string, *cluster.Ring) {
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
	hopts := cluster.HealthOptions{Interval: time.Hour, DeadAfter: 2, Timeout: time.Second}
	nodes := make(map[string]*obsNode, n)
	for i, self := range urls {
		logBuf := &syncBuffer{}
		logger, err := obs.NewLogger(logBuf, "info", "json")
		if err != nil {
			t.Fatal(err)
		}
		health := cluster.NewHealth(ring, self, chaosProbe, hopts)
		repl := cluster.NewReplicator(ring, self, chaosPush, health, cluster.ReplicatorOptions{})
		fleet := &cluster.Fleet{Ring: ring, Self: self, Health: health, Repl: repl,
			Fill: testFill, Lookup: chaosLookup, Invalidate: chaosInvalidate, Status: chaosStatus}
		srv := New(Config{
			Timeout: 5 * time.Second,
			Logger:  logger,
			Fleet:   fleet,
		})
		counter := &atomic.Int64{}
		inner := srv.planFn
		srv.planFn = func(ctx context.Context, net *scratchmem.Network, o scratchmem.PlanOptions) (*scratchmem.Plan, error) {
			counter.Add(1)
			return inner(ctx, net, o)
		}
		ts := &httptest.Server{Listener: listeners[i], Config: &http.Server{Handler: srv.Handler()}}
		ts.Start()
		repl.Start()
		cn := &chaosNode{url: self, srv: srv, ts: ts, fleet: fleet, planned: counter}
		t.Cleanup(cn.kill)
		nodes[self] = &obsNode{chaosNode: cn, logBuf: logBuf}
	}
	return nodes, urls, ring
}

// traceOf extracts the trace_id of the first access-log record matching
// route, waiting for the asynchronous log write.
func traceOf(t *testing.T, n *obsNode, route string) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, rec := range logRecords(t, n.logBuf) {
			if rec["msg"] == "request" && rec["route"] == route {
				id, _ := rec["trace_id"].(string)
				return id
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never logged a %s request:\n%s", n.url, route, n.logBuf.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFleetPeerTrafficLogsInboundTraceID pins the access-log half of trace
// propagation: the owner's /v1/peer/fill record and the successor's
// /v1/peer/replicate record both carry the ORIGINATING request's trace id,
// not fresh per-process ones.
func TestFleetPeerTrafficLogsInboundTraceID(t *testing.T) {
	nodes, urls, ring := newObsFleet(t, 3)
	key := planKeyFor(t, "TinyCNN", 32)
	owner := ring.Owner(key)
	succ, ok := ring.Successor(key)
	if !ok {
		t.Fatal("no successor on a 3-member ring")
	}
	caller := ""
	for _, u := range urls {
		if u != owner && u != succ {
			caller = u
		}
	}
	if caller == "" {
		t.Skip("TinyCNN key maps owner+successor onto fewer than 2 distinct members")
	}

	resp, body := post(t, nodes[caller].ts, "/v1/plan", tinyPlanBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan: status %d: %s", resp.StatusCode, body)
	}
	flushRepl(t, nodes[owner].chaosNode)

	callerTrace := traceOf(t, nodes[caller], "/v1/plan")
	if callerTrace == "" {
		t.Fatal("caller access log has no trace_id")
	}
	if got := traceOf(t, nodes[owner], "/v1/peer/fill"); got != callerTrace {
		t.Errorf("owner peer-fill log trace_id = %q, want the originating %q", got, callerTrace)
	}
	if got := traceOf(t, nodes[succ], "/v1/peer/replicate"); got != callerTrace {
		t.Errorf("successor replicate log trace_id = %q, want the originating %q", got, callerTrace)
	}
}

// decodeOverview GETs /v1/cluster/overview and requires HTTP 200 — the
// endpoint's contract is that degradation lives in the rows, never the
// status code.
func decodeOverview(t *testing.T, ts *httptest.Server) OverviewResponse {
	t.Helper()
	resp, body := get(t, ts, "/v1/cluster/overview")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("overview: status %d: %s", resp.StatusCode, body)
	}
	var ov OverviewResponse
	if err := json.Unmarshal(body, &ov); err != nil {
		t.Fatalf("overview does not decode: %v: %s", err, body)
	}
	return ov
}

// TestFleetOverviewFromEveryMember: each member's overview lists all three
// members with their own health views and cache counters, ring shares sum
// to one, and the totals reflect the fleet-wide cache state.
func TestFleetOverviewFromEveryMember(t *testing.T) {
	hopts := cluster.HealthOptions{Interval: time.Hour, DeadAfter: 2, Timeout: time.Second}
	nodes, urls, ring := newChaosFleet(t, 3, hopts, false)

	key := planKeyFor(t, "TinyCNN", 32)
	owner := ring.Owner(key)
	if resp, body := post(t, nodes[owner].ts, "/v1/plan", tinyPlanBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed plan: status %d: %s", resp.StatusCode, body)
	}
	for _, u := range urls {
		nodes[u].fleet.Health.ProbeNow(context.Background())
	}

	for _, u := range urls {
		ov := decodeOverview(t, nodes[u].ts)
		if ov.Self != u {
			t.Errorf("overview from %s claims self=%s", u, ov.Self)
		}
		if len(ov.Members) != 3 || ov.Totals.Members != 3 || ov.Totals.Reachable != 3 {
			t.Fatalf("overview from %s: %d rows, totals %+v; want 3 rows all reachable", u, len(ov.Members), ov.Totals)
		}
		shareSum := 0.0
		for _, row := range ov.Members {
			shareSum += row.RingShare
			if row.Error != "" || row.Status == nil {
				t.Fatalf("overview from %s: member %s degraded in a healthy fleet: %q", u, row.Member, row.Error)
				continue
			}
			if row.Status.Self != row.Member {
				t.Errorf("member %s's status claims self=%s", row.Member, row.Status.Self)
			}
			// Each member's own health view covers the whole fleet, alive.
			seen := map[string]bool{}
			for _, mh := range row.Status.Members {
				if mh.Alive {
					seen[mh.Member] = true
				}
			}
			for _, m := range urls {
				if !seen[m] {
					t.Errorf("member %s's health view misses %s alive: %+v", row.Member, m, row.Status.Members)
				}
			}
		}
		if shareSum < 0.999 || shareSum > 1.001 {
			t.Errorf("ring shares sum to %f, want ~1", shareSum)
		}
		// The seeded plan is one miss-then-entry somewhere in the fleet.
		if ov.Totals.CacheEntries < 1 || ov.Totals.CacheMisses < 1 {
			t.Errorf("totals %+v do not reflect the seeded plan", ov.Totals)
		}
	}
}

// TestFleetOverviewDeadMember: killing one member degrades exactly its row
// to the stable dead-member stub — the response stays 200, the survivors'
// rows stay full, and /v1/cluster/status reports the retraction.
func TestFleetOverviewDeadMember(t *testing.T) {
	hopts := cluster.HealthOptions{Interval: time.Hour, DeadAfter: 2, Timeout: time.Second}
	nodes, urls, _ := newChaosFleet(t, 3, hopts, false)

	victim, querier := urls[0], urls[1]
	nodes[victim].kill()
	nodes[querier].fleet.Health.ProbeNow(context.Background())
	nodes[querier].fleet.Health.ProbeNow(context.Background())

	var cs ClusterStatus
	if _, b := get(t, nodes[querier].ts, "/v1/cluster/status"); json.Unmarshal(b, &cs) != nil {
		t.Fatalf("bad cluster status: %s", b)
	}
	victimDead := false
	for _, mh := range cs.Members {
		if mh.Member == victim && !mh.Alive {
			victimDead = true
		}
	}
	if !victimDead {
		t.Fatalf("status does not report %s dead: %+v", victim, cs.Members)
	}

	ov := decodeOverview(t, nodes[querier].ts)
	if ov.Totals.Members != 3 || ov.Totals.Reachable != 2 {
		t.Fatalf("totals %+v, want 3 members 2 reachable", ov.Totals)
	}
	for _, row := range ov.Members {
		if row.Member == victim {
			if row.Status != nil || row.Error != errMemberDead.Error() {
				t.Errorf("victim row = %+v, want the dead-member stub", row)
			}
		} else if row.Status == nil {
			t.Errorf("survivor %s degraded: %q", row.Member, row.Error)
		}
	}
}

// TestFleetOverviewUnderFaults: injected cluster.overview faults degrade
// the remote rows to error stubs while the self row (no round-trip) stays
// full — still HTTP 200. With cluster.peer faults a plan through a
// non-owner still answers 200 via the local-compute fallback.
func TestFleetOverviewUnderFaults(t *testing.T) {
	hopts := cluster.HealthOptions{Interval: time.Hour, DeadAfter: 2, Timeout: time.Second}
	nodes, urls, ring := newChaosFleet(t, 3, hopts, false)
	querier := urls[0]

	faultinject.Enable(7, faultinject.Fault{Site: "cluster.overview", Kind: faultinject.KindError, P: 1})
	ov := decodeOverview(t, nodes[querier].ts)
	faultinject.Disable()
	if ov.Totals.Reachable != 1 {
		t.Fatalf("totals %+v, want exactly the self row reachable under full overview faults", ov.Totals)
	}
	for _, row := range ov.Members {
		if row.Member == querier {
			if row.Status == nil {
				t.Errorf("self row degraded under remote-fetch faults: %q", row.Error)
			}
		} else if row.Error == "" || row.Status != nil {
			t.Errorf("remote row %s not degraded under injected faults: %+v", row.Member, row)
		}
	}

	key := planKeyFor(t, "TinyCNN", 32)
	owner := ring.Owner(key)
	caller := ""
	for _, u := range urls {
		if u != owner {
			caller = u
		}
	}
	faultinject.Enable(7, faultinject.Fault{Site: "cluster.peer", Kind: faultinject.KindError, P: 1})
	resp, body := post(t, nodes[caller].ts, "/v1/plan", tinyPlanBody)
	faultinject.Disable()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan under cluster.peer faults: status %d: %s (must fall back to local compute)", resp.StatusCode, body)
	}
	if nodes[caller].planned.Load() != 1 {
		t.Errorf("caller planned %d times, want 1 (local fallback)", nodes[caller].planned.Load())
	}
}

// TestFleetMetricsSelfHealth pins the satellite fix: a member's own row in
// smm_member_health is present and 1 — the exporter must not omit self just
// because the probe loop never probes it.
func TestFleetMetricsSelfHealth(t *testing.T) {
	hopts := cluster.HealthOptions{Interval: time.Hour, DeadAfter: 2, Timeout: time.Second}
	nodes, urls, _ := newChaosFleet(t, 3, hopts, false)
	self := urls[0]
	_, body := get(t, nodes[self].ts, "/metrics")
	want := fmt.Sprintf("smm_member_health{member=%q} 1", self)
	if !strings.Contains(string(body), want) {
		t.Errorf("/metrics missing %q:\n%s", want, body)
	}
}
