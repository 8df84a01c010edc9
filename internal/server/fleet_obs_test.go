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

// TestFleetCrossNodeTrace: one overview request yields a SINGLE trace id
// in every member's span store, with each peer's /v1/cluster/status
// request span parented under the caller's overview_fetch span for that
// peer — one distributed trace, not per-process ones.
func TestFleetCrossNodeTrace(t *testing.T) {
	hopts := cluster.HealthOptions{Interval: time.Hour, DeadAfter: 2, Timeout: time.Second}
	nodes, urls := newChaosFleet(t, 3, hopts, false)
	caller := nodes[urls[0]]
	ov := decodeOverview(t, caller.ts)
	if ov.Totals.Reachable != 3 {
		t.Fatalf("overview totals %+v, want 3 reachable", ov.Totals)
	}

	// Caller: the request root span and one overview_fetch child per peer
	// share one trace.
	waitSpans(t, caller.srv.tracer, 3)
	root := spanNamed(caller.srv.tracer, "request")
	if root == nil || root.ParentID != "" {
		t.Fatalf("caller has no root request span; spans: %v", spanNames(caller.srv.tracer))
	}
	traceID := root.TraceID
	fetches := map[string]*obs.Span{}
	for _, s := range caller.srv.tracer.Spans() {
		if s.Name == "overview_fetch" && s.TraceID == traceID && s.ParentID == root.SpanID {
			member, _ := s.Attr("member").(string)
			fetches[member] = s
		}
	}

	// Each peer: its /v1/cluster/status request span joined the caller's
	// trace, and its remote parent is the caller's fetch of that peer.
	for _, u := range urls[1:] {
		peer := nodes[u]
		waitSpans(t, peer.srv.tracer, 1)
		fetch := fetches[u]
		if fetch == nil {
			t.Fatalf("caller has no overview_fetch span for %s; spans: %v", u, spanNames(caller.srv.tracer))
		}
		var remote *obs.Span
		for _, s := range peer.srv.tracer.Spans() {
			if s.Name == "request" && s.TraceID == traceID {
				remote = s
			}
		}
		if remote == nil {
			t.Fatalf("%s has no request span in trace %s; spans: %v", u, traceID, spanNames(peer.srv.tracer))
		}
		if remote.ParentID != fetch.SpanID {
			t.Errorf("%s request span parent = %s, want the caller's overview_fetch span %s", u, remote.ParentID, fetch.SpanID)
		}
		if got := remote.Attr("route"); got != "/v1/cluster/status" {
			t.Errorf("%s remote span route = %v, want /v1/cluster/status", u, got)
		}
	}

	// The rendered timelines on every member carry the one trace id.
	for _, u := range urls {
		if _, b := get(t, nodes[u].ts, "/v1/spans"); !strings.Contains(string(b), traceID) {
			t.Errorf("%s /v1/spans does not mention trace %s", u, traceID)
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

// newObsFleet boots n members with the whole control plane (health,
// invalidation and status transports) AND a JSON access log per member.
func newObsFleet(t *testing.T, n int) (map[string]*obsNode, []string) {
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
	hopts := cluster.HealthOptions{Interval: time.Hour, DeadAfter: 2, Timeout: time.Second}
	nodes := make(map[string]*obsNode, n)
	for i, self := range urls {
		logBuf := &syncBuffer{}
		logger, err := obs.NewLogger(logBuf, "info", "json")
		if err != nil {
			t.Fatal(err)
		}
		fleet, err := cluster.NewFleet(urls, self)
		if err != nil {
			t.Fatal(err)
		}
		fleet.Health = cluster.NewHealth(fleet.Members, self, chaosProbe, hopts)
		fleet.Invalidate, fleet.Status = chaosInvalidate, chaosStatus
		srv := New(Config{
			Timeout: 5 * time.Second,
			Logger:  logger,
			Fleet:   fleet,
		})
		ts := &httptest.Server{Listener: listeners[i], Config: &http.Server{Handler: srv.Handler()}}
		ts.Start()
		cn := &chaosNode{url: self, srv: srv, ts: ts, fleet: fleet, planned: &atomic.Int64{}}
		t.Cleanup(cn.kill)
		nodes[self] = &obsNode{chaosNode: cn, logBuf: logBuf}
	}
	return nodes, urls
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
// propagation: the peers' /v1/cluster/status records of an overview
// fan-out and their /v1/cache/invalidate records of an invalidation
// fan-out carry the ORIGINATING request's trace id, not fresh per-process
// ones.
func TestFleetPeerTrafficLogsInboundTraceID(t *testing.T) {
	nodes, urls := newObsFleet(t, 3)
	caller, peers := nodes[urls[0]], urls[1:]

	decodeOverview(t, caller.ts)
	req, err := http.NewRequest(http.MethodDelete, caller.url+"/v1/cache/"+strings.TrimPrefix(planKeyFor(t, "TinyCNN", 32), "plan:"), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("invalidate: status %d", resp.StatusCode)
	}

	for _, fanout := range []struct{ from, to string }{
		{"/v1/cluster/overview", "/v1/cluster/status"},
		{"/v1/cache/invalidate", "/v1/cache/invalidate"},
	} {
		callerTrace := traceOf(t, caller, fanout.from)
		if callerTrace == "" {
			t.Fatalf("caller's %s access log has no trace_id", fanout.from)
		}
		for _, u := range peers {
			if got := traceOf(t, nodes[u], fanout.to); got != callerTrace {
				t.Errorf("%s %s log trace_id = %q, want the originating %q", u, fanout.to, got, callerTrace)
			}
		}
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
// members with their own health views and cache counters, and the totals
// reflect the fleet-wide cache state.
func TestFleetOverviewFromEveryMember(t *testing.T) {
	hopts := cluster.HealthOptions{Interval: time.Hour, DeadAfter: 2, Timeout: time.Second}
	nodes, urls := newChaosFleet(t, 3, hopts, false)

	if resp, body := post(t, nodes[urls[0]].ts, "/v1/plan", tinyPlanBody); resp.StatusCode != http.StatusOK {
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
		for _, row := range ov.Members {
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
	nodes, urls := newChaosFleet(t, 3, hopts, false)

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
// full — still HTTP 200.
func TestFleetOverviewUnderFaults(t *testing.T) {
	hopts := cluster.HealthOptions{Interval: time.Hour, DeadAfter: 2, Timeout: time.Second}
	nodes, urls := newChaosFleet(t, 3, hopts, false)
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
}

// TestFleetMetricsSelfHealth pins the satellite fix: a member's own row in
// smm_member_health is present and 1 — the exporter must not omit self just
// because the probe loop never probes it.
func TestFleetMetricsSelfHealth(t *testing.T) {
	hopts := cluster.HealthOptions{Interval: time.Hour, DeadAfter: 2, Timeout: time.Second}
	nodes, urls := newChaosFleet(t, 3, hopts, false)
	self := urls[0]
	_, body := get(t, nodes[self].ts, "/metrics")
	want := fmt.Sprintf("smm_member_health{member=%q} 1", self)
	if !strings.Contains(string(body), want) {
		t.Errorf("/metrics missing %q:\n%s", want, body)
	}
}
