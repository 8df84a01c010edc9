package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"scratchmem/internal/cluster"
	"scratchmem/internal/plancache"
	"scratchmem/internal/server"
)

// fakeOverview is a three-member fleet document with one dead member and an
// asymmetric health matrix: a sees c dead, b sees everyone alive.
func fakeOverview() server.OverviewResponse {
	status := func(self string, aliveC bool) *server.ClusterStatus {
		return &server.ClusterStatus{
			Self: self,
			Members: []cluster.MemberHealth{
				{Member: "http://a", Alive: true},
				{Member: "http://b", Alive: true},
				{Member: "http://c", Alive: aliveC},
			},
			Cache: plancache.Stats{Hits: 8, Misses: 2, Entries: 5},
		}
	}
	return server.OverviewResponse{
		Self: "http://a",
		Members: []server.OverviewMember{
			{Member: "http://a", Status: status("http://a", false)},
			{Member: "http://b", Status: status("http://b", true)},
			{Member: "http://c", Error: "member marked dead by health probes"},
		},
		Totals: server.OverviewTotals{Members: 3, Reachable: 2, CacheEntries: 10, CacheHits: 16, CacheMisses: 4},
	}
}

func overviewServer(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/cluster/overview", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(fakeOverview())
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestOnceTable: -once renders every member, the split liveness vote, the
// dead member's error stub, and the totals row — then exits cleanly.
func TestOnceTable(t *testing.T) {
	ts := overviewServer(t)
	var buf bytes.Buffer
	if err := run([]string{"-once", "-server", ts.URL}, &buf); err != nil {
		t.Fatalf("run -once: %v\n%s", err, buf.String())
	}
	got := buf.String()
	for _, want := range []string{
		"http://a", "http://b", "http://c",
		"3 members, 2 reachable",
		"DOWN: member marked dead by health probes",
		"2/2", // a and b both alive in both views
		"1/2", // c: split vote (a says dead, b says alive)
		"TOTAL",
		"80.0%", // totals hit ratio 16/20
	} {
		if !strings.Contains(got, want) {
			t.Errorf("table missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "\x1b[2J") {
		t.Error("-once must not emit the screen-clear escape")
	}
}

// TestOnceJSON: -once -json round-trips the raw document.
func TestOnceJSON(t *testing.T) {
	ts := overviewServer(t)
	var buf bytes.Buffer
	if err := run([]string{"-once", "-json", "-server", ts.URL}, &buf); err != nil {
		t.Fatalf("run -once -json: %v\n%s", err, buf.String())
	}
	var ov server.OverviewResponse
	if err := json.Unmarshal(buf.Bytes(), &ov); err != nil {
		t.Fatalf("-json output does not decode: %v\n%s", err, buf.String())
	}
	if len(ov.Members) != 3 || ov.Self != "http://a" {
		t.Errorf("decoded overview lost content: %+v", ov)
	}
}

// TestOnceUnreachable: a dead endpoint under -once is a loud error, not a
// silent empty table.
func TestOnceUnreachable(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-once", "-server", "http://127.0.0.1:1", "-timeout", "500ms"}, &buf); err == nil {
		t.Fatal("run -once against a dead endpoint succeeded")
	}
}

// TestRejectsBadEvery pins the flag validation.
func TestRejectsBadEvery(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-every", "0s"}, &buf); err == nil {
		t.Fatal("run accepted -every 0s")
	}
}
