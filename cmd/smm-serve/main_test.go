package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"scratchmem/internal/faultinject"
)

// syncBuffer is a goroutine-safe writer so the test can poll run's output
// while the server goroutine writes to it.
type syncBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

// The startup record is a slog line like `... msg=listening addr=127.0.0.1:41231 ...`.
var listenRe = regexp.MustCompile(`msg=listening addr=([^\s]+)`)

// TestServeLifecycle boots the real binary path on an ephemeral port,
// exercises a plan round trip and the cache-hit counter, then shuts down
// via context cancellation (the signal path).
func TestServeLifecycle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-timeout", "30s"}, out)
	}()

	var base string
	deadline := time.Now().Add(5 * time.Second)
	for base == "" {
		if m := listenRe.FindStringSubmatch(out.String()); m != nil {
			base = "http://" + m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never reported its address; output:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}

	body := `{"model": "TinyCNN", "glb_kb": 32}`
	for i, want := range []string{"miss", "hit"} {
		resp, err := http.Post(base+"/v1/plan", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("plan %d: status %d: %s", i, resp.StatusCode, b)
		}
		if h := resp.Header.Get("X-SMM-Cache"); h != want {
			t.Errorf("plan %d: X-SMM-Cache = %q, want %q", i, h, want)
		}
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(mb), "smm_cache_hits_total 1") {
		t.Errorf("metrics missing cache hit:\n%s", mb)
	}

	cancel() // the signal path
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down")
	}
	if s := out.String(); !strings.Contains(s, "draining") || !strings.Contains(s, "cache_hits=1") {
		t.Errorf("shutdown log incomplete:\n%s", s)
	}
}

func TestServeBadFlags(t *testing.T) {
	out := &syncBuffer{}
	if err := run(context.Background(), []string{"-addr"}, out); err == nil {
		t.Error("dangling flag accepted")
	}
	if err := run(context.Background(), []string{"-addr", "256.0.0.1:99999"}, out); err == nil {
		t.Error("unlistenable address accepted")
	}
}

// TestServeFaultsFlag: -faults arms the injection registry for the server's
// lifetime (every plan fails retryably here, p=1) and disarms it on exit.
func TestServeFaultsFlag(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-faults", "seed=1;server.plan=error:1"}, out)
	}()

	var base string
	deadline := time.Now().Add(5 * time.Second)
	for base == "" {
		if m := listenRe.FindStringSubmatch(out.String()); m != nil {
			base = "http://" + m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never reported its address; output:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !strings.Contains(out.String(), "FAULT INJECTION ARMED") {
		t.Error("armed server did not announce the faults")
	}

	resp, err := http.Post(base+"/v1/plan", "application/json",
		strings.NewReader(`{"model": "TinyCNN", "glb_kb": 32}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("injected plan: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("injected 503 missing Retry-After")
	}
	// The observer logs every fired fault through the server's logger.
	for !strings.Contains(out.String(), "fault injected") {
		if time.Now().After(deadline) {
			t.Fatalf("fired fault never logged; output:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down")
	}
	if faultinject.Enabled() {
		t.Error("faults still armed after run returned")
	}
}

// TestServeDebugAddr: -debug-addr serves net/http/pprof on its own
// listener, announced through the structured log.
func TestServeDebugAddr(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0"}, out)
	}()

	debugRe := regexp.MustCompile(`debug_addr=([^\s]+)`)
	var debugBase string
	deadline := time.Now().Add(5 * time.Second)
	for debugBase == "" {
		if m := debugRe.FindStringSubmatch(out.String()); m != nil {
			debugBase = "http://" + m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("debug server never announced; output:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get(debugBase + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(b), "goroutine") {
		t.Errorf("pprof index: status %d body %.80q", resp.StatusCode, b)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// TestServeFaultsBadSpec: a malformed spec refuses to start the server.
func TestServeFaultsBadSpec(t *testing.T) {
	out := &syncBuffer{}
	if err := run(context.Background(), []string{"-faults", "nonsense"}, out); err == nil {
		t.Error("malformed fault spec accepted")
	}
}

// startRun boots run() in a goroutine and waits for its listening record.
func startRun(t *testing.T, ctx context.Context, args ...string) (base string, out *syncBuffer, done chan error) {
	t.Helper()
	out = &syncBuffer{}
	done = make(chan error, 1)
	go func() { done <- run(ctx, args, out) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if m := listenRe.FindStringSubmatch(out.String()); m != nil {
			return "http://" + m[1], out, done
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never reported its address; output:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitDone joins a startRun goroutine after its context was cancelled.
func waitDone(t *testing.T, done chan error) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("server did not shut down")
	}
}

// getBody fetches a URL and returns its body, failing on non-200.
func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", url, resp.StatusCode, b)
	}
	return string(b)
}

// metricValue extracts one exactly-named counter from a /metrics body.
func metricValue(t *testing.T, body, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
			if err != nil {
				t.Fatalf("metric %s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, body)
	return 0
}

// freeAddr reserves an ephemeral loopback port and releases it for run() to
// claim: fleet members must know each other's URLs before any of them has
// started listening.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestServeVersionFlag: -version prints build info and exits cleanly
// without starting a listener.
func TestServeVersionFlag(t *testing.T) {
	out := &syncBuffer{}
	if err := run(context.Background(), []string{"-version"}, out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, `"module": "scratchmem"`) || !strings.Contains(s, `"go": "go`) {
		t.Errorf("version output:\n%s", s)
	}
}

// TestServeClusterFlagValidation: fleet flags are checked before listening.
func TestServeClusterFlagValidation(t *testing.T) {
	out := &syncBuffer{}
	if err := run(context.Background(), []string{"-peers", "http://a:1,http://b:1"}, out); err == nil {
		t.Error("-peers without -self accepted")
	}
	if err := run(context.Background(), []string{"-peers", "http://a:1,http://b:1", "-self", "http://c:1"}, out); err == nil {
		t.Error("-self outside -peers accepted")
	}
	if err := run(context.Background(), []string{"-self", "http://a:1"}, out); err == nil {
		t.Error("-self without -peers accepted")
	}
}

// startFleet boots a two-member fleet through the binary path, each member
// probing the other's liveness.
func startFleet(t *testing.T, ctx context.Context) (addrs []string, dones []chan error) {
	t.Helper()
	addrs = []string{freeAddr(t), freeAddr(t)}
	peers := "http://" + addrs[0] + ",http://" + addrs[1]
	for _, a := range addrs {
		_, _, done := startRun(t, ctx,
			"-addr", a, "-peers", peers, "-self", "http://"+a,
			"-timeout", "30s", "-probe-every", "50ms")
		dones = append(dones, done)
	}
	return addrs, dones
}

// planMiss plans body on the member at addr, requires a 200 cache miss, and
// returns the plan key and the document.
func planMiss(t *testing.T, addr, body string) (key string, doc []byte) {
	t.Helper()
	resp, err := http.Post("http://"+addr+"/v1/plan", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	doc, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-SMM-Cache") != "miss" {
		t.Fatalf("plan on %s: status %d, X-SMM-Cache %q: %s", addr, resp.StatusCode, resp.Header.Get("X-SMM-Cache"), doc)
	}
	return resp.Header.Get("X-SMM-Plan-Key"), doc
}

// TestServeClusterFleet boots a real two-member fleet through the binary
// path: the same plan requested on both members is planned by each member
// itself, once, and both answer the same document.
func TestServeClusterFleet(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrs, dones := startFleet(t, ctx)

	body := `{"model": "TinyCNN", "glb_kb": 48}`
	_, want := planMiss(t, addrs[0], body)
	if _, got := planMiss(t, addrs[1], body); !bytes.Equal(got, want) {
		t.Error("the members planned different documents")
	}
	for _, a := range addrs {
		if n := metricValue(t, getBody(t, "http://"+a+"/metrics"), "smm_planner_latency_seconds_count"); n != 1 {
			t.Errorf("planner ran %d times on %s, want once on each member", n, a)
		}
	}

	cancel()
	for _, done := range dones {
		waitDone(t, done)
	}
}

// TestServeFleetInvalidation boots a two-member fleet that has planned one
// key on each member: /v1/cluster/status lists both members alive, and one
// DELETE of the key is applied on both, so planning it again on the other
// member misses and runs the planner again.
func TestServeFleetInvalidation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrs, dones := startFleet(t, ctx)

	body := `{"model": "TinyCNN", "glb_kb": 48}`
	key, _ := planMiss(t, addrs[0], body)
	planMiss(t, addrs[1], body)

	// Status view: each member sees both, alive.
	status := getBody(t, "http://"+addrs[0]+"/v1/cluster/status")
	for _, a := range addrs {
		if !strings.Contains(status, "http://"+a) {
			t.Errorf("cluster status missing member %s:\n%s", a, status)
		}
	}
	if strings.Contains(status, `"alive": false`) || strings.Contains(status, `"alive":false`) {
		t.Errorf("cluster status reports a dead member:\n%s", status)
	}

	// Fleet-wide invalidation: one DELETE is applied on both members.
	req, err := http.NewRequest(http.MethodDelete, "http://"+addrs[0]+"/v1/cache/"+key, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	db, _ := io.ReadAll(dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK || !strings.Contains(string(db), `"ok": true`) {
		t.Fatalf("invalidate: status %d, want a 200 with the fan-out outcome: %s", dresp.StatusCode, db)
	}
	for _, a := range addrs {
		if n := metricValue(t, getBody(t, "http://"+a+"/metrics"), "smm_invalidate_total"); n < 1 {
			t.Errorf("member %s never applied the invalidation", a)
		}
	}
	planMiss(t, addrs[1], body)
	var runs int64
	for _, a := range addrs {
		runs += metricValue(t, getBody(t, "http://"+a+"/metrics"), "smm_planner_latency_seconds_count")
	}
	if runs != 3 {
		t.Errorf("planner ran %d times fleet-wide after the invalidation, want 3", runs)
	}

	cancel()
	for _, done := range dones {
		waitDone(t, done)
	}
}

// TestServeWarmFrom: a node booted with -warm-from (peer URL or snapshot
// file) serves its very first plan request as a cache hit, byte-identical
// to the source node's document.
func TestServeWarmFrom(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	baseA, _, doneA := startRun(t, ctx, "-addr", "127.0.0.1:0", "-timeout", "30s")

	body := `{"model": "TinyCNN", "glb_kb": 32}`
	resp, err := http.Post(baseA+"/v1/plan", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed plan: status %d: %s", resp.StatusCode, want)
	}

	snapFile := filepath.Join(t.TempDir(), "cache.ndjson")
	if err := os.WriteFile(snapFile, []byte(getBody(t, baseA+"/v1/cache/snapshot")), 0o644); err != nil {
		t.Fatal(err)
	}

	dones := []chan error{doneA}
	for _, tc := range []struct{ name, source string }{{"url", baseA}, {"file", snapFile}} {
		base, out, done := startRun(t, ctx, "-addr", "127.0.0.1:0", "-warm-from", tc.source)
		dones = append(dones, done)
		if s := out.String(); !strings.Contains(s, "cache warmed") || !strings.Contains(s, "added=1") {
			t.Errorf("%s: warm log missing:\n%s", tc.name, s)
		}
		resp, err := http.Post(base+"/v1/plan", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if h := resp.Header.Get("X-SMM-Cache"); h != "hit" {
			t.Errorf("%s: first request X-SMM-Cache = %q, want hit", tc.name, h)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: warmed document differs from the source's", tc.name)
		}
	}

	cancel()
	for _, done := range dones {
		waitDone(t, done)
	}
}

// TestServeWarmFromBadSource: an unreachable snapshot source refuses to
// start the server rather than booting cold silently.
func TestServeWarmFromBadSource(t *testing.T) {
	out := &syncBuffer{}
	if err := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-warm-from", filepath.Join(t.TempDir(), "missing.ndjson")}, out); err == nil {
		t.Error("missing snapshot file accepted")
	}
}

// TestServeFleetFlagValidation: the self-healing flag set is checked before
// listening — duplicate members and a dangling -rewarm-every fail fast.
func TestServeFleetFlagValidation(t *testing.T) {
	out := &syncBuffer{}
	err := run(context.Background(), []string{
		"-peers", "http://a:1,http://b:1,http://a:1", "-self", "http://a:1"}, out)
	if err == nil || !strings.Contains(err.Error(), "more than once") {
		t.Errorf("duplicate -peers member accepted (err=%v)", err)
	}
	// Trailing slashes normalise before the duplicate check, so a sneaky
	// "same member spelled twice" is still refused.
	err = run(context.Background(), []string{
		"-peers", "http://a:1,http://a:1/", "-self", "http://a:1"}, out)
	if err == nil || !strings.Contains(err.Error(), "more than once") {
		t.Errorf("slash-disguised duplicate accepted (err=%v)", err)
	}
	if err := run(context.Background(), []string{"-rewarm-every", "1s"}, out); err == nil {
		t.Error("-rewarm-every without -warm-from accepted")
	}
}

// TestServeRewarm: a member with -rewarm-every pulls keys planned on its
// peer after boot, without a restart.
func TestServeRewarm(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	baseA, _, doneA := startRun(t, ctx, "-addr", "127.0.0.1:0", "-timeout", "30s")
	baseB, _, doneB := startRun(t, ctx, "-addr", "127.0.0.1:0", "-timeout", "30s",
		"-warm-from", baseA, "-rewarm-every", "25ms")

	// Planned on A *after* B booted: only the rewarm loop can carry it over.
	body := `{"model": "TinyCNN", "glb_kb": 40}`
	resp, err := http.Post(baseA+"/v1/plan", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed plan: status %d", resp.StatusCode)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Post(baseB+"/v1/plan", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.Header.Get("X-SMM-Cache") == "hit" {
			if !bytes.Equal(got, want) {
				t.Error("rewarmed document differs from the source's")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("rewarm never carried the key over")
		}
		time.Sleep(20 * time.Millisecond)
	}

	cancel()
	waitDone(t, doneA)
	waitDone(t, doneB)
}
