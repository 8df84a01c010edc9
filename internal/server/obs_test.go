package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"scratchmem/internal/obs"
	"scratchmem/internal/plancache"
)

// syncBuffer is a locked bytes.Buffer: the access log is written from the
// server's handler goroutine after the response body has already reached
// the client, so the test must read it under the same lock slog writes
// under.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// logRecords parses every line of the buffer as one JSON log record.
func logRecords(t *testing.T, b *syncBuffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("access log line is not JSON: %q: %v", line, err)
		}
		out = append(out, rec)
	}
	return out
}

// TestRequestObservability is the PR's acceptance criterion: one POST
// /v1/plan produces exactly one access-log record carrying the trace ID, at
// least three spans (request → cache → plan) sharing that trace ID, and
// increments smm_policy_selected_total.
func TestRequestObservability(t *testing.T) {
	var logBuf syncBuffer
	logger, err := obs.NewLogger(&logBuf, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(64)
	ts := httptest.NewServer(New(Config{Logger: logger, Tracer: tracer}).Handler())
	defer ts.Close()

	resp, body := post(t, ts, "/v1/plan", tinyPlanBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan: status %d: %s", resp.StatusCode, body)
	}

	// The request span ends (and the access log is written) after the body
	// reaches the client; wait for the whole pipeline to settle.
	deadline := time.Now().Add(5 * time.Second)
	for tracer.Finished() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d spans finished, want >= 3", tracer.Finished())
		}
		time.Sleep(time.Millisecond)
	}

	var access []map[string]any
	for {
		access = nil
		for _, rec := range logRecords(t, &logBuf) {
			if rec["msg"] == "request" {
				access = append(access, rec)
			}
		}
		if len(access) > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if len(access) != 1 {
		t.Fatalf("access-log records = %d, want exactly 1:\n%s", len(access), logBuf.String())
	}
	rec := access[0]
	traceID, _ := rec["trace_id"].(string)
	if traceID == "" {
		t.Fatalf("access-log record has no trace_id: %v", rec)
	}
	if rec["route"] != "/v1/plan" || rec["status"] != float64(200) {
		t.Errorf("access-log record route/status = %v/%v", rec["route"], rec["status"])
	}
	if mh, _ := rec["model_hash"].(string); mh == "" {
		t.Errorf("access-log record has no model_hash: %v", rec)
	}

	// All spans of the request share its trace ID and cover the three layers
	// of the stack.
	names := map[string]bool{}
	inTrace := 0
	for _, s := range tracer.Spans() {
		if s.TraceID != traceID {
			continue
		}
		inTrace++
		names[s.Name] = true
	}
	if inTrace < 3 {
		t.Errorf("spans in trace %s = %d, want >= 3", traceID, inTrace)
	}
	for _, want := range []string{"request", "cache", "plan"} {
		if !names[want] {
			t.Errorf("trace %s is missing a %q span (have %v)", traceID, want, names)
		}
	}

	// The fresh plan incremented the per-policy selection counters: summed
	// over all variants they equal the number of planned layers, and the
	// planned DRAM bytes are visible per data type.
	_, mbody := get(t, ts, "/metrics")
	re := regexp.MustCompile(`(?m)^smm_policy_selected_total\{policy="[^"]+"\} (\d+)$`)
	var selected int
	for _, m := range re.FindAllStringSubmatch(string(mbody), -1) {
		var v int
		fmt.Sscanf(m[1], "%d", &v)
		selected += v
	}
	if selected == 0 {
		t.Error("smm_policy_selected_total never incremented by a fresh plan")
	}
	if n := metric(t, mbody, `smm_dram_bytes_total{datatype="ifmap"}`); n <= 0 {
		t.Errorf("ifmap DRAM bytes = %d, want > 0", n)
	}
	if n := metric(t, mbody, `smm_phase_latency_seconds_count{phase="plan"}`); n != 1 {
		t.Errorf("plan phase histogram count = %d, want 1", n)
	}

	// A cache hit re-counts nothing: the planner-deep counters describe
	// planner executions, not request traffic.
	post(t, ts, "/v1/plan", tinyPlanBody)
	_, mbody2 := get(t, ts, "/metrics")
	var selected2 int
	for _, m := range re.FindAllStringSubmatch(string(mbody2), -1) {
		var v int
		fmt.Sscanf(m[1], "%d", &v)
		selected2 += v
	}
	if selected2 != selected {
		t.Errorf("cache hit changed smm_policy_selected_total: %d -> %d", selected, selected2)
	}
}

// TestHomPlanSpanEvents: a homogeneous /v1/plan records one progress event
// per layer on its plan span — the winning variant's walk — however many
// candidate variants the search scored.
func TestHomPlanSpanEvents(t *testing.T) {
	tracer := obs.NewTracer(64)
	ts := httptest.NewServer(New(Config{Tracer: tracer}).Handler())
	defer ts.Close()
	resp, body := post(t, ts, "/v1/plan", `{"model": "ResNet18", "glb_kb": 256, "homogeneous": true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan: status %d: %s", resp.StatusCode, body)
	}
	var plans []*obs.Span
	for _, s := range tracer.Spans() {
		if s.Name == "plan" {
			plans = append(plans, s)
		}
	}
	if len(plans) != 1 {
		t.Fatalf("%d plan spans, want 1", len(plans))
	}
	if got, want := len(plans[0].Events), plans[0].Attr("layers"); got != want {
		t.Errorf("plan span has %d events, want one per layer (%v)", got, want)
	}
}

// TestHetPlanSpanEvents: a heterogeneous plan, whether from /v1/plan or
// as a /v1/plan/batch item, records no progress events on its plan span;
// only homogeneous plans feed their layers to the span.
func TestHetPlanSpanEvents(t *testing.T) {
	tracer := obs.NewTracer(64)
	ts := httptest.NewServer(New(Config{Tracer: tracer}).Handler())
	defer ts.Close()
	if resp, body := post(t, ts, "/v1/plan", `{"model": "ResNet18", "glb_kb": 256}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("plan: status %d: %s", resp.StatusCode, body)
	}
	resp, body := post(t, ts, "/v1/plan/batch", `{"requests": [{"model": "ResNet18", "glb_kb": 128}]}`)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"status": 200`) {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, body)
	}
	var plans []*obs.Span
	for _, s := range tracer.Spans() {
		if s.Name == "plan" {
			plans = append(plans, s)
		}
	}
	if len(plans) != 2 {
		t.Fatalf("%d plan spans, want 2", len(plans))
	}
	for _, s := range plans {
		if len(s.Events) != 0 {
			t.Errorf("het plan span has %d events, want 0", len(s.Events))
		}
	}
}

// TestTraceEndpoint covers GET /v1/trace/{key}: Perfetto JSON and CSV
// renderings of a planned model, the 404 for unknown keys, and the 400 for
// unknown formats.
func TestTraceEndpoint(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	resp, body := post(t, ts, "/v1/plan", tinyPlanBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan: status %d: %s", resp.StatusCode, body)
	}
	key := resp.Header.Get("X-SMM-Plan-Key")
	if key == "" {
		t.Fatal("plan response has no X-SMM-Plan-Key")
	}

	tresp, tbody := get(t, ts, "/v1/trace/"+key+"?format=perfetto")
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("trace: status %d: %s", tresp.StatusCode, tbody)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			PID  int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(tbody, &doc); err != nil {
		t.Fatalf("trace body is not trace-event JSON: %v", err)
	}
	var complete int
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			complete++
		}
		if ev.PID != 1 || ev.TS < 0 {
			t.Errorf("bad event: %+v", ev)
		}
	}
	if complete == 0 {
		t.Error("trace has no complete events")
	}
	if !strings.Contains(string(tbody), `"PE array"`) || !strings.Contains(string(tbody), `"DMA (off-chip)"`) {
		t.Error("trace is missing the track-name metadata")
	}

	// Repeat downloads are served from the trace cache.
	tresp2, _ := get(t, ts, "/v1/trace/"+key)
	if tresp2.Header.Get("X-SMM-Cache") != "hit" {
		t.Error("repeated trace download not served from cache")
	}

	cresp, cbody := get(t, ts, "/v1/trace/"+key+"?format=csv")
	if cresp.StatusCode != http.StatusOK || !strings.HasPrefix(string(cbody), "layer,step,kind,elems") {
		t.Errorf("csv trace: status %d body %.60q", cresp.StatusCode, cbody)
	}

	bresp, _ := get(t, ts, "/v1/trace/"+key+"?format=protobuf")
	if bresp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown format: status %d, want 400", bresp.StatusCode)
	}
	nresp, _ := get(t, ts, "/v1/trace/nosuchkey")
	if nresp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown key: status %d, want 404", nresp.StatusCode)
	}
	_, mbody := get(t, ts, "/metrics")
	if n := metric(t, mbody, `smm_errors_total{code="404"}`); n != 1 {
		t.Errorf("404 counter = %d, want 1", n)
	}
	// The plan's flight and the trace's missed; the 404 computed nothing,
	// so it is no plan-cache miss.
	if n := metric(t, mbody, "smm_cache_misses_total"); n != 2 {
		t.Errorf("smm_cache_misses_total = %d, want 2", n)
	}

	// The spans endpoint always renders a loadable document.
	sresp, sbody := get(t, ts, "/v1/spans")
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("spans: status %d", sresp.StatusCode)
	}
	var spansDoc map[string]any
	if err := json.Unmarshal(sbody, &spansDoc); err != nil {
		t.Fatalf("spans body is not JSON: %v", err)
	}
	if _, ok := spansDoc["traceEvents"]; !ok {
		t.Error("spans document has no traceEvents")
	}
}

// metricLine matches one valid exposition line: name, optional {labels},
// one numeric value (integers, floats and %g scientific notation).
var metricLine = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*(\{[^{}]*\})? -?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?$`)

// TestMetricsUnderConcurrentLoad hammers every route from many goroutines
// while scraping /metrics, asserting each scrape parses line by line. Run
// under -race this also proves the atomic counters and the span ring are
// data-race free.
func TestMetricsUnderConcurrentLoad(t *testing.T) {
	ts := httptest.NewServer(New(Config{Logger: obs.Discard()}).Handler())
	defer ts.Close()

	// Seed a plan so the trace route has a key to serve.
	resp, _ := post(t, ts, "/v1/plan", tinyPlanBody)
	key := resp.Header.Get("X-SMM-Plan-Key")

	const loaders = 8
	const iters = 20
	var wg sync.WaitGroup
	for i := 0; i < loaders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				switch j % 6 {
				case 0:
					r, err := http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader(tinyPlanBody))
					if err == nil {
						r.Body.Close()
					}
				case 1:
					r, err := http.Get(ts.URL + "/healthz")
					if err == nil {
						r.Body.Close()
					}
				case 2:
					r, err := http.Get(ts.URL + "/v1/models")
					if err == nil {
						r.Body.Close()
					}
				case 3:
					r, err := http.Get(ts.URL + "/v1/trace/" + key)
					if err == nil {
						r.Body.Close()
					}
				case 4:
					r, err := http.Get(ts.URL + "/v1/spans")
					if err == nil {
						r.Body.Close()
					}
				case 5:
					r, err := http.Post(ts.URL+"/v1/dse", "application/json", strings.NewReader(tinyPlanBody))
					if err == nil {
						r.Body.Close()
					}
				}
			}
		}(i)
	}

	// Scrape concurrently with the load and validate every line.
	scrapeDone := make(chan struct{})
	var scrapeErr error
	go func() {
		defer close(scrapeDone)
		for k := 0; k < 30; k++ {
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				scrapeErr = err
				return
			}
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				line := sc.Text()
				if line == "" {
					continue
				}
				if !metricLine.MatchString(line) {
					scrapeErr = fmt.Errorf("scrape %d: malformed metric line %q", k, line)
					resp.Body.Close()
					return
				}
			}
			if err := sc.Err(); err != nil {
				scrapeErr = err
			}
			resp.Body.Close()
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	<-scrapeDone
	if scrapeErr != nil {
		t.Fatal(scrapeErr)
	}

	// After the dust settles every hammered route has a non-zero counter.
	_, mbody := get(t, ts, "/metrics")
	for _, route := range []string{"/v1/plan", "/v1/dse", "/v1/trace", "/v1/spans", "/v1/models", "/healthz", "/metrics"} {
		if n := metric(t, mbody, fmt.Sprintf("smm_requests_total{path=%q}", route)); n == 0 {
			t.Errorf("route %s never counted under load", route)
		}
	}
}

// TestOtherErrorCode: status codes outside the fixed label set land in the
// catch-all counter instead of disappearing.
func TestOtherErrorCode(t *testing.T) {
	m := newMetrics(routes)
	m.error(400)
	m.error(418) // no fixed label
	m.error(451) // no fixed label
	var buf bytes.Buffer
	m.write(&buf, plancache.Stats{}, plancache.Stats{}, nil, 0, 0, 0)
	out := buf.String()
	if !strings.Contains(out, `smm_errors_total{code="400"} 1`) {
		t.Error("fixed-code counter missing")
	}
	if !strings.Contains(out, `smm_errors_total{code="other"} 2`) {
		t.Errorf("catch-all counter wrong:\n%s", out)
	}
}
