package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"runtime"
	"sync/atomic"
	"testing"

	scratchmem "scratchmem"
	"scratchmem/internal/model"
	"scratchmem/internal/obs"
	"scratchmem/internal/policy"
)

// routeAnswers are the answers of /v1/simulate and of /v1/trace in both
// formats for one plan key, each a status and a body; traces are nil when
// not asked for.
type routeAnswers struct {
	simCode, traceCode int
	sim, perfetto, csv []byte
}

// answersFor is what the simulate and trace routes answer for the plan p:
// its simulation and, if traced, its dry-run trace; or, for a plan that
// exceeds the GLB, the typed 422 of each route.
func answersFor(t *testing.T, p *scratchmem.Plan, key string, traced bool) routeAnswers {
	t.Helper()
	if !p.Feasible() {
		refuse := func(verb string) []byte {
			msg := fmt.Sprintf("plan for %s needs %d bytes of GLB but only %d are available, cannot %s: %v",
				p.Model, p.MaxMemoryBytes(), p.Cfg.GLBBytes, verb, scratchmem.ErrInfeasible)
			b, err := json.Marshal(errorResponse{Error: msg})
			if err != nil {
				t.Fatal(err)
			}
			return append(b, '\n')
		}
		return routeAnswers{
			simCode: http.StatusUnprocessableEntity, traceCode: http.StatusUnprocessableEntity,
			sim: refuse("simulate"), perfetto: refuse("trace"), csv: refuse("trace"),
		}
	}
	ctx := context.Background()
	measured, estimated, err := scratchmem.SimulatePlanCtx(ctx, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, &SimulateResponse{Model: p.Model, PlanKey: key, MeasuredCycles: measured, EstimatedCycles: estimated})
	a := routeAnswers{simCode: http.StatusOK, traceCode: http.StatusOK, sim: rec.Body.Bytes()}
	if !traced {
		return a
	}
	log, err := traceLog(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	var perfetto, csv bytes.Buffer
	if err := obs.WriteChromeTrace(&perfetto, log, p.Cfg); err != nil {
		t.Fatal(err)
	}
	log.WriteCSV(&csv)
	a.perfetto, a.csv = perfetto.Bytes(), csv.Bytes()
	return a
}

// checkAnswers requires /v1/simulate for body, and /v1/trace for its key
// in both formats when want has traces, to answer want.
func checkAnswers(t *testing.T, ts *httptest.Server, body, key string, want routeAnswers) {
	t.Helper()
	check := func(route string, resp *http.Response, got []byte, code int, want []byte) {
		t.Helper()
		if resp.StatusCode != code || !bytes.Equal(got, want) {
			t.Errorf("%s: %s answered %d with %d bytes (%.120s), want %d with %d bytes (%.120s)",
				body, route, resp.StatusCode, len(got), got, code, len(want), want)
		}
	}
	resp, got := post(t, ts, "/v1/simulate", body)
	check("/v1/simulate", resp, got, want.simCode, want.sim)
	if want.perfetto == nil {
		return
	}
	resp, got = get(t, ts, "/v1/trace/"+key+"?format=perfetto")
	check("/v1/trace perfetto", resp, got, want.traceCode, want.perfetto)
	resp, got = get(t, ts, "/v1/trace/"+key+"?format=csv")
	check("/v1/trace csv", resp, got, want.traceCode, want.csv)
}

// freshPlanCounters matches the /metrics series that count freshly
// computed plans.
var freshPlanCounters = regexp.MustCompile(`(?m)^(smm_planner_latency_seconds_count|smm_degraded_plans_total|smm_policy_selected_total|smm_dram_bytes_total)\b.*$`)

// tracedModel is the builtin whose traces TestSimulateAndTraceServeTheCachedPlan
// downloads. A trace has an event per tile step: AlexNet's at 64 kB is 41k
// events and 5.9 MB of Perfetto JSON, VGG16's 1.45 M events and 218 MB, so
// the other networks' traces are covered by the rebuilt plan graph, which
// the trace is a function of, equalling the planned one.
const tracedModel = "TinyCNN"

// TestSimulateAndTraceServeTheCachedPlan: the plan cache keeps documents,
// and /v1/simulate and /v1/trace rebuild the plan graph from the cached
// entry. For every builtin under the four option sets smm-loadbench's
// workloads cycle through, at 64 and 1024 kB, and for one degraded
// request, each key is planned twice (a miss, then a hit). Then:
//   - /v1/simulate answers byte for byte what the freshly planned graph
//     simulates to, or its 422 for a plan over the GLB; so does /v1/trace,
//     in both formats, for tracedModel and the degraded request;
//   - the graph the server rebuilds from each cached entry is the freshly
//     planned graph, field for field, which the simulator and the trace
//     are functions of;
//   - the rebuilds count in none of the series that count fresh plans: the
//     planner ran once per key, one plan degraded, and the policy and DRAM
//     counters did not move.
func TestSimulateAndTraceServeTheCachedPlan(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	optionSets := []struct {
		member string
		opts   scratchmem.PlanOptions
	}{
		{"", scratchmem.PlanOptions{}},
		{`, "objective": "latency"`, scratchmem.PlanOptions{Objective: scratchmem.MinLatency}},
		{`, "interlayer": true`, scratchmem.PlanOptions{InterLayerReuse: true}},
		{`, "homogeneous": true`, scratchmem.PlanOptions{Homogeneous: true}},
	}
	type request struct {
		body, key string
		plan      *scratchmem.Plan
		want      routeAnswers
	}
	var requests []request
	add := func(name string, kb int, member string, o scratchmem.PlanOptions, traced bool) {
		net, err := scratchmem.BuiltinModel(name)
		if err != nil {
			t.Fatal(err)
		}
		o.Config = scratchmem.DefaultConfig(kb)
		p, err := scratchmem.PlanModel(net, o)
		if err != nil {
			t.Fatal(err)
		}
		key, err := scratchmem.PlanKey(net, o)
		if err != nil {
			t.Fatal(err)
		}
		body := fmt.Sprintf(`{"model": %q, "glb_kb": %d%s}`, name, kb, member)
		requests = append(requests, request{body, key, p, answersFor(t, p, key, traced)})
	}
	for _, name := range servedModels {
		for _, kb := range []int{64, 1024} {
			for _, set := range optionSets {
				add(name, kb, set.member, set.opts, name == tracedModel)
			}
		}
	}
	add("ResNet18", 1, "", scratchmem.PlanOptions{}, true) // infeasibleBody
	if degraded := requests[len(requests)-1].plan; !degraded.Degraded || degraded.Feasible() {
		t.Fatalf("the degraded request planned degraded=%v feasible=%v, want a degraded plan over the GLB", degraded.Degraded, degraded.Feasible())
	}

	for _, r := range requests {
		for i, cache := range []string{"miss", "hit"} {
			resp, doc := post(t, ts, "/v1/plan", r.body)
			if resp.StatusCode != http.StatusOK || resp.Header.Get("X-SMM-Cache") != cache || resp.Header.Get("X-SMM-Plan-Key") != r.key {
				t.Fatalf("%s: plan %d: status %d, cache %q, want 200 %s: %.200s", r.body, i+1, resp.StatusCode, resp.Header.Get("X-SMM-Cache"), cache, doc)
			}
		}
	}
	_, before := get(t, ts, "/metrics")
	for _, r := range requests {
		checkAnswers(t, ts, r.body, r.key, r.want)
	}
	_, after := get(t, ts, "/metrics")
	if n := metric(t, after, "smm_planner_latency_seconds_count"); n != int64(len(requests)) {
		t.Errorf("smm_planner_latency_seconds_count = %d, want %d: one fresh plan per key", n, len(requests))
	}
	if n := metric(t, after, "smm_degraded_plans_total"); n != 1 {
		t.Errorf("smm_degraded_plans_total = %d, want 1", n)
	}
	b, a := freshPlanCounters.FindAll(before, -1), freshPlanCounters.FindAll(after, -1)
	if len(b) != len(a) || len(a) < 4 {
		t.Fatalf("fresh-plan series: %d lines before, %d after", len(b), len(a))
	}
	for i := range a {
		if !bytes.Equal(b[i], a[i]) {
			t.Errorf("simulate and trace moved a fresh-plan counter: %s, then %s", b[i], a[i])
		}
	}

	for _, r := range requests {
		v, ok := srv.local.Get("plan:" + r.key)
		if !ok {
			t.Fatalf("%s: no cached entry", r.body)
		}
		p, err := v.(*planEntry).graph()
		if err != nil {
			t.Fatalf("%s: graph: %v", r.body, err)
		}
		if !reflect.DeepEqual(p, r.plan) {
			t.Errorf("%s: the rebuilt plan graph differs from the planned one", r.body)
		}
	}
}

// TestSimulateRestoredDocumentAsItReads: a restored entry is simulated and
// traced as its document reads, not as this member would plan the key. A
// VGG16 64 kB document whose conv1_2 uses block size 13 instead of the
// planner's 27 is still a valid document (the key hashes only the network
// and options), so it restores. /v1/plan then answers it, /v1/simulate
// its 73 421 083 measured cycles (the planner's own plan measures
// 73 012 475), the trace flight rebuilds that same graph, and the planner
// never runs.
func TestSimulateRestoredDocumentAsItReads(t *testing.T) {
	net, err := scratchmem.BuiltinModel("VGG16")
	if err != nil {
		t.Fatal(err)
	}
	opts := scratchmem.PlanOptions{Config: scratchmem.DefaultConfig(64)}
	p, err := scratchmem.PlanModel(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	lp := &p.Layers[1]
	if lp.Layer.Name != "conv1_2" || lp.Est.N != 27 {
		t.Fatalf("layer 1 is %s with n = %d, want conv1_2 with n = 27", lp.Layer.Name, lp.Est.N)
	}
	if lp.Est, err = policy.EstimateN(&lp.Layer, lp.Est.Policy, lp.Est.Opts, p.Cfg, 13); err != nil {
		t.Fatal(err)
	}
	key, err := scratchmem.PlanKey(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	doc := scratchmem.PlanDocument(p)
	line, err := json.Marshal(&SnapshotRecord{Key: key, Network: model.AppendCanonicalJSON(nil, net), Doc: doc})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{})
	srv.planFn = func(context.Context, *scratchmem.Network, scratchmem.PlanOptions) (*scratchmem.Plan, error) {
		t.Error("the planner ran for a restored key")
		return nil, fmt.Errorf("must not plan")
	}
	if added, skipped, err := srv.RestoreSnapshot(bytes.NewReader(line)); added != 1 || skipped != 0 || err != nil {
		t.Fatalf("RestoreSnapshot = %d added, %d skipped, %v; want the block-size-13 document restored", added, skipped, err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"model": "VGG16", "glb_kb": 64}`
	resp, got := post(t, ts, "/v1/plan", body)
	want, err := doc.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("X-SMM-Cache") != "hit" || !bytes.Equal(got, want) {
		t.Fatalf("/v1/plan answered %q, not the restored document", resp.Header.Get("X-SMM-Cache"))
	}
	answers := answersFor(t, p, key, false)
	resp, got = post(t, ts, "/v1/simulate", body)
	var sim SimulateResponse
	if err := json.Unmarshal(got, &sim); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/simulate: status %d: %s", resp.StatusCode, got)
	}
	if sim.MeasuredCycles != 73421083 || !bytes.Equal(got, answers.sim) {
		t.Errorf("/v1/simulate measured %d cycles, want the restored document's 73421083 (%s)", sim.MeasuredCycles, answers.sim)
	}
	// The trace flight rebuilds the same graph. (This trace is too large
	// to download here: VGG16's at 64 kB has over a million events.)
	v, _ := srv.local.Get("plan:" + key)
	rebuilt, err := v.(*planEntry).graph()
	if err != nil || !reflect.DeepEqual(rebuilt, p) {
		t.Errorf("the rebuilt plan graph is not the restored document's (%v)", err)
	}
}

// TestOverGLBDegradedRefusedBeforeFlights: a degraded plan that exceeds
// the GLB is refused by /v1/simulate and /v1/trace from the cached entry
// alone, before their flights: with the only worker slot held and the
// wait queue full, so that any flight would be shed with 503, repeated
// requests answer the typed 422, and the planner never runs again nor
// opens another plan span.
func TestOverGLBDegradedRefusedBeforeFlights(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 1})
	var plans atomic.Int64
	srv.planFn = func(ctx context.Context, n *scratchmem.Network, o scratchmem.PlanOptions) (*scratchmem.Plan, error) {
		plans.Add(1)
		return scratchmem.PlanModelCtx(ctx, n, o, nil)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, body := post(t, ts, "/v1/plan", infeasibleBody)
	key := resp.Header.Get("X-SMM-Plan-Key")
	if resp.StatusCode != http.StatusOK || key == "" {
		t.Fatalf("plan: status %d (%s), want 200 with a key", resp.StatusCode, body)
	}
	_, before := get(t, ts, "/metrics")
	planSpans := `smm_phase_latency_seconds_count{phase="plan"}`

	if err := srv.sem.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	queued := make(chan error)
	go func() {
		err := srv.sem.Acquire(context.Background())
		if err == nil {
			srv.sem.Release()
		}
		queued <- err
	}()
	for srv.sem.Waiting() != 1 {
		runtime.Gosched()
	}
	for i := 0; i < 3; i++ {
		for _, route := range []string{"/v1/simulate", "/v1/trace/" + key + "?format=perfetto", "/v1/trace/" + key + "?format=csv"} {
			var resp *http.Response
			var got []byte
			if route == "/v1/simulate" {
				resp, got = post(t, ts, route, infeasibleBody)
			} else {
				resp, got = get(t, ts, route)
			}
			if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Errorf("%s %d: status %d (%s), want 422", route, i+1, resp.StatusCode, got)
			}
		}
	}
	srv.sem.Release()
	if err := <-queued; err != nil {
		t.Fatal(err)
	}

	if n := plans.Load(); n != 1 {
		t.Errorf("the planner ran %d times, want once", n)
	}
	_, after := get(t, ts, "/metrics")
	if n := metric(t, after, "smm_planner_latency_seconds_count"); n != 1 {
		t.Errorf("smm_planner_latency_seconds_count = %d, want 1", n)
	}
	if b, a := metric(t, before, planSpans), metric(t, after, planSpans); a != b {
		t.Errorf("%s went from %d to %d: a refusal opened a plan span", planSpans, b, a)
	}
}

// TestCachedPlanHeap: a cached plan is its document, network and options,
// not the plan graph it was rendered from. One batch of 64 one-layer
// MobileNetV2 mutants at 64 kB, as the neighbor-batch workload sends,
// leaves at most 20 kB of live heap per cached entry; with the graph kept
// too, each entry held about 30 kB.
func TestCachedPlanHeap(t *testing.T) {
	body := mutantBatch(t, "MobileNetV2", 64)
	srv := New(Config{})
	h := srv.Handler()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	serveBatch(t, h, body)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if n := srv.local.Len(); n != 64 {
		t.Fatalf("%d cached entries, want 64", n)
	}
	perEntry := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / 64
	t.Logf("%d B of heap per cached entry", perEntry)
	if perEntry > 20<<10 {
		t.Errorf("each cached entry retains %d B of heap, want at most %d", perEntry, 20<<10)
	}
	runtime.KeepAlive(srv)
}
