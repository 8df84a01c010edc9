package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	scratchmem "scratchmem"
)

// benchHandler is a server whose planner returns one precomputed ResNet18
// plan, so the plan-handler benchmarks time the request path alone: read,
// resolve, key, cache, render on a miss, write.
func benchHandler(b *testing.B) http.Handler {
	b.Helper()
	net, err := scratchmem.BuiltinModel("ResNet18")
	if err != nil {
		b.Fatal(err)
	}
	plan, err := scratchmem.PlanModel(net, scratchmem.PlanOptions{GLBKiloBytes: 64})
	if err != nil {
		b.Fatal(err)
	}
	srv := New(Config{})
	srv.planFn = func(context.Context, *scratchmem.Network, scratchmem.PlanOptions) (*scratchmem.Plan, error) {
		return plan, nil
	}
	return srv.Handler()
}

// servePlan sends one POST /v1/plan through h.
func servePlan(b *testing.B, h http.Handler, body string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
}

// BenchmarkPlanHandlerHit repeats one ResNet18 body: after the first
// request every iteration is a resolve-memo and plan-cache hit.
func BenchmarkPlanHandlerHit(b *testing.B) {
	h := benchHandler(b)
	const body = `{"model": "ResNet18", "glb_kb": 64}`
	servePlan(b, h, body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		servePlan(b, h, body)
	}
}

// BenchmarkPlanHandlerMiss sends a new builtin × GLB body every iteration,
// so each one is decoded, resolved, keyed, planned and rendered.
func BenchmarkPlanHandlerMiss(b *testing.B) {
	h := benchHandler(b)
	bodies := make([]string, b.N)
	for i := range bodies {
		bodies[i] = fmt.Sprintf(`{"model": %q, "glb_kb": %d}`, servedModels[i%len(servedModels)], 16+i/len(servedModels))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, body := range bodies {
		servePlan(b, h, body)
	}
}

// mutantBatch is a POST /v1/plan/batch body of 64 inline one-layer mutants
// of MobileNetV2 at glbKB (layer i%L gets 1+i/L more filters, or channels
// for depth-wise layers), the shape of a neighbor-batch request.
func mutantBatch(b *testing.B, glbKB int) []byte {
	net, err := scratchmem.BuiltinModel("MobileNetV2")
	if err != nil {
		b.Fatal(err)
	}
	reqs := make([]PlanRequest, 64)
	for i := range reqs {
		reqs[i] = PlanRequest{
			Network:      neighborNetwork(b, "MobileNetV2", i%len(net.Layers), 1+i/len(net.Layers)),
			GLBKiloBytes: glbKB,
		}
	}
	body, err := json.Marshal(BatchRequest{Requests: reqs})
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// serveBatch sends one batch body through h and checks that every item
// earned a plan.
func serveBatch(b *testing.B, h http.Handler, body []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan/batch", bytes.NewReader(body)))
	if rec.Code != http.StatusOK || bytes.Count(rec.Body.Bytes(), []byte(`"status": 200`)) != 64 {
		b.Fatalf("status %d: %.200s", rec.Code, rec.Body.Bytes())
	}
}

// BenchmarkBatchHandler sends one batch of 64 MobileNetV2 mutants through
// the real planner. The first request plans them; after it every item is a
// plan-cache hit, so each iteration times the batch decode, 64 network
// resolutions and plan keys, and the response envelope.
func BenchmarkBatchHandler(b *testing.B) {
	body := mutantBatch(b, 64)
	h := New(Config{}).Handler()
	serveBatch(b, h, body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveBatch(b, h, body)
	}
}

// BenchmarkBatchHandlerMiss is BenchmarkBatchHandler with a new GLB size
// every iteration, so every item misses the plan cache and is planned, as
// on the neighbor-batch workload: decode, resolve, key, the planner with
// the batch's splice, render and envelope.
func BenchmarkBatchHandlerMiss(b *testing.B) {
	bodies := make([][]byte, b.N)
	for i := range bodies {
		bodies[i] = mutantBatch(b, 32+i)
	}
	h := New(Config{}).Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for _, body := range bodies {
		serveBatch(b, h, body)
	}
}
