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
	"scratchmem/internal/model"
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

// mutantBatch is a compact POST /v1/plan/batch body of 64 inline one-layer
// mutants of base at glbKB (layer i%L gets 1+i/L more filters, or channels
// for depth-wise layers), the shape of a neighbor-batch request.
func mutantBatch(tb testing.TB, base string, glbKB int) []byte {
	net, err := scratchmem.BuiltinModel(base)
	if err != nil {
		tb.Fatal(err)
	}
	reqs := make([]PlanRequest, 64)
	for i := range reqs {
		reqs[i] = PlanRequest{
			Network:      neighborNetwork(tb, base, i%len(net.Layers), 1+i/len(net.Layers)),
			GLBKiloBytes: glbKB,
		}
	}
	body, err := json.Marshal(BatchRequest{Requests: reqs})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// BenchmarkIngest times the ingest seam alone, with no handler, cache or
// planner around it: ingestBatch on 64-item neighbour batches of three
// bases, and ingest on a body that names a builtin.
func BenchmarkIngest(b *testing.B) {
	for _, base := range []string{"ResNet18", "MobileNetV2", "GoogLeNet"} {
		body := mutantBatch(b, base, 64)
		b.Run("batch/"+base, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				items, err := ingestBatch(body)
				if err != nil || items[63].err != nil {
					b.Fatal(err, items[63].err)
				}
			}
		})
	}
	b.Run("builtin", func(b *testing.B) {
		body := []byte(`{"model": "ResNet18", "glb_kb": 64}`)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var in planInput
			if err := ingest(&in, body, planBody); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// serveBatch sends one batch body through h and checks that every item
// earned a plan.
func serveBatch(tb testing.TB, h http.Handler, body []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan/batch", bytes.NewReader(body)))
	if rec.Code != http.StatusOK || bytes.Count(rec.Body.Bytes(), []byte(`"status": 200`)) != 64 {
		tb.Fatalf("status %d: %.200s", rec.Code, rec.Body.Bytes())
	}
}

// BenchmarkBatchHandler sends one batch of 64 MobileNetV2 mutants through
// the real planner. The first request plans them; after it every item is a
// plan-cache hit, so each iteration times the batch decode, 64 network
// resolutions and plan keys, and the response envelope.
func BenchmarkBatchHandler(b *testing.B) {
	body := mutantBatch(b, "MobileNetV2", 64)
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
// the batch's shared sweep tables, render and envelope.
func BenchmarkBatchHandlerMiss(b *testing.B) {
	bodies := make([][]byte, b.N)
	for i := range bodies {
		bodies[i] = mutantBatch(b, "MobileNetV2", 32+i)
	}
	h := New(Config{}).Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for _, body := range bodies {
		serveBatch(b, h, body)
	}
}

// recordGrid encodes the snapshot record of every builtin planned at 64,
// 256 and 1024 kB under the four option sets smm-loadbench's workloads
// cycle through: het, het with the latency objective, het with inter-layer
// reuse, and hom. Degraded plans have no record.
func recordGrid(b *testing.B) [][]byte {
	b.Helper()
	var grid [][]byte
	for _, name := range servedModels {
		net, err := scratchmem.BuiltinModel(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, kb := range []int{64, 256, 1024} {
			for _, o := range []scratchmem.PlanOptions{{}, {Objective: scratchmem.MinLatency}, {InterLayerReuse: true}, {Homogeneous: true}} {
				o.Config = scratchmem.DefaultConfig(kb)
				p, err := scratchmem.PlanModel(net, o)
				if err != nil {
					b.Fatal(err)
				}
				if p.Degraded {
					continue
				}
				body, err := scratchmem.PlanDocument(p).MarshalIndent()
				if err != nil {
					b.Fatal(err)
				}
				key, err := scratchmem.PlanKey(net, o)
				if err != nil {
					b.Fatal(err)
				}
				rec, err := appendRecord(nil, key, &planEntry{body: body, net: net, opts: o})
				if err != nil {
					b.Fatal(err)
				}
				grid = append(grid, rec)
			}
		}
	}
	return grid
}

// BenchmarkSnapshotRestore reads and verifies one snapshot record per
// iteration, cycling through the grid: what -warm-from and the re-warm loop
// do with each line before they store its plan.
func BenchmarkSnapshotRestore(b *testing.B) {
	grid := recordGrid(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := grid[i%len(grid)]
		if _, _, err := readRecord(model.NewJSONReader(rec), rec).restore(); err != nil {
			b.Fatal(err)
		}
	}
}
