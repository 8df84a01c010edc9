package server

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"

	scratchmem "scratchmem"
)

// fuzzServer returns a constructor of servers whose compute seams are
// stubbed with a precomputed plan and fixed cycle counts, so the fuzzer
// exercises the decode/resolve/classify path at full speed without running
// the planner.
func fuzzServer(f *testing.F) func() *Server {
	f.Helper()
	net, err := scratchmem.BuiltinModel("TinyCNN")
	if err != nil {
		f.Fatal(err)
	}
	plan, err := scratchmem.PlanModel(net, scratchmem.PlanOptions{GLBKiloBytes: 32})
	if err != nil {
		f.Fatal(err)
	}
	return func() *Server {
		srv := New(Config{Workers: 2})
		srv.planFn = func(context.Context, *scratchmem.Network, scratchmem.PlanOptions) (*scratchmem.Plan, error) {
			return plan, nil
		}
		srv.simFn = func(context.Context, *scratchmem.Plan) (int64, int64, error) {
			return 1, 1, nil
		}
		return srv
	}
}

// fuzzBody drives one raw body through a handler and enforces the wire
// contract: arbitrary input never panics the server and never earns a 5xx —
// garbage is the client's fault (4xx), not ours.
func fuzzBody(t *testing.T, srv *Server, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code >= 500 {
		t.Errorf("%s: body %q earned status %d (%s)", path, body, rec.Code, rec.Body.Bytes())
	}
	return rec
}

// FuzzPlanRequest: the /v1/plan decoder must classify every input, and the
// resolve memo must be invisible: a body sent a second time (a memo hit
// when the first earned a plan) gets the same status, plan key and bytes.
func FuzzPlanRequest(f *testing.F) {
	f.Add([]byte(`{"model": "TinyCNN", "glb_kb": 32}`))
	f.Add([]byte(`{"model": "TinyCNN", "glb_kb": 32, "strict": true, "objective": "latency"}`))
	f.Add([]byte(`{"network": {"name":"n","layers":[{"name":"l","type":"CV","ih":4,"iw":4,"ci":1,"fh":3,"fw":3,"f":2,"s":1,"p":1}]}, "glb_kb": 8}`))
	f.Add([]byte(`{"model": "TinyCNN", "config": {"glb_bytes": 65536, "pe_rows": 8, "pe_cols": 8, "data_width_bits": 8}}`))
	f.Add([]byte(`{"model": "NoSuchNet", "glb_kb": 32}`))
	f.Add([]byte(`{"model": "TinyCNN"}`))
	f.Add([]byte(`{"glb_kb": -1}`))
	f.Add([]byte(`{"model": "TinyCNN", "glb_kb": 9223372036854775807}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(``))
	f.Add([]byte(`[]`))
	f.Add([]byte(" \n\t{ \"model\" :\t\"TinyCNN\" ,\n \"glb_kb\" : 32 }\r\n "))
	f.Add([]byte(`{"model": "TinyCNN", "glb_kb": 32}{"model": "AlexNet"} trailing`))
	f.Add([]byte(`{"model": "TinyCNN", "glb_kb": 32, "unknown_field": 1}`))
	newServer := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		// A fresh server per input makes the first send a memo miss, and
		// keeps what an input covers independent of the inputs before it,
		// which the fuzzer's minimizer relies on.
		srv := newServer()
		first := fuzzBody(t, srv, "/v1/plan", body)
		again := fuzzBody(t, srv, "/v1/plan", body)
		if again.Code != first.Code ||
			again.Header().Get("X-SMM-Plan-Key") != first.Header().Get("X-SMM-Plan-Key") ||
			!bytes.Equal(again.Body.Bytes(), first.Body.Bytes()) {
			t.Errorf("body %q answered differently the second time: %d %q, then %d %q",
				body, first.Code, first.Body.Bytes(), again.Code, again.Body.Bytes())
		}
	})
}

// FuzzSimulateRequest: same contract for the /v1/simulate decoder,
// including its baseline branch.
func FuzzSimulateRequest(f *testing.F) {
	f.Add([]byte(`{"model": "TinyCNN", "glb_kb": 32}`))
	f.Add([]byte(`{"model": "TinyCNN", "glb_kb": 32, "baseline": {"split_percent": 50}}`))
	f.Add([]byte(`{"model": "TinyCNN", "glb_kb": 32, "baseline": {"split_percent": 33}}`))
	f.Add([]byte(`{"model": "TinyCNN", "glb_kb": 32, "baseline": null}`))
	f.Add([]byte(`{"baseline": {"split_percent": 50}}`))
	f.Add([]byte(`{"model": "TinyCNN", "glb_kb": 32, "unknown_field": 1}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`0`))
	srv := fuzzServer(f)()
	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzBody(t, srv, "/v1/simulate", body)
	})
}
