package server

import (
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"

	"scratchmem/internal/core"
	"scratchmem/internal/model"
	"scratchmem/internal/obs"
	"scratchmem/internal/parallel"
)

// maxBatchItems bounds one POST /v1/plan/batch. A DSE sweep over every
// builtin model and a generous GLB grid fits comfortably; anything larger
// should be split, or it would monopolise the worker pool for one caller.
const maxBatchItems = 256

// BatchRequest is the body of POST /v1/plan/batch.
type BatchRequest struct {
	Requests []PlanRequest `json:"requests"`
}

// BatchItem is one per-request result inside a BatchResponse, in request
// order. Status carries the HTTP code the same request would have received
// from POST /v1/plan; Plan is the byte-identical document body on 200,
// without its trailing newline.
type BatchItem struct {
	Status  int             `json:"status"`
	PlanKey string          `json:"plan_key,omitempty"`
	Cache   string          `json:"cache,omitempty"` // "hit" or "miss", as X-SMM-Cache
	Plan    json.RawMessage `json:"plan,omitempty"`
	Error   string          `json:"error,omitempty"`
}

// BatchResponse answers POST /v1/plan/batch.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

// handleBatch plans every request in the body concurrently, sharing one
// set of sweep tables, so a layer question any item asks is swept once for
// every item planned under the same knobs. Items succeed and fail
// independently — the response is always 200 with per-item statuses — and
// each item takes the same cache / single-flight path as a lone POST
// /v1/plan, so the returned documents are byte-identical to sequential
// calls.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		s.fail(w, err)
		return
	}
	items, err := ingestBatch(body)
	if err != nil {
		s.fail(w, err)
		return
	}
	s.met.observeBatch(len(items))
	span := obs.SpanFrom(r.Context())
	span.SetAttr("batch_size", len(items))
	ctx, cancel := s.requestCtx(r)
	defer cancel()

	// Batch items are typically dense neighbour sets (DSE sweeps, one-layer
	// mutations) whose layers ask the same questions.
	tables := new(core.SweepTables)
	results := make([]BatchItem, len(items))
	// Fan out across the CPUs; the worker semaphore inside planned still
	// bounds how many planner executions actually run at once, so a big
	// batch queues exactly like a burst of individual requests.
	err = parallel.ForEachCtx(ctx, len(items), runtime.GOMAXPROCS(0), func(ctx context.Context, i int) error {
		in := &items[i]
		if in.err != nil {
			code, msg := statusOf(in.err)
			results[i] = BatchItem{Status: code, Error: msg}
			return nil
		}
		entry, shared, err := s.planned(ctx, in.key, tables, in.net, in.opts)
		if err != nil {
			code, msg := statusOf(err)
			results[i] = BatchItem{Status: code, PlanKey: in.key, Error: msg}
			return nil
		}
		item := BatchItem{Status: http.StatusOK, PlanKey: in.key, Cache: "miss", Plan: entry.body[:len(entry.body)-1]}
		if shared {
			item.Cache = "hit"
		}
		results[i] = item
		return nil
	})
	if err != nil {
		s.fail(w, err)
		return
	}
	writeBatch(w, results)
}

// writeBatch writes a BatchResponse in writeJSON's layout, except that each
// plan is the cached document spliced in verbatim: re-encoding it would
// only compact and re-indent bytes the plan cache already holds, once per
// item of every response.
func writeBatch(w http.ResponseWriter, results []BatchItem) {
	w.Header().Set("Content-Type", "application/json")
	buf := []byte("{\n  \"results\": [\n")
	for i := range results {
		it := &results[i]
		if i > 0 {
			buf = append(buf, ",\n"...)
		}
		buf = append(buf, "    {\n      \"status\": "...)
		buf = strconv.AppendInt(buf, int64(it.Status), 10)
		buf = appendBatchField(buf, "plan_key", it.PlanKey)
		buf = appendBatchField(buf, "cache", it.Cache)
		if len(it.Plan) > 0 {
			buf = append(buf, ",\n      \"plan\": "...)
			if _, err := w.Write(buf); err != nil {
				return
			}
			if _, err := w.Write(it.Plan); err != nil {
				return
			}
			buf = buf[:0]
		}
		buf = appendBatchField(buf, "error", it.Error)
		buf = append(buf, "\n    }"...)
	}
	w.Write(append(buf, "\n  ]\n}\n"...))
}

// appendBatchField appends one omitempty string member of a batch item,
// escaped as json.Marshal escapes it.
func appendBatchField(buf []byte, name, val string) []byte {
	if val == "" {
		return buf
	}
	buf = append(buf, ",\n      \""...)
	buf = append(buf, name...)
	buf = append(buf, "\": "...)
	return model.AppendJSONString(buf, val)
}

// VersionInfo answers GET /v1/version and the smm-serve -version flag.
type VersionInfo struct {
	Module    string `json:"module"`
	Version   string `json:"version"`
	Go        string `json:"go"`
	Revision  string `json:"vcs_revision,omitempty"`
	BuildTime string `json:"vcs_time,omitempty"`
	Modified  bool   `json:"vcs_modified,omitempty"`
}

// Version reports what this binary was built from, via debug/buildinfo.
func Version() VersionInfo {
	v := VersionInfo{Go: runtime.Version(), Version: "(devel)"}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return v
	}
	v.Module = bi.Main.Path
	if bi.Main.Version != "" {
		v.Version = bi.Main.Version
	}
	for _, kv := range bi.Settings {
		switch kv.Key {
		case "vcs.revision":
			v.Revision = kv.Value
		case "vcs.time":
			v.BuildTime = kv.Value
		case "vcs.modified":
			v.Modified = kv.Value == "true"
		}
	}
	return v
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, Version())
}
