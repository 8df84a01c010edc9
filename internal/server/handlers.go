package server

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	scratchmem "scratchmem"
	"scratchmem/internal/cluster"
	"scratchmem/internal/core"
	"scratchmem/internal/engine"
	"scratchmem/internal/faultinject"
	"scratchmem/internal/model"
	"scratchmem/internal/obs"
	"scratchmem/internal/parallel"
	"scratchmem/internal/smmerr"
	"scratchmem/internal/trace"
)

// maxBodyBytes bounds request bodies; the largest builtin network is a few
// kilobytes of JSON, so 8 MiB leaves generous headroom for custom models.
const maxBodyBytes = 8 << 20

// PlanRequest is the body of POST /v1/plan (and the common half of
// /v1/simulate and /v1/dse). Exactly one of Model (a builtin name) or
// Network (an inline network in the scratchmem JSON format) selects the
// workload; GLBKiloBytes or Config selects the accelerator.
type PlanRequest struct {
	Model           string                `json:"model,omitempty"`
	Network         json.RawMessage       `json:"network,omitempty"`
	GLBKiloBytes    int                   `json:"glb_kb,omitempty"`
	Config          *scratchmem.ConfigDoc `json:"config,omitempty"`
	Objective       string                `json:"objective,omitempty"` // "accesses" (default) or "latency"
	Homogeneous     bool                  `json:"homogeneous,omitempty"`
	DisablePrefetch bool                  `json:"disable_prefetch,omitempty"`
	InterLayerReuse bool                  `json:"interlayer,omitempty"`
	// Strict disables the degradation ladder: an infeasible request gets
	// the historical 422 instead of a 200 with a degraded fallback plan.
	Strict bool `json:"strict,omitempty"`
}

// SimulateRequest selects plan simulation (default) or, with Baseline set,
// the SCALE-Sim-style separate-buffer baseline.
type SimulateRequest struct {
	PlanRequest
	Baseline *BaselineSpec `json:"baseline,omitempty"`
}

// BaselineSpec names one of the paper's fixed-partition baselines by its
// ifmap share of GLB − 4 kB (25, 50 or 75).
type BaselineSpec struct {
	SplitPercent int `json:"split_percent"`
}

// SimulateResponse answers a plan simulation.
type SimulateResponse struct {
	Model           string `json:"model"`
	PlanKey         string `json:"plan_key"`
	MeasuredCycles  int64  `json:"measured_cycles"`
	EstimatedCycles int64  `json:"estimated_cycles"`
}

// BaselineResponse answers a baseline simulation.
type BaselineResponse struct {
	Model     string `json:"model"`
	Baseline  string `json:"baseline"`
	Cycles    int64  `json:"cycles"`
	DRAMElems int64  `json:"dram_elems"`
}

// DSEResponse answers POST /v1/dse.
type DSEResponse struct {
	Model       string `json:"model"`
	AccessElems int64  `json:"access_elems"`
	Feasible    bool   `json:"feasible"`
}

// ModelInfo is one row of GET /v1/models.
type ModelInfo struct {
	Name   string `json:"name"`
	Layers int    `json:"layers"`
}

// errorResponse is the JSON error envelope.
type errorResponse struct {
	Error string `json:"error"`
}

// badRequestf marks client errors discovered while resolving a request;
// they carry smmerr.ErrBadModel so fail maps them to 400.
func badRequestf(format string, args ...any) error {
	return smmerr.BadModelf(format, args...)
}

// planEntry is the cached value for one plan key: the rendered document,
// which every hit answers byte for byte, and the network (a "model"
// request's shared builtin) and options it was planned from, which GET
// /v1/cache/snapshot writes into a restorable record. The plan graph is
// not kept: only /v1/simulate and /v1/trace need one, and they rebuild it
// from the document in their own flights (planEntry.graph). A degraded
// plan is the exception: its fallback rung is not decision-reproducible,
// so degraded keeps its graph (nil for every other plan). Degraded plans
// are rare, computed by this member and never snapshotted.
type planEntry struct {
	body     []byte
	net      *scratchmem.Network
	opts     scratchmem.PlanOptions
	degraded *scratchmem.Plan
}

// resolvedBody is everything /v1/plan derives from one request body before
// it touches the plan cache. It is a pure function of the body bytes, so
// the server memoizes it under their SHA-256 digest (Server.resolved). A
// memoized value is shared by every request with the same body and by
// every re-plan after an eviction or invalidation, so nothing may mutate
// it: the planner and the document seam only read net.
type resolvedBody struct {
	digest string // raw SHA-256 of the body, the memo key
	planInput
}

// resolveBody reads a /v1/plan body and resolves it. On a memo hit
// (memoized) it returns the stored resolution; on a miss it runs the
// ingest seam. The handler stores a miss through writePlan once it has
// answered with a plan, so errors never enter the memo.
func (s *Server) resolveBody(w http.ResponseWriter, r *http.Request) (res *resolvedBody, memoized bool, err error) {
	body, err := readBody(w, r)
	if err != nil {
		return nil, false, err
	}
	sum := sha256.Sum256(body)
	if v, ok := s.resolved.Get(string(sum[:])); ok {
		return v.(*resolvedBody), true, nil
	}
	res = &resolvedBody{digest: string(sum[:])}
	if err := ingest(&res.planInput, body, planBody); err != nil {
		return nil, false, err
	}
	return res, false, nil
}

// writePlan answers a resolved body with its plan document, then memoizes a
// fresh resolution: the memo only ever holds bodies that earned a plan.
func (s *Server) writePlan(w http.ResponseWriter, res *resolvedBody, memoized bool, entry *planEntry, shared bool) {
	cacheHeader(w, shared)
	w.Header().Set("X-SMM-Plan-Key", res.key)
	w.Header().Set("Content-Type", "application/json")
	w.Write(entry.body)
	if !memoized {
		s.resolved.Put(res.digest, res)
	}
}

// requestCtx applies the server's per-request deadline.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), s.cfg.Timeout)
}

// writeError emits the JSON error envelope and counts it.
func (s *Server) writeError(w http.ResponseWriter, code int, msg string) {
	s.met.error(code)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorResponse{Error: msg})
}

// statusClientClosedRequest is nginx's non-standard code for a caller that
// went away before the response was ready; we count it apart from genuine
// deadline expiry (504) so the metrics distinguish "we were slow" from
// "they hung up".
const statusClientClosedRequest = 499

// shedRetryAfterSeconds is the Retry-After hint on every 503: both shed
// (queue full) and circuit-open responses clear quickly, so clients should
// come back almost immediately rather than waiting a whole backoff tier.
const shedRetryAfterSeconds = "1"

// writeShed emits the 503 + Retry-After envelope for load shedding and
// open circuit breakers.
func (s *Server) writeShed(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", shedRetryAfterSeconds)
	s.writeError(w, http.StatusServiceUnavailable, msg)
}

// statusOf maps an error from resolving or computing to an HTTP status and
// message. The dispatch is purely on the typed taxonomy (errors.Is/As
// through however many LayerError wrappers), never on message text. It is
// pure so the batch handler can classify per-item errors without touching
// response headers or counters.
func statusOf(err error) (code int, msg string) {
	var infeasible *scratchmem.InfeasibleError
	switch {
	case errors.Is(err, parallel.ErrShed):
		return http.StatusServiceUnavailable, "worker queue full, retry later"
	case faultinject.IsInjected(err):
		// Injected faults model transient internal failures: advertise
		// them as retryable 503s, never as bare 500s.
		return http.StatusServiceUnavailable, err.Error()
	case errors.Is(err, scratchmem.ErrBadModel):
		return http.StatusBadRequest, err.Error()
	case errors.As(err, &infeasible), errors.Is(err, scratchmem.ErrInfeasible):
		return http.StatusUnprocessableEntity, err.Error()
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "request deadline exceeded"
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest, "client closed request"
	default:
		return http.StatusInternalServerError, err.Error()
	}
}

// fail writes the mapped error response and records its counters.
func (s *Server) fail(w http.ResponseWriter, err error) {
	code, msg := statusOf(err)
	if errors.Is(err, parallel.ErrShed) {
		s.met.shedRequest()
	}
	if code == http.StatusServiceUnavailable {
		s.writeShed(w, msg)
		return
	}
	s.writeError(w, code, msg)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// cacheHeader reports how the response was produced.
func cacheHeader(w http.ResponseWriter, shared bool) {
	if shared {
		w.Header().Set("X-SMM-Cache", "hit")
	} else {
		w.Header().Set("X-SMM-Cache", "miss")
	}
}

// planned returns the cached-or-computed planEntry for a request. It is the
// shared path of /v1/plan, /v1/plan/batch and /v1/simulate: one plan-cache
// flight per key, which plans under a worker slot. A fleet member plans its
// own misses too: the analyser's closed-form estimates make planning a key
// about as cheap as verifying a copy another member sent. A non-nil tables
// is the sweep-table set of the request's batch, which the flight plans
// through. shared reports a plan this member did not compute for this
// caller: a stored plan or a coalesced flight.
func (s *Server) planned(ctx context.Context, key string, tables *core.SweepTables, net *scratchmem.Network, opts scratchmem.PlanOptions) (*planEntry, bool, error) {
	v, shared, err := s.local.Do(ctx, "plan:"+key, func(ctx context.Context) (any, error) {
		if err := s.sem.Acquire(ctx); err != nil {
			return nil, err
		}
		defer s.sem.Release()
		if tables != nil {
			ctx = core.WithSweepTables(ctx, tables)
		}
		start := time.Now()
		p, err := s.planFn(ctx, net, opts)
		s.met.observePlanner(time.Since(start))
		if err != nil {
			return nil, err
		}
		if p.Degraded {
			s.met.degradedPlan()
			obs.LoggerFrom(ctx).Warn("plan degraded", "model", net.Name, "mode", p.DegradedMode)
		}
		// Freshly computed only: cache hits must not re-count the plan's
		// policy choices or planned DRAM traffic.
		s.met.planOutcome(p)
		body, err := scratchmem.PlanDocument(p).MarshalIndent()
		if err != nil {
			return nil, err
		}
		pe := &planEntry{body: body, net: net, opts: opts}
		if p.Degraded {
			pe.degraded = p
		}
		return pe, nil
	})
	if err != nil {
		return nil, false, err
	}
	return v.(*planEntry), shared, nil
}

// graph returns the plan graph of a cached entry, for the simulate and
// trace flights, which call it under the worker slot they already hold. A
// document is rebuilt from its own decisions
// (scratchmem.VerifyPlanDocument), so a restored one is simulated and
// traced exactly as it reads; a degraded entry returns the graph it kept.
// Neither is a fresh plan, so neither counts in the planner metrics.
func (pe *planEntry) graph() (*scratchmem.Plan, error) {
	if pe.degraded != nil {
		return pe.degraded, nil
	}
	p, _, err := scratchmem.VerifyPlanDocument(pe.net, pe.body)
	return p, err
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	res, memoized, err := s.resolveBody(w, r)
	if err != nil {
		s.fail(w, err)
		return
	}
	span := obs.SpanFrom(r.Context())
	span.SetAttr("model_hash", res.key)
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	entry, shared, err := s.planned(ctx, res.key, nil, res.net, res.opts)
	if err != nil {
		s.fail(w, err)
		return
	}
	if entry.degraded != nil {
		span.SetAttr("degraded_mode", entry.degraded.DegradedMode)
	}
	s.writePlan(w, res, memoized, entry, shared)
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var in planInput
	if err := ingestRequest(w, r, &in, simulateBody); err != nil {
		s.fail(w, err)
		return
	}
	net, opts, key := in.net, in.opts, in.key
	obs.SpanFrom(r.Context()).SetAttr("model_hash", key)
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	if in.baseline != nil {
		s.simulateBaseline(ctx, w, key, net, opts, in.baseline)
		return
	}
	// Plan first (cached under its own key), then time it: the simulation
	// flight rebuilds the plan graph from the entry under its worker slot,
	// and its result is cached, so a key pays for one rebuild.
	entry, _, err := s.planned(ctx, key, nil, net, opts)
	if err != nil {
		s.fail(w, err)
		return
	}
	if p := entry.degraded; p != nil && !p.Feasible() {
		// A degraded baseline plan can exceed the GLB (it reports the
		// shortfall honestly); the executor would reject its schedule, so
		// classify here instead of surfacing an opaque engine error.
		s.fail(w, fmt.Errorf("plan for %s needs %d bytes of GLB but only %d are available, cannot simulate: %w",
			net.Name, p.MaxMemoryBytes(), p.Cfg.GLBBytes, scratchmem.ErrInfeasible))
		return
	}
	v, shared, err := s.local.Do(ctx, "sim:"+key, func(ctx context.Context) (any, error) {
		if err := s.sem.Acquire(ctx); err != nil {
			return nil, err
		}
		defer s.sem.Release()
		p, err := entry.graph()
		if err != nil {
			return nil, err
		}
		measured, estimated, err := s.simFn(ctx, p)
		if err != nil {
			return nil, err
		}
		return &SimulateResponse{
			Model:           net.Name,
			PlanKey:         key,
			MeasuredCycles:  measured,
			EstimatedCycles: estimated,
		}, nil
	})
	if err != nil {
		s.fail(w, err)
		return
	}
	cacheHeader(w, shared)
	writeJSON(w, v)
}

// simulateBaseline runs the separate-buffer SCALE-Sim-style baseline.
func (s *Server) simulateBaseline(ctx context.Context, w http.ResponseWriter, key string, net *scratchmem.Network, opts scratchmem.PlanOptions, spec *BaselineSpec) {
	cfg := opts.Config
	glbKB := int(cfg.GLBBytes / 1024)
	var idx int
	switch spec.SplitPercent {
	case 25:
		idx = 0
	case 50:
		idx = 1
	case 75:
		idx = 2
	default:
		s.fail(w, badRequestf("baseline split_percent must be 25, 50 or 75, got %d", spec.SplitPercent))
		return
	}
	base := scratchmem.BaselineSplits(glbKB, cfg.DataWidthBits)[idx]
	cacheKey := fmt.Sprintf("base:%s:%d", key, spec.SplitPercent)
	v, shared, err := s.local.Do(ctx, cacheKey, func(ctx context.Context) (any, error) {
		if err := s.sem.Acquire(ctx); err != nil {
			return nil, err
		}
		defer s.sem.Release()
		res, err := scratchmem.SimulateBaselineCtx(ctx, net, base, nil)
		if err != nil {
			return nil, err
		}
		return &BaselineResponse{
			Model:     net.Name,
			Baseline:  base.Name,
			Cycles:    res.Cycles(),
			DRAMElems: res.DRAMTotal(),
		}, nil
	})
	if err != nil {
		s.fail(w, err)
		return
	}
	cacheHeader(w, shared)
	writeJSON(w, v)
}

func (s *Server) handleDSE(w http.ResponseWriter, r *http.Request) {
	var in planInput
	if err := ingestRequest(w, r, &in, dseBody); err != nil {
		s.fail(w, err)
		return
	}
	net, opts, key := in.net, in.opts, in.key
	obs.SpanFrom(r.Context()).SetAttr("model_hash", key)
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	v, shared, err := s.local.Do(ctx, "dse:"+key, func(ctx context.Context) (any, error) {
		if err := s.sem.Acquire(ctx); err != nil {
			return nil, err
		}
		defer s.sem.Release()
		elems, feasible, err := scratchmem.DSEAccessElemsCtx(ctx, net, opts.Config, nil)
		if err != nil {
			return nil, err
		}
		return &DSEResponse{Model: net.Name, AccessElems: elems, Feasible: feasible}, nil
	})
	if err != nil {
		s.fail(w, err)
		return
	}
	cacheHeader(w, shared)
	writeJSON(w, v)
}

// servedModels are the networks /v1/models advertises: every builtin, the
// same list an unknown "model" is answered with.
var servedModels = model.AllBuiltinNames()

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	infos := make([]ModelInfo, 0, len(servedModels))
	for _, name := range servedModels {
		n, _, err := model.SharedBuiltin(name)
		if err != nil {
			s.fail(w, err)
			return
		}
		infos = append(infos, ModelInfo{Name: n.Name, Layers: len(n.Layers)})
	}
	writeJSON(w, infos)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var health []cluster.MemberHealth
	if s.fleet != nil {
		// The serving member never probes itself, so prepend it explicitly
		// (alive by construction — it is answering this scrape): one scrape
		// then counts the expected fleet size, not fleet size minus one.
		health = append([]cluster.MemberHealth{{Member: s.fleet.Self, Alive: true}}, s.fleet.Health.View()...)
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.met.write(w, s.local.Stats(), s.resolved.Stats(), health, s.sem.InUse(), s.sem.Cap(), s.tracer.Finished())
}

// handleTrace renders the execution trace of an already-planned model:
// plan first (POST /v1/plan returns the key in X-SMM-Plan-Key), then GET
// /v1/trace/{key}?format=perfetto|csv. The event stream is computed once
// per key, in a flight that rebuilds the plan graph from the cached entry
// and dry-runs every layer's tile schedule, and is cached alongside the
// plan, so repeat downloads are a lookup.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	obs.SpanFrom(r.Context()).SetAttr("model_hash", key)
	format := r.URL.Query().Get("format")
	switch format {
	case "", "perfetto", "csv":
	default:
		s.fail(w, badRequestf("unknown format %q (want perfetto or csv)", format))
		return
	}
	// Contains first: a lookup that computes nothing is no plan-cache miss.
	var v any
	ok := s.local.Contains("plan:" + key)
	if ok {
		v, ok = s.local.Get("plan:" + key)
	}
	if !ok {
		s.writeError(w, http.StatusNotFound, "no cached plan for key "+key+"; POST /v1/plan first")
		return
	}
	entry := v.(*planEntry)
	if p := entry.degraded; p != nil && !p.Feasible() {
		s.fail(w, fmt.Errorf("plan for %s needs %d bytes of GLB but only %d are available, cannot trace: %w",
			p.Model, p.MaxMemoryBytes(), p.Cfg.GLBBytes, scratchmem.ErrInfeasible))
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	tv, shared, err := s.local.Do(ctx, "trace:"+key, func(ctx context.Context) (any, error) {
		if err := s.sem.Acquire(ctx); err != nil {
			return nil, err
		}
		defer s.sem.Release()
		p, err := entry.graph()
		if err != nil {
			return nil, err
		}
		return traceLog(ctx, p)
	})
	if err != nil {
		s.fail(w, err)
		return
	}
	log := tv.(*trace.Log)
	cacheHeader(w, shared)
	if format == "csv" {
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		log.WriteCSV(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	obs.WriteChromeTrace(w, log, entry.opts.Config)
}

// traceLog executes a plan's tile schedules in dry-run mode, collecting the
// network-wide DMA/compute event stream.
func traceLog(ctx context.Context, p *scratchmem.Plan) (*trace.Log, error) {
	log := &trace.Log{}
	for i := range p.Layers {
		lp := &p.Layers[i]
		if _, err := engine.DryRunCtx(ctx, &lp.Layer, &lp.Est, p.Cfg, log); err != nil {
			return nil, err
		}
	}
	return log, nil
}

// handleSpans renders the tracer's retained finished spans as a Perfetto
// timeline: one row per trace, span events as instant marks.
func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	obs.WriteChromeSpans(w, s.tracer.Spans())
}
