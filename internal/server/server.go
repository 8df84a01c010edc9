// Package server exposes the planner, simulators and design-space search
// as a JSON-over-HTTP service ("planning as a service"). Planning is a
// pure function of (network, accelerator config, options), so results are
// kept in a content-addressed LRU (internal/plancache) keyed by
// scratchmem.PlanKey: repeated requests become a map lookup, and
// concurrent identical requests collapse onto a single planner execution
// (single-flight). Heavy executions are bounded by a counting semaphore
// (internal/parallel), every request carries a deadline, and the handler
// set is stdlib-only.
//
// Routes:
//
//	POST /v1/plan           — run the analyser (paper Algorithm 1), return a PlanDoc
//	POST /v1/plan/batch     — plan many requests in one round trip
//	POST /v1/simulate       — time a plan end-to-end, or run the SCALE-Sim baseline
//	POST /v1/dse            — exhaustive tile-size search (off-chip traffic optimum)
//	GET  /v1/cache/snapshot — stream the cached plans for warm restore (-warm-from)
//	DELETE /v1/cache/{key}  — invalidate one plan key, fanned out fleet-wide
//	POST /v1/cache/purge    — empty the plan cache, fanned out fleet-wide
//	GET  /v1/cluster/status — this member's liveness view of the fleet
//	GET  /v1/cluster/overview — merged fleet view: every member's status, fanned out and tolerant of dead peers
//	GET  /v1/trace/{key}    — a planned model's execution trace (Perfetto JSON or CSV)
//	GET  /v1/spans          — recent request spans as a Perfetto timeline
//	GET  /v1/models         — list the built-in networks
//	GET  /v1/version        — build/module version info
//	GET  /healthz           — liveness probe
//	GET  /metrics           — plain-text counters (requests, cache, latency histograms)
//
// With -peers configured, several smm-serve processes form one fleet
// (internal/cluster): each member plans its own misses, and the members
// probe each other's liveness, fan invalidations out and merge their
// status into one overview.
//
// Every request runs under a trace span (internal/obs); handlers down the
// stack open child spans (cache, plan, simulate), and the per-request
// structured logger carries the trace ID so one grep connects a log record
// to its spans.
package server

import (
	"context"
	"log/slog"
	"net/http"
	"time"

	scratchmem "scratchmem"
	"scratchmem/internal/breaker"
	"scratchmem/internal/cluster"
	"scratchmem/internal/faultinject"
	"scratchmem/internal/obs"
	"scratchmem/internal/parallel"
	"scratchmem/internal/plancache"
)

// Config parameterises a Server.
type Config struct {
	// Workers caps concurrent planner/simulator/DSE executions
	// (GOMAXPROCS when <= 0). Waiting requests queue on the semaphore
	// until their deadline or the queue bound, whichever comes first.
	Workers int
	// CacheEntries is the plan-cache capacity. 0 selects the default
	// (DefaultCacheEntries); negative disables storage while keeping
	// single-flight deduplication. The resolve memo of /v1/plan bodies
	// gets the same capacity.
	CacheEntries int
	// Timeout is the per-request deadline (DefaultTimeout when <= 0).
	Timeout time.Duration
	// QueueDepth bounds the requests waiting for a worker slot; past the
	// bound the server sheds with 503 + Retry-After instead of letting
	// them camp until their deadline. 0 selects DefaultQueueDepth;
	// negative leaves the queue unbounded.
	QueueDepth int
	// BreakerThreshold is how many consecutive handler panics trip a
	// compute route's circuit breaker to fast-503. 0 selects
	// DefaultBreakerThreshold; negative disables the breakers.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker fast-fails before
	// admitting a half-open probe (DefaultBreakerCooldown when <= 0).
	BreakerCooldown time.Duration
	// Logger receives the access log and request-scoped records (a discard
	// logger when nil, so the server never nil-checks).
	Logger *slog.Logger
	// Tracer collects request spans. When nil the server builds its own
	// retaining DefaultSpanRing finished spans; the phase-latency metrics
	// are derived from its OnFinish hook either way.
	Tracer *obs.Tracer
	// SlowRequest is the threshold past which a completed request is also
	// logged at warn level (0 disables slow-request logging).
	SlowRequest time.Duration
	// Fleet, when non-nil, makes the server a fleet member
	// (cmd/smm-serve builds one from the -peers flag): it fans
	// invalidations out, merges the members' status into the overview and
	// reports its peers' liveness. Nil keeps the single-node behaviour.
	Fleet *cluster.Fleet
}

// Defaults for Config zero values.
const (
	DefaultCacheEntries     = 256
	DefaultTimeout          = 30 * time.Second
	DefaultQueueDepth       = 64
	DefaultBreakerThreshold = breaker.DefaultThreshold
	DefaultBreakerCooldown  = breaker.DefaultCooldown
	// DefaultSpanRing is how many finished spans the server's own tracer
	// retains for GET /v1/spans when Config.Tracer is nil.
	DefaultSpanRing = 256
)

// Server wires the public scratchmem API behind HTTP handlers with a
// shared result cache. Construct with New.
type Server struct {
	cfg Config
	// local is this member's one plan cache. Every route's single-flight,
	// lookups, invalidation, purge, snapshots, warm restore and counters
	// use it.
	local *plancache.Cache
	// resolved is the resolve memo of /v1/plan, keyed by body digest (see
	// resolvedBody). It holds no plan state, so
	// invalidation and purge leave it alone.
	resolved *plancache.Cache
	// fleet is this member's fleet handle (Config.Fleet); nil standalone.
	fleet    *cluster.Fleet
	sem      *parallel.Semaphore
	met      *metrics
	mux      *http.ServeMux
	breakers map[string]*breaker.Breaker // per compute route
	log      *slog.Logger
	tracer   *obs.Tracer

	// planFn runs the planner; a test seam (defaults to
	// scratchmem.PlanModelCtx). The context is the flight's, not any single
	// caller's: it is canceled only when every waiter has abandoned the
	// request, so implementations should honour it to free their worker slot.
	planFn func(context.Context, *scratchmem.Network, scratchmem.PlanOptions) (*scratchmem.Plan, error)
	// simFn times a plan; a test seam (defaults to scratchmem.SimulatePlanCtx).
	simFn func(context.Context, *scratchmem.Plan) (measured, estimated int64, err error)
}

// routes is the fixed set of request-counter labels.
var routes = []string{
	"/v1/plan", "/v1/plan/batch", "/v1/simulate", "/v1/dse", "/v1/trace",
	"/v1/cache/snapshot", "/v1/cache/invalidate", "/v1/cache/purge", "/v1/cluster/status",
	"/v1/cluster/overview", "/v1/spans", "/v1/models", "/v1/version",
	"/healthz", "/metrics",
}

// computeRoutes are the routes that run planner/simulator/DSE work; each
// gets its own circuit breaker, so a panicking planner does not take the
// cheap informational routes down with it. /v1/trace belongs here because
// it dry-runs every layer's tile schedule on a trace-cache miss.
var computeRoutes = []string{"/v1/plan", "/v1/plan/batch", "/v1/simulate", "/v1/dse", "/v1/trace"}

// New builds a Server with its cache, semaphore and handler set.
func New(cfg Config) *Server {
	entries := cfg.CacheEntries
	switch {
	case entries == 0:
		entries = DefaultCacheEntries
	case entries < 0:
		entries = 0
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	queue := cfg.QueueDepth
	if queue == 0 {
		queue = DefaultQueueDepth
	}
	logger := cfg.Logger
	if logger == nil {
		logger = obs.Discard()
	}
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = obs.NewTracer(DefaultSpanRing)
	}
	s := &Server{
		cfg:      cfg,
		local:    plancache.New(entries),
		resolved: plancache.New(entries),
		fleet:    cfg.Fleet,
		sem:      parallel.NewQueuedSemaphore(cfg.Workers, queue),
		met:      newMetrics(routes),
		breakers: make(map[string]*breaker.Breaker, len(computeRoutes)),
		log:      logger,
		tracer:   tracer,
		planFn: func(ctx context.Context, n *scratchmem.Network, o scratchmem.PlanOptions) (*scratchmem.Plan, error) {
			if err := faultinject.Hit("server.plan"); err != nil {
				return nil, err
			}
			return scratchmem.PlanModelCtx(ctx, n, o, nil)
		},
		simFn: func(ctx context.Context, p *scratchmem.Plan) (int64, int64, error) {
			if err := faultinject.Hit("server.simulate"); err != nil {
				return 0, 0, err
			}
			return scratchmem.SimulatePlanCtx(ctx, p, nil)
		},
	}
	for _, route := range computeRoutes {
		s.breakers[route] = breaker.New(cfg.BreakerThreshold, cfg.BreakerCooldown)
	}
	// The phase-latency histograms are derived from finished spans: every
	// plan/simulate/cache span anywhere down the stack lands here.
	s.tracer.OnFinish(s.met.observeSpan)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/plan", s.counted("/v1/plan", s.handlePlan))
	mux.HandleFunc("POST /v1/plan/batch", s.counted("/v1/plan/batch", s.handleBatch))
	mux.HandleFunc("GET /v1/cache/snapshot", s.counted("/v1/cache/snapshot", s.handleSnapshot))
	mux.HandleFunc("DELETE /v1/cache/{key}", s.counted("/v1/cache/invalidate", s.handleInvalidate))
	mux.HandleFunc("POST /v1/cache/purge", s.counted("/v1/cache/purge", s.handlePurge))
	mux.HandleFunc("GET /v1/cluster/status", s.counted("/v1/cluster/status", s.handleClusterStatus))
	mux.HandleFunc("GET /v1/cluster/overview", s.counted("/v1/cluster/overview", s.handleClusterOverview))
	mux.HandleFunc("GET /v1/version", s.counted("/v1/version", s.handleVersion))
	mux.HandleFunc("POST /v1/simulate", s.counted("/v1/simulate", s.handleSimulate))
	mux.HandleFunc("POST /v1/dse", s.counted("/v1/dse", s.handleDSE))
	mux.HandleFunc("GET /v1/trace/{key}", s.counted("/v1/trace", s.handleTrace))
	mux.HandleFunc("GET /v1/spans", s.counted("/v1/spans", s.handleSpans))
	mux.HandleFunc("GET /v1/models", s.counted("/v1/models", s.handleModels))
	mux.HandleFunc("GET /healthz", s.counted("/healthz", s.handleHealthz))
	mux.HandleFunc("GET /metrics", s.counted("/metrics", s.handleMetrics))
	s.mux = mux
	return s
}

// Handler returns the root HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// CacheStats exposes the cache counters (for smm-serve's shutdown log).
func (s *Server) CacheStats() plancache.Stats { return s.local.Stats() }

// counted wraps a handler with its request counter, the route's circuit
// breaker, the request span and access log, and a recover that converts a
// panic escaping the handler into a 500 instead of killing the server.
// Panics in the compute pipeline mostly surface as 500 responses rather
// than handler panics (the plancache flight goroutine recovers them into
// plancache.ErrPanic), so the breaker counts 500s: enough consecutive ones
// trip the route to fast-503 with Retry-After until a half-open probe
// succeeds.
//
// Every request gets a "request" span rooted at the server's tracer and a
// logger stamped with the trace ID; handlers annotate the span (model_hash,
// degraded_mode) and the access-log record reads the annotations back, so
// the log line and the span agree by construction.
func (s *Server) counted(route string, h http.HandlerFunc) http.HandlerFunc {
	br := s.breakers[route] // nil for non-compute routes: always allows
	return func(w http.ResponseWriter, r *http.Request) {
		s.met.request(route)
		start := time.Now()
		rctx := obs.WithTracer(r.Context(), s.tracer)
		// A peer's TraceparentHeader parents this request under the
		// originating request's span, so one cross-node request forms one
		// trace. Extraction is best-effort: a missing or malformed header
		// simply roots a fresh per-process trace.
		if tc := obs.ParseTraceContext(r.Header.Get(obs.TraceparentHeader)); tc.Valid() {
			rctx = obs.WithRemoteParent(rctx, tc)
		}
		ctx, span := obs.StartSpan(rctx, "request")
		span.SetAttr("route", route)
		span.SetAttr("method", r.Method)
		if s.fleet != nil {
			span.SetAttr("member", s.fleet.Self)
		}
		logger := s.log.With("trace_id", span.Trace(), "route", route)
		ctx = obs.WithLogger(ctx, logger)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		rejected := false // breaker fast-fail: not the handler's outcome
		defer func() {
			rec := recover()
			if rec != nil {
				s.writeError(w, http.StatusInternalServerError, "internal error")
				sw.status = http.StatusInternalServerError
			}
			if !rejected {
				if sw.status == http.StatusInternalServerError {
					br.Failure()
				} else {
					br.Success()
				}
			}
			span.SetAttr("status", sw.status)
			span.End()
			d := time.Since(start)
			attrs := []any{"method", r.Method, "status", sw.status, "duration", d}
			if mh := span.Attr("model_hash"); mh != nil {
				attrs = append(attrs, "model_hash", mh)
			}
			if dm := span.Attr("degraded_mode"); dm != nil {
				attrs = append(attrs, "degraded_mode", dm)
			}
			if rec != nil {
				logger.Error("handler panic", append(attrs, "panic", rec)...)
			} else {
				logger.Info("request", attrs...)
			}
			if s.cfg.SlowRequest > 0 && d >= s.cfg.SlowRequest {
				logger.Warn("slow request", "duration", d, "threshold", s.cfg.SlowRequest, "status", sw.status)
			}
		}()
		if !br.Allow() {
			rejected = true
			s.met.breakerOpened()
			s.writeShed(sw, "circuit breaker open for "+route)
			return
		}
		h(sw, r.WithContext(ctx))
	}
}

// statusWriter remembers the response code so counted can feed the
// breaker without threading state through every handler.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}
