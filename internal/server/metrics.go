package server

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	scratchmem "scratchmem"
	"scratchmem/internal/cluster"
	"scratchmem/internal/obs"
	"scratchmem/internal/plancache"
	"scratchmem/internal/policy"
)

// plannerBuckets are the latency-histogram upper bounds in seconds, shared
// by the planner-execution histogram and the span-derived phase histograms.
var plannerBuckets = []float64{0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10}

// phaseNames are the span-derived latency phases: planner execution,
// simulator execution, and the whole cache interaction (lookup + any wait
// on a shared flight), in the order they render.
var phaseNames = []string{"plan", "simulate", "cache_wait"}

// datatypes label the per-data-type DRAM byte counters.
var datatypes = []string{"ifmap", "filter", "ofmap"}

// histogram is a fixed-bucket latency histogram (plannerBuckets bounds plus
// +Inf overflow), atomic throughout so observation never takes a lock.
type histogram struct {
	bucket []atomic.Int64
	count  atomic.Int64
	nanos  atomic.Int64
}

func newHistogram() *histogram {
	return &histogram{bucket: make([]atomic.Int64, len(plannerBuckets)+1)}
}

func (h *histogram) observe(d time.Duration) {
	i := sort.SearchFloat64s(plannerBuckets, d.Seconds())
	h.bucket[i].Add(1)
	h.count.Add(1)
	h.nanos.Add(int64(d))
}

// write renders the histogram in the Prometheus text convention; labels is
// either empty or a `key="value",` prefix merged into the le label set.
func (h *histogram) write(w io.Writer, name, labels string) {
	var cum int64
	for i, ub := range plannerBuckets {
		cum += h.bucket[i].Load()
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, labels, trimFloat(ub), cum)
	}
	cum += h.bucket[len(plannerBuckets)].Load()
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labels, cum)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %g\n", name, float64(h.nanos.Load())/1e9)
		fmt.Fprintf(w, "%s_count %d\n", name, h.count.Load())
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels[:len(labels)-1], float64(h.nanos.Load())/1e9)
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels[:len(labels)-1], h.count.Load())
	}
}

// metrics holds the server's counters. Everything is atomic so handlers
// never serialise on a metrics lock; every label set is fixed at init so
// rendering needs no allocation discipline.
type metrics struct {
	requests map[string]*atomic.Int64 // per route, fixed key set at init
	errors   map[int]*atomic.Int64    // per status code class (4xx/5xx) and 504
	// otherErrors catches status codes outside the fixed set, so no error
	// response is ever invisible to the counters.
	otherErrors atomic.Int64

	shed        atomic.Int64 // requests shed by the worker-queue bound
	degraded    atomic.Int64 // plans produced by the degradation ladder
	breakerOpen atomic.Int64 // requests fast-failed by an open breaker

	batchCount atomic.Int64 // POST /v1/plan/batch requests
	batchItems atomic.Int64 // plan requests carried inside batches

	// invalidated counts locally applied invalidations (single removes and
	// purges alike), whether initiated here or received from a peer fan-out.
	invalidated atomic.Int64
	// overview counts GET /v1/cluster/overview requests served.
	overview atomic.Int64

	// Planner-deep counters, filled per freshly computed plan.
	policySelected map[string]*atomic.Int64 // per winning policy variant, per layer
	dramBytes      map[string]*atomic.Int64 // per datatype planned off-chip bytes

	planner *histogram            // planner wall time (observePlanner)
	phase   map[string]*histogram // span-derived phase latencies
}

func newMetrics(routes []string) *metrics {
	m := &metrics{
		requests:       make(map[string]*atomic.Int64, len(routes)),
		errors:         map[int]*atomic.Int64{400: {}, 404: {}, 422: {}, 499: {}, 500: {}, 503: {}, 504: {}},
		policySelected: make(map[string]*atomic.Int64),
		dramBytes:      make(map[string]*atomic.Int64, len(datatypes)),
		planner:        newHistogram(),
		phase:          make(map[string]*histogram, len(phaseNames)),
	}
	for _, r := range routes {
		m.requests[r] = &atomic.Int64{}
	}
	for _, v := range policy.ShortVariants() {
		m.policySelected[v] = &atomic.Int64{}
	}
	for _, dt := range datatypes {
		m.dramBytes[dt] = &atomic.Int64{}
	}
	for _, ph := range phaseNames {
		m.phase[ph] = newHistogram()
	}
	return m
}

func (m *metrics) request(route string) {
	if c, ok := m.requests[route]; ok {
		c.Add(1)
	}
}

func (m *metrics) error(code int) {
	if c, ok := m.errors[code]; ok {
		c.Add(1)
		return
	}
	m.otherErrors.Add(1)
}

// shedRequest counts one request rejected by the worker-queue bound.
func (m *metrics) shedRequest() { m.shed.Add(1) }

// degradedPlan counts one plan produced by the degradation ladder.
func (m *metrics) degradedPlan() { m.degraded.Add(1) }

// breakerOpened counts one request fast-failed by an open circuit breaker.
func (m *metrics) breakerOpened() { m.breakerOpen.Add(1) }

// observeBatch records one /v1/plan/batch request of n plan items.
func (m *metrics) observeBatch(n int) {
	m.batchCount.Add(1)
	m.batchItems.Add(int64(n))
}

// invalidatedLocally counts one locally applied invalidation.
func (m *metrics) invalidatedLocally() { m.invalidated.Add(1) }

// overviewRequest counts one merged-overview request.
func (m *metrics) overviewRequest() { m.overview.Add(1) }

// degradedCount reads the degraded-plan counter (the cluster status
// document reports it per member).
func (m *metrics) degradedCount() int64 { return m.degraded.Load() }

// observePlanner records one planner execution's wall time.
func (m *metrics) observePlanner(d time.Duration) { m.planner.observe(d) }

// observeSpan feeds a finished span into the phase histograms; it is the
// tracer's OnFinish hook. The "cache" span covers lookup plus any wait on a
// shared flight, hence its phase label.
func (m *metrics) observeSpan(s *obs.Span) {
	name := s.Name
	if name == "cache" {
		name = "cache_wait"
	}
	if h, ok := m.phase[name]; ok {
		h.observe(s.Duration())
	}
}

// planOutcome records the planner-deep counters for one freshly computed
// plan: which policy variant won each layer, and the off-chip bytes the
// plan moves per data type (the trace totals, by the
// estimator-equals-execution invariant).
func (m *metrics) planOutcome(p *scratchmem.Plan) {
	var ifmap, filter, ofmap int64
	for i := range p.Layers {
		est := &p.Layers[i].Est
		if c, ok := m.policySelected[policy.ShortVariant(est.Policy, est.Opts.Prefetch)]; ok {
			c.Add(1)
		}
		ifmap += p.Cfg.Bytes(est.AccessIfmap)
		filter += p.Cfg.Bytes(est.AccessFilter)
		ofmap += p.Cfg.Bytes(est.AccessOfmap)
	}
	m.dramBytes["ifmap"].Add(ifmap)
	m.dramBytes["filter"].Add(filter)
	m.dramBytes["ofmap"].Add(ofmap)
}

// write renders the counters as plain-text expvar/Prometheus-style lines;
// cs is the plan cache's and rs the resolve memo's, and health is the
// fleet members' liveness (none standalone).
func (m *metrics) write(w io.Writer, cs, rs plancache.Stats, health []cluster.MemberHealth, inflight, workers int, spans int64) {
	routes := make([]string, 0, len(m.requests))
	for r := range m.requests {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	for _, r := range routes {
		fmt.Fprintf(w, "smm_requests_total{path=%q} %d\n", r, m.requests[r].Load())
	}
	codes := make([]int, 0, len(m.errors))
	for c := range m.errors {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	for _, c := range codes {
		fmt.Fprintf(w, "smm_errors_total{code=\"%d\"} %d\n", c, m.errors[c].Load())
	}
	fmt.Fprintf(w, "smm_errors_total{code=\"other\"} %d\n", m.otherErrors.Load())
	fmt.Fprintf(w, "smm_shed_total %d\n", m.shed.Load())
	fmt.Fprintf(w, "smm_degraded_plans_total %d\n", m.degraded.Load())
	fmt.Fprintf(w, "smm_breaker_open_total %d\n", m.breakerOpen.Load())
	variants := make([]string, 0, len(m.policySelected))
	for v := range m.policySelected {
		variants = append(variants, v)
	}
	sort.Strings(variants)
	for _, v := range variants {
		fmt.Fprintf(w, "smm_policy_selected_total{policy=%q} %d\n", v, m.policySelected[v].Load())
	}
	for _, dt := range datatypes {
		fmt.Fprintf(w, "smm_dram_bytes_total{datatype=%q} %d\n", dt, m.dramBytes[dt].Load())
	}
	fmt.Fprintf(w, "smm_invalidate_total %d\n", m.invalidated.Load())
	fmt.Fprintf(w, "smm_overview_requests_total %d\n", m.overview.Load())
	for _, mh := range health {
		alive := 0
		if mh.Alive {
			alive = 1
		}
		fmt.Fprintf(w, "smm_member_health{member=%q} %d\n", mh.Member, alive)
	}
	fmt.Fprintf(w, "smm_batch_size_sum %d\n", m.batchItems.Load())
	fmt.Fprintf(w, "smm_batch_size_count %d\n", m.batchCount.Load())
	fmt.Fprintf(w, "smm_cache_hits_total %d\n", cs.Hits)
	fmt.Fprintf(w, "smm_cache_misses_total %d\n", cs.Misses)
	fmt.Fprintf(w, "smm_cache_coalesced_total %d\n", cs.Coalesced)
	fmt.Fprintf(w, "smm_cache_evictions_total %d\n", cs.Evictions)
	fmt.Fprintf(w, "smm_cache_entries %d\n", cs.Entries)
	fmt.Fprintf(w, "smm_cache_capacity %d\n", cs.Capacity)
	fmt.Fprintf(w, "smm_resolve_memo_hits_total %d\n", rs.Hits)
	fmt.Fprintf(w, "smm_resolve_memo_misses_total %d\n", rs.Misses)
	fmt.Fprintf(w, "smm_inflight_executions %d\n", inflight)
	fmt.Fprintf(w, "smm_worker_slots %d\n", workers)
	fmt.Fprintf(w, "smm_spans_finished_total %d\n", spans)
	m.planner.write(w, "smm_planner_latency_seconds", "")
	for _, ph := range phaseNames {
		m.phase[ph].write(w, "smm_phase_latency_seconds", fmt.Sprintf("phase=%q,", ph))
	}
}

func trimFloat(f float64) string { return fmt.Sprintf("%g", f) }
