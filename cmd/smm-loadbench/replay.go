package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	scratchmem "scratchmem"
	"scratchmem/internal/obs"
	"scratchmem/internal/server"
)

// The traced replay re-runs a workload's check requests in this process,
// one at a time, calling the public functions in the order the server's
// handler calls them and timing each call as a span. Spans are recorded
// here, around the calls, so the replay needs nothing from the server's
// own tracing.

// span is one timed call of the replay.
type span struct {
	name       string
	parent     int // id of the enclosing span; 0 for a request
	start, end time.Duration
}

// spanRecorder holds the replay's spans in memory; ids are index+1.
type spanRecorder struct {
	epoch time.Time
	spans []span
}

func (r *spanRecorder) now() time.Duration { return time.Since(r.epoch) }

func (r *spanRecorder) begin(name string, parent int) int {
	r.spans = append(r.spans, span{name: name, parent: parent, start: r.now()})
	return len(r.spans)
}

func (r *spanRecorder) end(id int) {
	r.spans[id-1].end = r.now()
}

// chrome renders the spans as a Chrome trace-event document.
func (r *spanRecorder) chrome() *obs.ChromeDoc {
	doc := &obs.ChromeDoc{DisplayTimeUnit: "ms", TraceEvents: make([]obs.TraceEvent, 0, len(r.spans))}
	for i, s := range r.spans {
		args := map[string]any{"id": i + 1}
		if s.parent != 0 {
			args["parent"] = s.parent
		}
		doc.TraceEvents = append(doc.TraceEvents, obs.TraceEvent{
			Name: s.name, Ph: "X", PID: 1, TID: 1, Args: args,
			TS:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
		})
	}
	return doc
}

// Replay stage spans, in handler order.
const (
	spanRequest   = "request"
	spanDecode    = "server.decode"
	spanResolve   = "model.resolve"
	spanKey       = "scratchmem.plankey"
	spanPlan      = "scratchmem.plan_fresh"
	spanRender    = "scratchmem.render"
	spanRehydrate = "scratchmem.rehydrate"
)

// layerTypes are the network layer types, in the paper's order.
var layerTypes = []string{"CV", "DW", "PW", "FC", "PL"}

// replayStats accumulates what the replay measured.
type replayStats struct {
	plans      int
	rehydrated int
	stage      map[string]time.Duration
	self       time.Duration            // request time outside every stage
	layerTime  map[string]time.Duration // per layer type, inside plan_fresh
	slowest    []time.Duration          // per plan, its slowest layer
}

// replay runs the workload's check requests through the traced pass.
func replay(ctx context.Context, w *workload, bases []*baseNet) (*replayStats, *spanRecorder, error) {
	rec := &spanRecorder{epoch: time.Now()}
	st := &replayStats{stage: make(map[string]time.Duration), layerTime: make(map[string]time.Duration)}
	for _, i := range w.checks {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		r := &w.reqs[i]
		body := r.appendBody(nil, bases)
		root := rec.begin(spanRequest, 0)
		first := len(rec.spans)
		var items []server.PlanRequest
		id := rec.begin(spanDecode, root)
		var err error
		if r.batch {
			var br server.BatchRequest
			err = decodeStrict(body, &br)
			items = br.Requests
		} else {
			items = make([]server.PlanRequest, 1)
			err = decodeStrict(body, &items[0])
		}
		rec.end(id)
		if err != nil {
			return nil, nil, fmt.Errorf("%s request %d: %w", w.name, i, err)
		}
		for k := range items {
			if err := replayPlan(ctx, rec, root, &items[k], st); err != nil {
				return nil, nil, fmt.Errorf("%s request %d item %d: %w", w.name, i, k, err)
			}
		}
		rec.end(root)
		rs := rec.spans[root-1]
		st.self += rs.end - rs.start
		for _, s := range rec.spans[first:] {
			if s.parent == root {
				st.stage[s.name] += s.end - s.start
				st.self -= s.end - s.start
			}
		}
	}
	return st, rec, nil
}

// replayPlan replays one plan request's stages after the body decode.
func replayPlan(ctx context.Context, rec *spanRecorder, root int, pr *server.PlanRequest, st *replayStats) error {
	id := rec.begin(spanResolve, root)
	net, opts, err := resolve(pr)
	rec.end(id)
	if err != nil {
		return err
	}
	id = rec.begin(spanKey, root)
	_, err = scratchmem.PlanKey(net, opts)
	rec.end(id)
	if err != nil {
		return err
	}
	// Each progress event closes one layer's interval. Homogeneous plans
	// interleave their candidate variants' events, so there a layer's
	// interval is its share of the concurrent variant passes.
	planID := rec.begin(spanPlan, root)
	last := rec.now()
	var slowest time.Duration
	prog := func(ev scratchmem.ProgressEvent) {
		if ev.Phase != "plan" {
			return
		}
		now := rec.now()
		kind := "?"
		if ev.Index >= 0 && ev.Index < len(net.Layers) {
			kind = net.Layers[ev.Index].Kind.String()
		}
		rec.spans = append(rec.spans, span{name: kind + " " + ev.Name, parent: planID, start: last, end: now})
		st.layerTime[kind] += now - last
		slowest = max(slowest, now-last)
		last = now
	}
	p, err := scratchmem.PlanModelCtx(ctx, net, opts, prog)
	rec.end(planID)
	if err != nil {
		return err
	}
	st.plans++
	st.slowest = append(st.slowest, slowest)
	id = rec.begin(spanRender, root)
	doc, err := scratchmem.PlanDocument(p).MarshalIndent()
	rec.end(id)
	if err != nil {
		return err
	}
	// Degraded documents are never rehydrated: a fleet recomputes them.
	if p.Degraded {
		return nil
	}
	id = rec.begin(spanRehydrate, root)
	var pd scratchmem.PlanDoc
	if err = json.Unmarshal(doc, &pd); err == nil {
		_, err = scratchmem.RehydratePlan(net, &pd)
	}
	rec.end(id)
	if err != nil {
		return err
	}
	st.rehydrated++
	return nil
}

// metrics turns the replay's totals into its per-layer metrics.
func (st *replayStats) metrics() map[string]float64 {
	us := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / 1e3 / float64(n)
	}
	m := map[string]float64{
		"server.decode_us":         us(st.stage[spanDecode], st.plans),
		"model.resolve_us":         us(st.stage[spanResolve], st.plans),
		"scratchmem.plankey_us":    us(st.stage[spanKey], st.plans),
		"scratchmem.plan_fresh_us": us(st.stage[spanPlan], st.plans),
		"scratchmem.render_us":     us(st.stage[spanRender], st.plans),
		"scratchmem.rehydrate_us":  us(st.stage[spanRehydrate], st.rehydrated),
		"replay.unattributed_us":   us(st.self, st.plans),
	}
	var layers time.Duration
	for _, d := range st.layerTime {
		layers += d
	}
	for _, t := range layerTypes {
		m["core.layer_share."+t] = ratio(st.layerTime[t].Seconds(), layers.Seconds())
	}
	sort.Slice(st.slowest, func(i, j int) bool { return st.slowest[i] < st.slowest[j] })
	m["core.slowest_layer_us"] = us(percentile(st.slowest, 0.5), 1)
	return m
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
