package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDef names one metric, its unit and which direction is better.
// Bound is the share of the baseline's median by which a metric may worsen
// before a change counts as a regression; it comes from BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// errorRate is the end-to-end metric BENCHMARK.json cannot carry: it is 0
// on every healthy run, and its bound is 0 (any failure is a regression).
var errorRate = metricDef{Name: "error_rate", Unit: "ratio", Better: "lower"}

// endToEnd lists the end-to-end metrics in print order. Each is measured
// by this process: the client clock, /proc of the servers, the response
// status.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "plans_per_s", Unit: "1/s", Better: "higher"},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower"},
	errorRate,
	{Name: "server_cpu_ms_per_plan", Unit: "ms", Better: "lower"},
	{Name: "server_peak_rss_mb", Unit: "MB", Better: "lower"},
}

// perLayer lists the per-layer metrics in print order: the servers' own
// /metrics counters at the end of a round, then the traced replay.
var perLayer = []metricDef{
	{Name: "core.planner_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "core.planner_runs_per_plan", Unit: "runs/plan", Better: "lower"},
	{Name: "core.planner_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "policy.memo_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "policy.memo_probes_per_run", Unit: "probes/run", Better: "lower"},
	{Name: "plancache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "plancache.evictions_per_plan", Unit: "1/plan", Better: "lower"},
	{Name: "plancache.coalesced_per_plan", Unit: "1/plan", Better: "higher"},
	{Name: "plancache.cache_wait_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "core.splice_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.layers_reused_per_plan", Unit: "layers/plan", Better: "higher"},
	{Name: "cluster.fill_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cluster.fills_per_plan", Unit: "fills/plan", Better: "lower"},
	{Name: "cluster.planner_runs_per_key", Unit: "runs/key", Better: "lower"},
	{Name: "cluster.replicas_received_per_key", Unit: "1/key", Better: "lower"},
	{Name: "parallel.shed", Unit: "count", Better: "lower"},
	{Name: "server.errors", Unit: "count", Better: "lower"},
	{Name: "server.degraded_plans", Unit: "count", Better: "lower"},
	{Name: "server.request_kb", Unit: "kB", Better: "lower"},
	{Name: "server.response_kb", Unit: "kB", Better: "lower"},
	{Name: "server.decode_us", Unit: "us", Better: "lower"},
	{Name: "model.resolve_us", Unit: "us", Better: "lower"},
	{Name: "scratchmem.plankey_us", Unit: "us", Better: "lower"},
	{Name: "scratchmem.plan_fresh_us", Unit: "us", Better: "lower"},
	{Name: "scratchmem.render_us", Unit: "us", Better: "lower"},
	{Name: "scratchmem.rehydrate_us", Unit: "us", Better: "lower"},
	{Name: "replay.unattributed_us", Unit: "us", Better: "lower"},
	{Name: "core.layer_share.CV", Unit: "ratio", Better: "lower"},
	{Name: "core.layer_share.DW", Unit: "ratio", Better: "lower"},
	{Name: "core.layer_share.PW", Unit: "ratio", Better: "lower"},
	{Name: "core.layer_share.FC", Unit: "ratio", Better: "lower"},
	{Name: "core.layer_share.PL", Unit: "ratio", Better: "lower"},
	{Name: "core.slowest_layer_us", Unit: "us", Better: "lower"},
}

// benchmarkFile is the part of BENCHMARK.json this tool reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// bound returns BENCHMARK.json's bound for an end-to-end metric; error_rate
// and anything the file does not list get 0.
func (bf *benchmarkFile) bound(name string) float64 {
	for _, m := range bf.EndToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	return 0
}

// findRoot walks up from dir to the repository root, the directory that
// holds BENCHMARK.json next to cmd/smm-serve.
func findRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := dir; ; d = filepath.Dir(d) {
		if fileExists(filepath.Join(d, "BENCHMARK.json")) && fileExists(filepath.Join(d, "cmd", "smm-serve")) {
			return d, nil
		}
		if filepath.Dir(d) == d {
			return "", fmt.Errorf("no repository root (BENCHMARK.json next to cmd/smm-serve) above %s", dir)
		}
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// roundMetrics derives one round's metrics from what it measured. The
// end-to-end metrics cover the timed window: the load result and the
// servers' CPU time over it (cpu). The per-layer counters cover the
// servers' whole life, warm-up included, as do cpuLife and served: the
// planner runs of hot-hits, whose timed window plans nothing, are those of
// its warm-up.
func roundMetrics(w *workload, res *loadResult, chk checkResult, cpu, cpuLife time.Duration, rssKB int64, c map[string]float64) map[string]float64 {
	sum := func(prefix string) float64 {
		var s float64
		for k, v := range c {
			if strings.HasPrefix(k, prefix) {
				s += v
			}
		}
		return s
	}
	plans := float64(res.delivered)
	served := plans + float64(len(w.warm)) // every warm-up request is one plan
	runs := c["smm_planner_latency_seconds_count"]
	memo := c["smm_estimate_memo_hits_total"] + c["smm_estimate_memo_misses_total"]
	lookups := c["smm_cache_hits_total"] + c["smm_cache_misses_total"] + c["smm_cache_coalesced_total"]
	spliced := c[`smm_incremental_plans_total{outcome="spliced"}`]
	fills := 0.0
	for _, o := range []string{"hit", "error", "bad", "open", "dead"} {
		fills += c[`smm_peer_fill_total{outcome="`+o+`"}`]
	}
	return map[string]float64{
		"plans_per_s":            ratio(plans, res.wall.Seconds()),
		"latency_p50_ms":         ms(percentile(res.latency, 0.50)),
		"latency_p99_ms":         ms(percentile(res.latency, 0.99)),
		"error_rate":             ratio(float64(res.failed()+chk.mismatches), float64(res.attempted)),
		"server_cpu_ms_per_plan": ratio(ms(cpu), plans),
		"server_peak_rss_mb":     float64(rssKB) / 1024,

		"core.planner_ms_mean":              ratio(1e3*c["smm_planner_latency_seconds_sum"], runs),
		"core.planner_runs_per_plan":        ratio(runs, served),
		"core.planner_cpu_share":            ratio(c["smm_planner_latency_seconds_sum"], cpuLife.Seconds()),
		"policy.memo_hit_ratio":             ratio(c["smm_estimate_memo_hits_total"], memo),
		"policy.memo_probes_per_run":        ratio(memo, runs),
		"plancache.hit_ratio":               ratio(c["smm_cache_hits_total"], lookups),
		"plancache.evictions_per_plan":      ratio(c["smm_cache_evictions_total"], served),
		"plancache.coalesced_per_plan":      ratio(c["smm_cache_coalesced_total"], served),
		"plancache.cache_wait_ms_mean":      ratio(1e3*c[`smm_phase_latency_seconds_sum{phase="cache_wait"}`], c[`smm_phase_latency_seconds_count{phase="cache_wait"}`]),
		"core.splice_ratio":                 ratio(spliced, spliced+c[`smm_incremental_plans_total{outcome="full"}`]),
		"core.layers_reused_per_plan":       ratio(c["smm_incremental_layers_reused_total"], served),
		"cluster.fill_hit_ratio":            ratio(c[`smm_peer_fill_total{outcome="hit"}`], fills),
		"cluster.fills_per_plan":            ratio(fills, served),
		"cluster.planner_runs_per_key":      ratio(runs, float64(w.keys)),
		"cluster.replicas_received_per_key": ratio(c[`smm_replicate_total{outcome="received"}`], float64(w.keys)),
		"parallel.shed":                     c["smm_shed_total"],
		"server.errors":                     sum("smm_errors_total{"),
		"server.degraded_plans":             c["smm_degraded_plans_total"],
		"server.request_kb":                 ratio(float64(res.reqBytes)/1024, float64(res.attempted)),
		"server.response_kb":                ratio(float64(res.respBytes)/1024, plans),
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// stat summarises one metric over a workload's rounds.
type stat struct {
	Value  float64   `json:"value"` // the median round
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Unit   string    `json:"unit"`
	Rounds []float64 `json:"rounds"`
}

func summarise(values []float64, unit string) stat {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return stat{Value: median(s), Min: s[0], Max: s[len(s)-1], Unit: unit, Rounds: values}
}

// median of sorted values; the mean of the middle two for an even count.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}
