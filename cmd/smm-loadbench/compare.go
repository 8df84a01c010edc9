package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

func readResult(path string) (*resultDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc resultDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

func (d *resultDoc) workload(name string) *workloadResult {
	for _, w := range d.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// comparedMetrics are the end-to-end metrics -compare judges, each with
// its BENCHMARK.json bound; error_rate's bound is 0.
func comparedMetrics(bf *benchmarkFile) []metricDef {
	var out []metricDef
	for _, m := range endToEnd {
		m.Bound = bf.bound(m.Name)
		out = append(out, m)
	}
	return out
}

// worsening is b's change relative to a, positive when worse.
func worsening(m metricDef, a, b float64) float64 {
	if a == 0 {
		if (m.Better == "lower" && b > 0) || (m.Better == "higher" && b < 0) {
			return math.Inf(1)
		}
		return 0
	}
	ch := (b - a) / a
	if m.Better == "higher" {
		ch = -ch
	}
	return ch
}

// quartiles returns the first and third quartiles of values as Python's
// statistics.quantiles(values, n=4) computes them; one value is both.
func quartiles(values []float64) (float64, float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	if n == 1 {
		return x[0], x[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - 4*j)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return q(1), q(3)
}

// roundSpread is the distance between the quartiles of a summary's round
// values relative to their median; three rounds spread over their range.
func roundSpread(s stat) float64 {
	if len(s.Rounds) < 2 || s.Value == 0 {
		return 0
	}
	q1, q3 := quartiles(s.Rounds)
	return (q3 - q1) / math.Abs(s.Value)
}

// verdict judges candidate b against baseline a from their rounds. Every
// pairing of a baseline round with a candidate round gives one worsening,
// and their quartiles decide: ok when the upper quartile is within the
// bound, regressed when the lower quartile is past it, unresolved when the
// bound falls between them. So noise wider than the bound leaves a metric
// unresolved unless the candidate reads better throughout.
func verdict(m metricDef, a, b stat) string {
	if m.Bound == 0 { // error_rate: any new failure is a regression
		if b.Max > a.Max {
			return "regressed"
		}
		return "ok"
	}
	var ws []float64
	for _, x := range a.Rounds {
		for _, y := range b.Rounds {
			ws = append(ws, worsening(m, x, y))
		}
	}
	q1, q3 := quartiles(ws)
	switch {
	case q3 <= m.Bound:
		return "ok"
	case q1 > m.Bound:
		return "regressed"
	}
	return "unresolved"
}

// compareFiles prints one verdict per (end-to-end metric, workload) of
// candidate file b against baseline file a, and fails if any regressed.
func compareFiles(out io.Writer, bf *benchmarkFile, aPath, bPath string) error {
	a, err := readResult(aPath)
	if err != nil {
		return err
	}
	b, err := readResult(bPath)
	if err != nil {
		return err
	}
	regressed := 0
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Name)
		if wb == nil {
			fmt.Fprintf(out, "%-14s missing from %s\n", wa.Name, bPath)
			continue
		}
		for _, m := range comparedMetrics(bf) {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			v := verdict(m, sa, sb)
			if v == "regressed" {
				regressed++
			}
			fmt.Fprintf(out, "%-14s %-22s %10.4g -> %10.4g %-6s %+7.1f%%  bound %4.0f%%  spread %5.1f%% / %5.1f%%  %s\n",
				wa.Name, m.Name, sa.Value, sb.Value, m.Unit, 100*worsening(m, sa.Value, sb.Value), 100*m.Bound,
				100*roundSpread(sa), 100*roundSpread(sb), v)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed past their bound", regressed)
	}
	return nil
}

// spreadRow is one (workload, metric) line of the spread table.
type spreadRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Medians  []float64 `json:"medians"` // one per invocation
	// MaxDeviation is the largest |median - median of medians| relative
	// to the median of medians.
	MaxDeviation float64 `json:"max_deviation"`
	// RoundSpread is the widest roundSpread of one invocation.
	RoundSpread float64 `json:"round_spread"`
}

// spreadTable is results/seed-spread.json.
type spreadTable struct {
	Schema      string      `json:"schema"`
	Invocations int         `json:"invocations"`
	Seeds       []uint64    `json:"seeds"`
	GoMaxProcs  int         `json:"gomaxprocs"`
	NumCPU      int         `json:"nproc"`
	Rows        []spreadRow `json:"rows"`
	// Bounds is, per metric, the largest deviation over workloads rounded
	// up to the next 5%.
	Bounds map[string]float64 `json:"bounds"`
}

// spreadFiles prints the spread table of several invocations' result.json.
func spreadFiles(out io.Writer, bf *benchmarkFile, paths []string) error {
	var docs []*resultDoc
	for _, p := range paths {
		d, err := readResult(p)
		if err != nil {
			return err
		}
		docs = append(docs, d)
	}
	t := spreadTable{Schema: "smm-loadbench-spread/v1", Invocations: len(docs),
		GoMaxProcs: docs[0].GoMaxProcs, NumCPU: docs[0].NumCPU, Bounds: make(map[string]float64)}
	for _, d := range docs {
		t.Seeds = append(t.Seeds, d.Seed)
	}
	for _, w0 := range docs[0].Workloads {
		for _, m := range comparedMetrics(bf) {
			row := spreadRow{Workload: w0.Name, Metric: m.Name, Unit: m.Unit}
			for _, d := range docs {
				w := d.workload(w0.Name)
				if w == nil {
					return fmt.Errorf("workload %s missing from an invocation", w0.Name)
				}
				s := w.EndToEnd[m.Name]
				row.Medians = append(row.Medians, s.Value)
				row.RoundSpread = max(row.RoundSpread, roundSpread(s))
			}
			sorted := append([]float64(nil), row.Medians...)
			sort.Float64s(sorted)
			med := median(sorted)
			for _, v := range row.Medians {
				row.MaxDeviation = max(row.MaxDeviation, ratio(math.Abs(v-med), math.Abs(med)))
			}
			t.Rows = append(t.Rows, row)
			t.Bounds[m.Name] = max(t.Bounds[m.Name], math.Ceil(row.MaxDeviation*20)/20)
		}
	}
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", data)
	return err
}
