// Command smm-loadbench times plan requests the way a design-space
// exploration tool sends them: over HTTP to real smm-serve processes,
// from a closed loop of two clients, and attributes the time to the
// server's layers.
//
// It builds ./cmd/smm-serve, then for each workload starts fresh servers
// on free loopback ports (three -peers members for fleet-fill), sends a
// fixed, seed-generated request sequence, checks sampled documents
// against an in-process reference, and kills the servers. Rounds repeat
// with identical inputs and every metric reports the median round.
//
// Usage, from the repository root:
//
//	bash cmd/smm-loadbench/bench.sh -seed 1 -o /tmp/lb1   # 3 rounds × 4 workloads
//	bash cmd/smm-loadbench/bench.sh -quick                # ≤200 plans per workload
//	bash cmd/smm-loadbench/bench.sh -compare a.json b.json
//	bash cmd/smm-loadbench/bench.sh -spread r1.json r2.json ...
//	bash cmd/smm-loadbench/bench.sh --workload hot-hits --seed 3 --seconds 10 --trace 0
//
// The last form is the BENCHMARK.json protocol: rounds repeat until the
// seconds are used up and the last line of standard output is one JSON
// object with the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). See README.md for the workloads and metric definitions.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"scratchmem/internal/cli"
)

func main() {
	ctx, stop := cli.SignalContext()
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	cli.Exit("smm-loadbench", err)
}

// timedCap stops a -seconds invocation from starting another round, even
// below its minimum, once rounds have run this long: the protocol gives
// the whole invocation 180 seconds.
const timedCap = 100 * time.Second

// setupRuns is how many set-ups setup_s is the median of.
const setupRuns = 15

// config is one invocation's settings after flag parsing.
type config struct {
	root      string
	seed      uint64
	names     []string
	sizes     sizes
	minRounds int
	seconds   int // 0: exactly minRounds rounds, interleaved
	trace     bool
	outDir    string
	serveBin  string
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("smm-loadbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed     = fs.Uint64("seed", 1, "input seed: the same seed generates the same requests")
		outDir   = fs.String("o", "", "directory for result.json, trace-<workload>.json and /v1/spans dumps (default <root>/.bench_build/loadbench; with -seconds nothing is written unless set)")
		quick    = fs.Bool("quick", false, "at most 200 plans per workload, one round: a smoke run, not a measurement")
		serveBin = fs.String("serve-bin", "", "smm-serve binary to run instead of building ./cmd/smm-serve")
		compare  = fs.Bool("compare", false, "compare two result.json files, baseline first: one verdict per end-to-end metric and workload")
		spread   = fs.Bool("spread", false, "print the run-to-run spread of the result.json files given as arguments")
		only     = fs.String("workload", "", "run only this workload")
		seconds  = fs.Int("seconds", 0, "repeat rounds for this many seconds and end with one JSON result line")
		trace    = fs.Int("trace", 0, "with -seconds: 1 runs the traced replay and reports the per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	root, err := findRoot(".")
	if err != nil {
		return err
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		return err
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return errors.New("-compare takes two result.json files")
		}
		return compareFiles(stdout, bf, fs.Arg(0), fs.Arg(1))
	case *spread:
		if fs.NArg() < 2 {
			return errors.New("-spread takes two or more result.json files")
		}
		return spreadFiles(stdout, bf, fs.Args())
	case fs.NArg() > 0:
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	cfg := config{root: root, seed: *seed, names: workloadNames, sizes: fullSizes, minRounds: 3,
		seconds: *seconds, trace: true, outDir: *outDir, serveBin: *serveBin}
	if *only != "" {
		cfg.names = []string{*only}
	}
	if *seconds > 0 {
		if *only == "" {
			return errors.New("-seconds reports one workload: name it with -workload")
		}
		cfg.sizes, cfg.trace = timedSizes, *trace == 1
	} else if cfg.outDir == "" {
		cfg.outDir = filepath.Join(root, ".bench_build", "loadbench")
	}
	if *quick {
		cfg.sizes, cfg.minRounds = quickSizes, 1
	}
	return measure(ctx, cfg, bf, stdout, stderr)
}

// workloadResult is one workload's summary in result.json.
type workloadResult struct {
	Name       string          `json:"name"`
	Members    int             `json:"members"`
	Rounds     int             `json:"rounds"`
	Requests   int             `json:"requests_per_round"`
	Plans      int             `json:"plans_per_round"`
	Attempted  int             `json:"attempted"`
	Failed     int             `json:"failed"`
	Checked    int             `json:"checked"`
	Mismatches int             `json:"mismatches"`
	FirstError string          `json:"first_error,omitempty"`
	Samples    int             `json:"latency_samples"`
	EndToEnd   map[string]stat `json:"end_to_end"`
	PerLayer   map[string]stat `json:"per_layer"`
}

// resultDoc is result.json.
type resultDoc struct {
	Schema     string            `json:"schema"`
	Seed       uint64            `json:"seed"`
	GoMaxProcs int               `json:"gomaxprocs"`
	NumCPU     int               `json:"nproc"`
	Clients    int               `json:"clients"`
	Workloads  []*workloadResult `json:"workloads"`
}

// bench holds what every round shares.
type bench struct {
	cfg   config
	l     *launcher
	hc    *http.Client
	bases []*baseNet
	chk   *checker
	log   io.Writer
}

// measure generates the inputs, builds and runs the servers, and reports.
func measure(ctx context.Context, cfg config, bf *benchmarkFile, stdout, stderr io.Writer) error {
	bases, err := loadBases()
	if err != nil {
		return err
	}
	var wls []*workload
	for _, name := range cfg.names {
		w, err := newWorkload(name, cfg.sizes, cfg.seed, bases)
		if err != nil {
			return err
		}
		wls = append(wls, w)
	}
	if cfg.outDir != "" {
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return err
		}
	}
	bin := cfg.serveBin
	if bin == "" {
		dir, err := os.MkdirTemp("", "smm-loadbench-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if bin, err = buildServer(ctx, cfg.root, dir); err != nil {
			return err
		}
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	b := &bench{cfg: cfg, l: newLauncher(bin, hc), hc: hc, bases: bases, chk: newChecker(bases), log: stderr}
	defer b.l.killAll()

	rounds := make([][]*roundResult, len(wls))
	start := time.Now()
	for r := 0; ; r++ {
		elapsed := time.Since(start)
		if r >= cfg.minRounds && elapsed >= time.Duration(cfg.seconds)*time.Second {
			break
		}
		if cfg.seconds > 0 && r > 0 && elapsed > timedCap {
			break
		}
		// Rounds interleave across workloads, so a slow phase of the
		// machine lands on every workload rather than on one.
		for i, w := range wls {
			rr, err := b.round(ctx, w, r)
			if err != nil {
				return fmt.Errorf("%s round %d: %w", w.name, r+1, err)
			}
			rounds[i] = append(rounds[i], rr)
		}
	}

	doc := &resultDoc{Schema: "smm-loadbench/v1", Seed: cfg.seed, GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), Clients: clients}
	for i, w := range wls {
		wr := summariseWorkload(w, rounds[i])
		// Set-ups are timed back to back, apart from the rounds: one
		// that follows a round would also time the tool's own clean-up
		// of it, and one per round is too few for a steady median.
		var setups []float64
		for range setupRuns {
			f, d, err := b.setUp(ctx, w)
			if err != nil {
				return fmt.Errorf("%s set-up: %w", w.name, err)
			}
			f.stop()
			setups = append(setups, d.Seconds())
		}
		wr.EndToEnd["setup_s"] = summarise(setups, "s")
		if cfg.trace {
			st, rec, err := replay(ctx, w, bases)
			if err != nil {
				return fmt.Errorf("traced replay: %w", err)
			}
			for name, v := range st.metrics() {
				wr.PerLayer[name] = summarise([]float64{v}, unitOf(name))
			}
			if cfg.outDir != "" {
				if err := writeJSON(filepath.Join(cfg.outDir, "trace-"+w.name+".json"), rec.chrome()); err != nil {
					return err
				}
			}
		}
		doc.Workloads = append(doc.Workloads, wr)
	}
	printTable(stdout, doc, cfg.trace)
	if cfg.outDir != "" {
		path := filepath.Join(cfg.outDir, "result.json")
		if err := writeJSON(path, doc); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s\n", path)
	}
	if cfg.seconds > 0 {
		if err := printResultLine(stdout, doc.Workloads[0], bf, cfg.trace); err != nil {
			return err
		}
	}
	for _, wr := range doc.Workloads {
		if wr.Failed > 0 || wr.Mismatches > 0 {
			return fmt.Errorf("%s: %d of %d plans failed, %d of %d checked documents mismatched (first: %s)",
				wr.Name, wr.Failed, wr.Attempted, wr.Mismatches, wr.Checked, wr.FirstError)
		}
	}
	return nil
}

// roundResult is what one round measured.
type roundResult struct {
	metrics    map[string]float64
	samples    int
	attempted  int
	failed     int
	check      checkResult
	firstError string
}

// setUp starts fresh servers for w and runs its warm-up. The duration is
// the set-up time: from spawning the servers until every member is ready
// and warm.
func (b *bench) setUp(ctx context.Context, w *workload) (*fleet, time.Duration, error) {
	t0 := time.Now()
	f, err := b.l.start(ctx, w.members)
	if err != nil {
		return nil, 0, err
	}
	if len(w.warm) > 0 {
		warm := drive(ctx, b.hc, f.urls(), w.warm, nil, b.bases)
		err := ctx.Err()
		if err == nil && warm.failed() > 0 {
			err = fmt.Errorf("warm-up: %s", warm.firstErr)
		}
		if err != nil {
			f.stop()
			return nil, 0, err
		}
	}
	return f, time.Since(t0), nil
}

// round sets up fresh servers, runs the timed request sequence and checks
// the sampled documents.
func (b *bench) round(ctx context.Context, w *workload, r int) (*roundResult, error) {
	f, _, err := b.setUp(ctx, w)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	cpu0, err := f.cpuTime()
	if err != nil {
		return nil, err
	}
	res := drive(ctx, b.hc, f.urls(), w.reqs, w.checks, b.bases)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cpu1, err := f.cpuTime()
	if err != nil {
		return nil, err
	}
	counters, err := f.scrape(ctx)
	if err != nil {
		return nil, err
	}
	rss, err := f.peakRSSKB()
	if err != nil {
		return nil, err
	}
	if b.cfg.outDir != "" {
		spans, err := f.spans(ctx)
		if err != nil {
			return nil, err
		}
		for m, s := range spans {
			name := fmt.Sprintf("spans-%s-r%d-m%d.json", w.name, r+1, m)
			if err := os.WriteFile(filepath.Join(b.cfg.outDir, name), s, 0o644); err != nil {
				return nil, err
			}
		}
	}
	f.stop()
	chk, err := b.chk.check(w, res.kept)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(b.log, "round %d %-14s %6d plans in %6.2fs, %d failed, %d/%d documents mismatched\n",
		r+1, w.name, res.delivered, res.wall.Seconds(), res.failed(), chk.mismatches, chk.checked)
	first := res.firstErr
	if first == "" {
		first = chk.first
	}
	return &roundResult{
		metrics:    roundMetrics(w, res, chk, cpu1-cpu0, cpu1, rss, counters),
		samples:    len(res.latency),
		attempted:  res.attempted,
		failed:     res.failed() + chk.mismatches,
		check:      chk,
		firstError: first,
	}, nil
}

func summariseWorkload(w *workload, rounds []*roundResult) *workloadResult {
	wr := &workloadResult{Name: w.name, Members: w.members, Rounds: len(rounds), Requests: len(w.reqs),
		EndToEnd: make(map[string]stat), PerLayer: make(map[string]stat)}
	for i := range w.reqs {
		wr.Plans += w.reqs[i].plans()
	}
	for _, rr := range rounds {
		wr.Attempted += rr.attempted
		wr.Failed += rr.failed
		wr.Checked += rr.check.checked
		wr.Mismatches += rr.check.mismatches
		wr.Samples += rr.samples
		if wr.FirstError == "" {
			wr.FirstError = rr.firstError
		}
	}
	collect := func(defs []metricDef, dst map[string]stat) {
		for _, m := range defs {
			vals := make([]float64, 0, len(rounds))
			for _, rr := range rounds {
				if v, ok := rr.metrics[m.Name]; ok {
					vals = append(vals, v)
				}
			}
			if len(vals) > 0 {
				dst[m.Name] = summarise(vals, m.Unit)
			}
		}
	}
	collect(endToEnd, wr.EndToEnd)
	collect(perLayer, wr.PerLayer)
	return wr
}

func unitOf(name string) string {
	for _, m := range append(endToEnd, perLayer...) {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}

// printTable prints every metric as "workload metric value unit", with the
// round range and, for latencies, the sample count.
func printTable(w io.Writer, doc *resultDoc, traced bool) {
	for _, wr := range doc.Workloads {
		fmt.Fprintf(w, "%s: %d rounds of %d requests (%d plans), %d members, %d documents checked, %d mismatched, %d of %d plans failed\n",
			wr.Name, wr.Rounds, wr.Requests, wr.Plans, wr.Members, wr.Checked, wr.Mismatches, wr.Failed, wr.Attempted)
		line := func(m metricDef, s stat) {
			extra := ""
			if m.Name == "latency_p50_ms" || m.Name == "latency_p99_ms" {
				extra = fmt.Sprintf(" n=%d", wr.Samples)
			}
			fmt.Fprintf(w, "%s %s %.6g %s   [%.6g, %.6g]%s\n", wr.Name, m.Name, s.Value, m.Unit, s.Min, s.Max, extra)
		}
		for _, m := range endToEnd {
			line(m, wr.EndToEnd[m.Name])
		}
		if !traced {
			continue
		}
		for _, m := range perLayer {
			if s, ok := wr.PerLayer[m.Name]; ok {
				line(m, s)
			}
		}
	}
}

// printResultLine prints the BENCHMARK.json protocol's final line for the
// one workload of a -seconds invocation.
func printResultLine(w io.Writer, wr *workloadResult, bf *benchmarkFile, traced bool) error {
	defs := bf.EndToEnd
	if traced {
		defs = bf.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: wr.Mismatches == 0, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: make(map[string]value)}
	for _, m := range defs {
		s, ok := wr.EndToEnd[m.Name]
		if !ok {
			s, ok = wr.PerLayer[m.Name]
		}
		if !ok {
			return fmt.Errorf("BENCHMARK.json metric %s is not measured", m.Name)
		}
		line.Metrics[m.Name] = value{Value: s.Value, Unit: m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
