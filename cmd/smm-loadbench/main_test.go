package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// serveBin and toolBin are built once for the whole package.
var repoRoot, serveBin, toolBin string

func TestMain(m *testing.M) {
	code, err := buildAndRun(m)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(code)
}

func buildAndRun(m *testing.M) (int, error) {
	root, err := findRoot(".")
	if err != nil {
		return 0, err
	}
	dir, err := os.MkdirTemp("", "smm-loadbench-test-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	repoRoot = root
	if serveBin, err = buildServer(context.Background(), root, dir); err != nil {
		return 0, err
	}
	toolBin = filepath.Join(dir, "smm-loadbench")
	if out, err := exec.Command("go", "build", "-o", toolBin, ".").CombinedOutput(); err != nil {
		return 0, fmt.Errorf("building smm-loadbench: %v\n%s", err, out)
	}
	return m.Run(), nil
}

// serveChildren lists the live smm-serve processes whose parent is ppid.
func serveChildren(t *testing.T, ppid int) []int {
	t.Helper()
	entries, err := os.ReadDir("/proc")
	if err != nil {
		t.Fatal(err)
	}
	var out []int
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			continue // exited while we looked
		}
		s := string(stat)
		rest := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if !strings.Contains(s, "(smm-serve)") || len(rest) < 2 || rest[0] == "Z" {
			continue
		}
		if p, _ := strconv.Atoi(rest[1]); p == ppid {
			out = append(out, pid)
		}
	}
	return out
}

// alive reports whether pid is a process that has not yet died.
func alive(pid int) bool {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return false
	}
	s := string(stat)
	rest := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	return len(rest) > 0 && rest[0] != "Z"
}

// TestQuickRunReportsEveryMetric runs all four workloads at 200 plans or
// fewer against a freshly built smm-serve and checks the report: every
// BENCHMARK.json metric printed with its unit for every workload, no
// failed plan, no mismatched document, result.json and the traces
// written, and no server left running.
func TestQuickRunReportsEveryMetric(t *testing.T) {
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	start := time.Now()
	err := run(context.Background(), []string{"-quick", "-serve-bin", serveBin, "-o", out}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Errorf("quick run took %v, want under 30s", d)
	}
	bf, err := readBenchmarkFile(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	report := stdout.String()
	for _, w := range workloadNames {
		for _, m := range append(append([]metricDef{errorRate}, bf.EndToEnd...), bf.PerLayer...) {
			re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(w+" "+m.Name) + ` (\S+) ` + regexp.QuoteMeta(m.Unit) + ` `)
			match := re.FindStringSubmatch(report)
			if match == nil {
				t.Errorf("%s %s [%s] not printed", w, m.Name, m.Unit)
				continue
			}
			if m.Name == errorRate.Name && match[1] != "0" {
				t.Errorf("%s error_rate = %s, want 0", w, match[1])
			}
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+w+".json")); err != nil {
			t.Error(err)
		}
	}
	doc, err := readResult(filepath.Join(out, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if w.Plans > 200 || w.Checked == 0 || w.Failed != 0 || w.Mismatches != 0 {
			t.Errorf("%s: %d plans, %d checked, %d failed, %d mismatched", w.Name, w.Plans, w.Checked, w.Failed, w.Mismatches)
		}
	}
	if kids := serveChildren(t, os.Getpid()); len(kids) > 0 {
		t.Errorf("smm-serve children %v outlived the run", kids)
	}
}

// TestCanceledRunKillsServers cancels a run while its servers are up, as
// SIGINT does through the signal context, and checks that none survive.
func TestCanceledRunKillsServers(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		var sink bytes.Buffer
		errc <- run(ctx, []string{"-workload", "hot-hits", "-serve-bin", serveBin, "-o", t.TempDir()}, &sink, &sink)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for len(serveChildren(t, os.Getpid())) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no smm-serve child appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("run after cancel = %v, want context.Canceled", err)
	}
	if kids := serveChildren(t, os.Getpid()); len(kids) > 0 {
		t.Errorf("smm-serve children %v outlived the canceled run", kids)
	}
}

// TestServersDieWithTheTool signals a running smm-loadbench process and
// checks that its servers die too: SIGINT unwinds through the killers,
// SIGKILL leaves the kernel's parent-death signal to do it.
func TestServersDieWithTheTool(t *testing.T) {
	for _, sig := range []syscall.Signal{syscall.SIGINT, syscall.SIGKILL} {
		t.Run(sig.String(), func(t *testing.T) {
			cmd := exec.Command(toolBin, "-workload", "hot-hits", "-serve-bin", serveBin, "-o", t.TempDir())
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			defer cmd.Process.Kill()
			var kids []int
			deadline := time.Now().Add(20 * time.Second)
			for len(kids) == 0 {
				if time.Now().After(deadline) {
					t.Fatal("no smm-serve child appeared")
				}
				time.Sleep(5 * time.Millisecond)
				kids = serveChildren(t, cmd.Process.Pid)
			}
			if err := cmd.Process.Signal(sig); err != nil {
				t.Fatal(err)
			}
			cmd.Wait()
			deadline = time.Now().Add(5 * time.Second)
			for _, pid := range kids {
				for alive(pid) {
					if time.Now().After(deadline) {
						t.Fatalf("smm-serve %d still running after the tool got %v", pid, sig)
					}
					time.Sleep(5 * time.Millisecond)
				}
			}
		})
	}
}

// TestTakenPortIsRetried hands the launcher a port that is already bound:
// the server exits, and the launcher retries once on fresh ports.
func TestTakenPortIsRetried(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	taken := ln.Addr().(*net.TCPAddr).Port
	hc := newHTTPClient()
	l := newLauncher(serveBin, hc)
	defer l.killAll()
	calls := 0
	l.pickPorts = func(n int) ([]int, error) {
		calls++
		if calls == 1 {
			return []int{taken}, nil
		}
		return freePorts(n)
	}
	f, err := l.start(context.Background(), 1)
	if err != nil {
		t.Fatalf("start with a taken port: %v", err)
	}
	defer f.stop()
	if calls != 2 {
		t.Errorf("picked ports %d times, want 2", calls)
	}
	if _, err := l.get(context.Background(), f.servers[0].url+"/healthz"); err != nil {
		t.Error(err)
	}
}

func TestCountOKIgnoresIndentation(t *testing.T) {
	for body, want := range map[string]int{
		`{"results": [{"status": 200, "plan": {}}, {"status": 422, "error": "x"}]}`:     1,
		`{"results":[{"status":200,"plan":{}},{"status":200,"plan":{}}],"memo_hits":0}`: 2,
		"{\"results\": [\n  {\n    \"status\":\n      200\n  }\n]}":                     1,
		`{"results": []}`: 0,
	} {
		if got := countOK([]byte(body)); got != want {
			t.Errorf("countOK(%s) = %d, want %d", body, got, want)
		}
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "plans_per_s", Better: "higher", Bound: 0.1}
	s := func(v, lo, hi float64) stat { return stat{Value: v, Min: lo, Max: hi, Rounds: []float64{lo, v, hi}} }
	for _, tc := range []struct {
		name string
		m    metricDef
		a, b stat
		want string
	}{
		{"same", lower, s(10, 9.8, 10.2), s(10.1, 9.9, 10.3), "ok"},
		{"slower past the bound", lower, s(10, 9.8, 10.2), s(11.5, 11.4, 11.6), "regressed"},
		{"noisier than the bound", lower, s(10, 8, 12), s(10.5, 9, 12), "unresolved"},
		{"every round better despite noise", lower, s(10, 8, 12), s(6, 5, 7), "ok"},
		{"throughput drop", higher, s(100, 99, 101), s(85, 84, 86), "regressed"},
		{"throughput gain", higher, s(100, 99, 101), s(120, 119, 121), "ok"},
		{"errors appear", errorRate, s(0, 0, 0), s(0.01, 0.01, 0.01), "regressed"},
		{"no errors", errorRate, s(0, 0, 0), s(0, 0, 0), "ok"},
	} {
		if got := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestRoundSpreadMatchesPython pins roundSpread to the interquartile range
// Python's statistics.quantiles(values, n=4) gives, over the median.
func TestRoundSpreadMatchesPython(t *testing.T) {
	for _, tc := range []struct {
		rounds []float64
		median float64
		iqr    float64
	}{
		{[]float64{1, 2, 3}, 2, 2},
		{[]float64{1, 2, 3, 4}, 2.5, 2.5},
		{[]float64{5, 1, 9, 2, 7, 3, 8, 4, 6}, 5, 5},
		{[]float64{1.5, 1.2}, 1.35, 0.45},
	} {
		got := roundSpread(stat{Value: tc.median, Rounds: tc.rounds})
		if want := tc.iqr / tc.median; math.Abs(got-want) > 1e-9 {
			t.Errorf("roundSpread(%v) = %g, want %g", tc.rounds, got, want)
		}
	}
}

// TestBenchmarkFileMatchesTool keeps BENCHMARK.json and the tool in step:
// the same workloads, every listed metric measured with the same unit and
// direction, and bounds within the protocol's limits with set-up's the
// largest.
func TestBenchmarkFileMatchesTool(t *testing.T) {
	bf, err := readBenchmarkFile(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, tool runs %v", names, workloadNames)
	}
	match := func(listed, measured []metricDef) {
		for _, m := range listed {
			found := false
			for _, d := range measured {
				if d.Name == m.Name {
					found = true
					if d.Unit != m.Unit || d.Better != m.Better {
						t.Errorf("%s: BENCHMARK.json says %s/%s, tool says %s/%s", m.Name, m.Unit, m.Better, d.Unit, d.Better)
					}
				}
			}
			if !found {
				t.Errorf("BENCHMARK.json metric %s is not measured", m.Name)
			}
		}
	}
	match(bf.EndToEnd, endToEnd)
	match(bf.PerLayer, perLayer)
	if len(bf.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the tool measures %d", len(bf.PerLayer), len(perLayer))
	}
	setup := bf.bound("setup_s")
	for _, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || m.Bound > setup {
			t.Errorf("%s bound %g: want (0, 0.25] and at most setup_s's %g", m.Name, m.Bound, setup)
		}
	}
}

// TestWorkloadsAreSeeded checks that inputs depend on the seed alone and
// that the cold and batch workloads never repeat a key within a round.
func TestWorkloadsAreSeeded(t *testing.T) {
	bases, err := loadBases()
	if err != nil {
		t.Fatal(err)
	}
	bodies := func(name string, seed uint64) []string {
		w, err := newWorkload(name, timedSizes, seed, bases)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(w.reqs))
		for i := range w.reqs {
			out[i] = string(w.reqs[i].appendBody(nil, bases))
		}
		return out
	}
	for _, name := range workloadNames {
		a, b, c := bodies(name, 7), bodies(name, 7), bodies(name, 8)
		if strings.Join(a, "\n") != strings.Join(b, "\n") {
			t.Errorf("%s: the same seed generated different requests", name)
		}
		if strings.Join(a, "\n") == strings.Join(c, "\n") {
			t.Errorf("%s: different seeds generated the same requests", name)
		}
	}
	for _, name := range []string{"sweep-cold", "neighbor-batch"} {
		w, err := newWorkload(name, timedSizes, 7, bases)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[string]bool)
		for _, r := range w.reqs {
			for _, s := range r.specs {
				if seen[s.id()] {
					t.Fatalf("%s repeats key %s", name, s.id())
				}
				seen[s.id()] = true
			}
		}
		if len(seen) != w.keys {
			t.Errorf("%s: %d distinct keys, workload reports %d", name, len(seen), w.keys)
		}
	}
	hot, err := newWorkload("hot-hits", timedSizes, 7, bases)
	if err != nil {
		t.Fatal(err)
	}
	warmed := make(map[string]bool)
	for _, r := range hot.warm {
		warmed[r.specs[0].id()] = true
	}
	if len(warmed) != hotKeys {
		t.Errorf("hot-hits warms %d distinct keys, want %d", len(warmed), hotKeys)
	}
	// A builtin may splice only from another one at the same GLB size and
	// option set that is still cached; sweep-cold spaces those apart.
	w, err := newWorkload("sweep-cold", fullSizes, 7, bases)
	if err != nil {
		t.Fatal(err)
	}
	last := make(map[[2]int]int)
	for i, r := range w.reqs {
		s := r.specs[0]
		p := [2]int{s.glbKB, s.opts}
		if j, ok := last[p]; ok && i-j < pairCooldown {
			t.Fatalf("sweep-cold reuses GLB %d kB, %s after %d keys", s.glbKB, optionSets[s.opts].name, i-j)
		}
		last[p] = i
	}
}
