package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestRunQuickEmitsValidDocument: a -quick run touches every workload once
// and writes a decodable smm-bench/v1 document with positive timings.
func TestRunQuickEmitsValidDocument(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_10.json")
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-o", out}, &buf); err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("document does not decode: %v", err)
	}
	if doc.Schema != "smm-bench/v1" {
		t.Errorf("schema = %q, want smm-bench/v1", doc.Schema)
	}
	if len(doc.Benchmarks) != len(workloads()) {
		t.Fatalf("document has %d rows, want %d", len(doc.Benchmarks), len(workloads()))
	}
	for _, e := range doc.Benchmarks {
		if e.Name == "" || e.AfterNsOp <= 0 || e.BeforeNsOp <= 0 || e.Speedup <= 0 {
			t.Errorf("row %+v carries non-positive measurements", e)
		}
		if e.BeforeSource != "seed" && e.BeforeSource != "measured" {
			t.Errorf("row %s: before_source = %q", e.Name, e.BeforeSource)
		}
	}
}

// TestRunRejectsBadCount: the flag seam fails loudly instead of dividing by
// zero later.
func TestRunRejectsBadCount(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-count", "0", "-o", filepath.Join(t.TempDir(), "x.json")}, &buf); err == nil {
		t.Fatal("run accepted -count 0")
	}
}

// writeRefDoc writes a reference document whose per-benchmark after_ns_per_op
// is this machine's own -quick measurement scaled by factor, so gate tests
// are hermetic to the host's speed.
func writeRefDoc(t *testing.T, factor float64) (ref, out string) {
	t.Helper()
	dir := t.TempDir()
	out = filepath.Join(dir, "new.json")
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-o", out}, &buf); err != nil {
		t.Fatalf("baseline run: %v\n%s", err, buf.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for i := range doc.Benchmarks {
		doc.Benchmarks[i].AfterNsOp = int64(float64(doc.Benchmarks[i].AfterNsOp) * factor)
	}
	refData, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	ref = filepath.Join(dir, "ref.json")
	if err := os.WriteFile(ref, refData, 0o644); err != nil {
		t.Fatal(err)
	}
	return ref, filepath.Join(dir, "gated.json")
}

// TestGatePassesAgainstGenerousReference: a reference 1000x slower than this
// machine can never trip the gate, whatever the noise.
func TestGatePassesAgainstGenerousReference(t *testing.T) {
	ref, out := writeRefDoc(t, 1000)
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-o", out, "-against", ref}, &buf); err != nil {
		t.Fatalf("gate failed against a 1000x-slower reference: %v\n%s", err, buf.String())
	}
	if !bytes.Contains(buf.Bytes(), []byte("gate: all benchmarks within")) {
		t.Errorf("gate verdict line missing from output:\n%s", buf.String())
	}
}

// TestGateFailsAgainstImpossibleReference: a reference 1000x faster than this
// machine must fail every benchmark, and the error names the regressions.
func TestGateFailsAgainstImpossibleReference(t *testing.T) {
	ref, out := writeRefDoc(t, 0.001)
	var buf bytes.Buffer
	err := run([]string{"-quick", "-o", out, "-against", ref}, &buf)
	if err == nil {
		t.Fatalf("gate passed against a 1000x-faster reference:\n%s", buf.String())
	}
	if want := "performance gate"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Errorf("gate error %q does not mention %q", err, want)
	}
}

// TestGateMissingReference: pointing -against at a nonexistent file is a
// loud configuration error, not a silent pass.
func TestGateMissingReference(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-quick", "-o", filepath.Join(t.TempDir(), "x.json"),
		"-against", filepath.Join(t.TempDir(), "missing.json")}, &buf)
	if err == nil {
		t.Fatal("gate passed with a missing reference document")
	}
}
