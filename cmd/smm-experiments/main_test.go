package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var updateResults = flag.Bool("update-results", false, "rewrite the repository's results/ from a full run")

// resultsDir holds the CSVs a full run writes, committed so that a change
// to any planned figure shows up as a diff. Regenerate it only for a
// deliberate change to the figures, with the flag after the package path:
//
//	go test -run TestRunAll ./cmd/smm-experiments/ -update-results
const resultsDir = "../../results"

func TestRunSubset(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-exp", "table2,table3"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Table 2") || !strings.Contains(out, "Table 3") {
		t.Error("subset tables missing")
	}
	if strings.Contains(out, "Figure 5") {
		t.Error("unrequested experiment ran")
	}
}

func TestRunWritesCSV(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	if err := run(context.Background(), []string{"-exp", "table4,fig9", "-out", dir, "-workers", "2"}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"table4.csv", "fig9.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if len(data) == 0 {
			t.Errorf("%s is empty", f)
		}
	}
}

func TestRunHeadlineOnly(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-exp", "headline"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Headline results") {
		t.Error("missing headline table")
	}
	if strings.Contains(out, "Figure 5: off-chip") {
		t.Error("fig5 table printed for headline-only run")
	}
}

func TestRunExtensions(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-exp", "batch"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "batching on GoogLeNet") {
		t.Error("missing batch extension table")
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-badflag"}, &sb); err == nil {
		t.Error("bad flag accepted")
	}
	// Unwritable output directory.
	if err := run(context.Background(), []string{"-exp", "table2", "-out", "/proc/nope/xx"}, &sb); err == nil {
		t.Error("unwritable out dir accepted")
	}
}

func TestRunMarkdownOutput(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	if err := run(context.Background(), []string{"-exp", "table2", "-out", dir, "-format", "md"}, &sb); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "table2.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "| Network |") {
		t.Errorf("markdown table malformed: %s", data)
	}
	if err := run(context.Background(), []string{"-format", "xml"}, &sb); err == nil {
		t.Error("unknown format accepted")
	}
}

// TestRunAll exercises the full default run once (it is what the README
// tells users to execute) and requires every CSV it writes to equal its
// copy in results/ byte for byte.
func TestRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	dir := t.TempDir()
	var sb strings.Builder
	if err := run(context.Background(), []string{"-workers", "2", "-out", dir}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Table 2", "Table 3", "Table 4", "Figure 3", "Figure 5", "Figure 6",
		"Figure 7", "Figure 8", "Figure 9", "Figure 10", "Figure 11",
		"Headline results",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("full run missing %q", want)
		}
	}
	got := csvFiles(t, dir)
	if *updateResults {
		for _, name := range got {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(resultsDir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if want := csvFiles(t, resultsDir); !slices.Equal(got, want) || len(got) != 24 {
		t.Fatalf("a full run writes %v, results/ holds %v; want the same 24 files", got, want)
	}
	for _, name := range got {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(resultsDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, want) {
			t.Errorf("%s differs from results/%s:\n%s", name, name, data)
		}
	}
}

// csvFiles lists the CSV files in dir, sorted.
func csvFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".csv") {
			names = append(names, e.Name())
		}
	}
	return names
}
