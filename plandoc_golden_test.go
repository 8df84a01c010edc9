package scratchmem

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"scratchmem/internal/model"
	"scratchmem/internal/obs"
)

var updateDocs = flag.Bool("update-docs", false, "rewrite testdata/plandocs.golden")

// planDocGoldenPath pins the canonical documents (or error texts) the
// planner produces across a matrix of models, GLB sizes and options, so a
// change to how plans are searched for cannot change what is planned.
// Regenerate only for a deliberate change to planning results:
//
//	go test -run TestPlanDocGolden -update-docs .
const planDocGoldenPath = "testdata/plandocs.golden"

// planDocCase is one pinned planning request.
type planDocCase struct {
	label string
	plan  func(ctx context.Context) (*Plan, error)
}

// planDocCases spans every builtin at sizes from "nothing fits" (1 kB)
// to "everything fits" (4 MB) under both objectives, the het, het with
// inter-layer reuse and hom schemes, with and without prefetching, and
// strict variants where the degradation ladder engages.
func planDocCases(t *testing.T) []planDocCase {
	t.Helper()
	type scheme struct {
		name       string
		inter, hom bool
	}
	schemes := []scheme{{"het", false, false}, {"het+interlayer", true, false}, {"hom", false, true}}
	var cases []planDocCase
	for _, name := range model.AllBuiltinNames() {
		n, err := BuiltinModel(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, kb := range []int{1, 16, 64, 256, 1024, 4096} {
			for _, obj := range []Objective{MinAccesses, MinLatency} {
				for _, sc := range schemes {
					for _, noPrefetch := range []bool{false, true} {
						for _, strict := range []bool{false, true} {
							if strict && kb > 16 {
								continue
							}
							o := PlanOptions{GLBKiloBytes: kb, Objective: obj, Homogeneous: sc.hom,
								DisablePrefetch: noPrefetch, InterLayerReuse: sc.inter, Strict: strict}
							cases = append(cases, planDocCase{
								label: fmt.Sprintf("%s/%dkB/%s/%s/noprefetch=%t/strict=%t", name, kb, obj, sc.name, noPrefetch, strict),
								plan:  func(ctx context.Context) (*Plan, error) { return PlanModelCtx(ctx, n, o, nil) },
							})
						}
					}
				}
			}
		}
	}
	return cases
}

// planDocLine renders one planning outcome as its golden line: the
// document's SHA-256, or the error text.
func planDocLine(t *testing.T, label string, p *Plan, err error) string {
	t.Helper()
	if err != nil {
		return fmt.Sprintf("%s error: %v", label, err)
	}
	doc, err := PlanDocument(p).MarshalIndent()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return fmt.Sprintf("%s %x", label, sha256.Sum256(doc))
}

// TestPlanDocGolden: every pinned case, planned once untraced and once
// with a tracer in the context (as smm-serve plans), must render to the
// document digest or error text generated before the planner's caches and
// homogeneous search were consolidated.
func TestPlanDocGolden(t *testing.T) {
	traced := obs.WithTracer(context.Background(), obs.NewTracer(0))
	var out bytes.Buffer
	var tracedLines []string
	for _, c := range planDocCases(t) {
		p, err := c.plan(context.Background())
		fmt.Fprintln(&out, planDocLine(t, c.label, p, err))
		p, err = c.plan(traced)
		tracedLines = append(tracedLines, planDocLine(t, c.label, p, err))
	}
	if *updateDocs {
		if err := os.MkdirAll(filepath.Dir(planDocGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(planDocGoldenPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(planDocGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	wl := bytes.Split(bytes.TrimSuffix(want, []byte("\n")), []byte("\n"))
	gl := bytes.Split(bytes.TrimSuffix(out.Bytes(), []byte("\n")), []byte("\n"))
	if len(gl) != len(wl) || len(tracedLines) != len(wl) {
		t.Fatalf("%d untraced and %d traced lines, want %d", len(gl), len(tracedLines), len(wl))
	}
	for i := range wl {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Errorf("line %d untraced:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
		if tracedLines[i] != string(wl[i]) {
			t.Errorf("line %d traced:\n got %s\nwant %s", i+1, tracedLines[i], wl[i])
		}
	}
}
