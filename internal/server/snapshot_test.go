package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	scratchmem "scratchmem"
)

var updateSnapshot = flag.Bool("update-snapshot", false, "rewrite testdata/snapshot.golden")

// snapshotGoldenPath pins the GET /v1/cache/snapshot stream byte for byte:
// the record layout the restore side of every earlier release reads and
// writes. Regenerate only for a deliberate change to the wire format:
//
//	go test -run TestSnapshotGolden -update-snapshot ./internal/server/
const snapshotGoldenPath = "testdata/snapshot.golden"

// escapedNetwork is an inline network whose names need JSON escaping: HTML
// characters, a quote and U+2028.
const escapedNetwork = `{"name": "esc<&\"net", "layers": [
	{"name": "c<1>&\"", "type": "CV", "ih": 16, "iw": 16, "ci": 3, "fh": 3, "fw": 3, "f": 8, "s": 1, "p": 1},` +
	"\n\t{\"name\": \"d\u2028w\", " + `"type": "DW", "ih": 16, "iw": 16, "ci": 8, "fh": 3, "fw": 3, "f": 1, "s": 1, "p": 1},
	{"name": "fc&", "type": "FC", "ih": 1, "iw": 1, "ci": 2048, "fh": 1, "fw": 1, "f": 10, "s": 1, "p": 0}]}`

// snapshotModels are the builtins of the pinned grid: every layer type,
// and P4/P5 block sizes on depth-wise and regular layers.
var snapshotModels = []string{"TinyCNN", "AlexNet", "ResNet18", "MobileNet"}

// snapshotGridRequests is the pinned request grid: each snapshotModels
// network under the het, latency, inter-layer and hom schemes at 64 kB and
// under an explicit batch config with prefetching off and strict planning,
// then the escaped inline network.
func snapshotGridRequests() []string {
	var reqs []string
	for _, name := range snapshotModels {
		for _, opts := range []string{
			`"glb_kb": 64`,
			`"glb_kb": 64, "objective": "latency"`,
			`"glb_kb": 64, "interlayer": true`,
			`"glb_kb": 64, "homogeneous": true`,
			`"config": {"glb_bytes": 1048576, "data_width_bits": 8, "ops_per_cycle": 256, "dram_bytes_per_cycle": 16, "include_padding": true, "batch": 4}, "disable_prefetch": true, "strict": true`,
		} {
			reqs = append(reqs, fmt.Sprintf(`{"model": %q, %s}`, name, opts))
		}
	}
	return append(reqs, `{"network": `+escapedNetwork+`, "glb_kb": 32, "interlayer": true}`)
}

// snapshotDoc returns the doc member of one snapshot line, as it is on the
// wire.
func snapshotDoc(t *testing.T, line []byte) []byte {
	t.Helper()
	var rec struct {
		Doc json.RawMessage `json:"doc"`
	}
	if err := json.Unmarshal(line, &rec); err != nil {
		t.Fatal(err)
	}
	return rec.Doc
}

// TestSnapshotGolden plans the grid on a fresh server and requires its
// snapshot stream to be the golden bytes. It then restores the golden into
// a server that cannot plan, which must answer every snapshotted request as
// a cache hit with the document the planning server served, whose compact
// form is the record's doc member.
func TestSnapshotGolden(t *testing.T) {
	a := New(Config{})
	tsA := httptest.NewServer(a.Handler())
	defer tsA.Close()
	reqs := snapshotGridRequests()
	bodies := make(map[string][]byte, len(reqs))
	keys := make(map[string]string, len(reqs))
	for _, req := range reqs {
		resp, body := post(t, tsA, "/v1/plan", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", req, resp.StatusCode, body)
		}
		bodies[req] = body
		keys[req] = resp.Header.Get("X-SMM-Plan-Key")
	}
	resp, snap := get(t, tsA, "/v1/cache/snapshot")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status %d", resp.StatusCode)
	}
	if *updateSnapshot {
		if err := os.WriteFile(snapshotGoldenPath, snap, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(snapshotGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update-snapshot to create it)", err)
	}
	if !bytes.Equal(snap, golden) {
		t.Fatalf("snapshot stream differs from %s (%d vs %d bytes)", snapshotGoldenPath, len(snap), len(golden))
	}

	lines := bytes.SplitAfter(golden, []byte("\n"))
	lines = lines[:len(lines)-1] // the empty tail after the last newline
	docs := make(map[string][]byte, len(lines))
	for _, line := range lines {
		var rec struct {
			Key string `json:"key"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		docs[rec.Key] = snapshotDoc(t, line)
	}
	if len(docs) != len(reqs) {
		t.Fatalf("the golden holds %d records for %d requests: none may degrade", len(docs), len(reqs))
	}

	restored := New(Config{})
	restored.planFn = func(context.Context, *scratchmem.Network, scratchmem.PlanOptions) (*scratchmem.Plan, error) {
		t.Error("a restored server ran its planner")
		return nil, fmt.Errorf("must not plan")
	}
	added, skipped, err := restored.RestoreSnapshot(bytes.NewReader(golden))
	if err != nil || added != len(lines) || skipped != 0 {
		t.Fatalf("RestoreSnapshot(golden) = %d added, %d skipped, %v; want %d added", added, skipped, err, len(lines))
	}
	tsB := httptest.NewServer(restored.Handler())
	defer tsB.Close()
	for _, req := range reqs {
		resp, body := post(t, tsB, "/v1/plan", req)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-SMM-Cache") != "hit" {
			t.Fatalf("%s: status %d, X-SMM-Cache %q: %s", req, resp.StatusCode, resp.Header.Get("X-SMM-Cache"), body)
		}
		if !bytes.Equal(body, bodies[req]) {
			t.Errorf("%s: served document differs from the planning server's", req)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, body); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(compact.Bytes(), docs[keys[req]]) {
			t.Errorf("%s: served document is not the golden record's doc", req)
		}
	}
}
