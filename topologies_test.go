package scratchmem

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scratchmem/internal/model"
)

// TestShippedTopologiesInSync verifies the SCALE-Sim-compatible topology
// files under topologies/ stay byte-identical to what the builders emit —
// they are the interchange artefacts users feed to SCALE-Sim itself.
func TestShippedTopologiesInSync(t *testing.T) {
	names := model.AllBuiltinNames()
	for _, name := range names {
		n, err := model.Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		var want strings.Builder
		if err := n.WriteTopologyCSV(&want); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join("topologies", n.Name+".csv"))
		if err != nil {
			t.Fatalf("%s: %v (regenerate the file with WriteTopologyCSV)", name, err)
		}
		if string(got) != want.String() {
			t.Errorf("topologies/%s.csv is stale; regenerate from the builder", n.Name)
		}
		// And it must load back as a valid network of the same dimensions.
		back, err := LoadModel(filepath.Join("topologies", n.Name+".csv"))
		if err != nil {
			t.Fatalf("%s: reload: %v", name, err)
		}
		if len(back.Layers) != len(n.Layers) {
			t.Errorf("%s: reload lost layers (%d != %d)", name, len(back.Layers), len(n.Layers))
		}
	}
}
