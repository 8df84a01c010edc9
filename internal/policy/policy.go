// Package policy implements the paper's on-chip memory-management policies
// (§3.2): intra-layer reuse and policies 1-5, each with an optional
// prefetching variant, plus the inter-layer-reuse producer/consumer
// variants used by the planner.
//
// For every (layer, policy, options) combination the package produces an
// Estimate carrying the three quantities the paper's Algorithm 1 consumes:
// estimate_memory, estimate_accesses and estimate_latency. The estimators
// are purely analytical — this is the point of the paper: generating a
// management scheme takes milliseconds instead of hours of full simulation —
// but the tile definitions here are shared with internal/engine, which
// executes them for real, so tests can check that estimated off-chip traffic
// equals executed off-chip traffic exactly.
package policy

import "fmt"

// ID identifies one of the paper's memory-management policies.
type ID int

const (
	// IntraLayer keeps the whole layer (ifmap, all filters, whole ofmap)
	// on-chip; every element crosses the chip boundary exactly once.
	IntraLayer ID = iota
	// P1IfmapReuse streams the ifmap height-wise in FH*IW*CI sliding
	// windows with all filters resident and one ofmap row buffered.
	P1IfmapReuse
	// P2FilterReuse keeps the whole ifmap resident, loads filters one by
	// one and buffers one ofmap channel.
	P2FilterReuse
	// P3PerChannel exploits reuse per channel: one ifmap channel streams
	// height-wise against one channel of every filter, accumulating into a
	// whole resident ofmap.
	P3PerChannel
	// P4PartialIfmap is P1 with filters loaded in blocks of n, re-streaming
	// the ifmap ceil(F#/n) times.
	P4PartialIfmap
	// P5PartialPerChannel is P3 with filters loaded in blocks of n (one
	// channel each), re-streaming the ifmap ceil(F#/n) times.
	P5PartialPerChannel

	numPolicies = 6

	// NumPolicies is the size of the paper's policy set, exported so
	// fixed-size per-policy tables elsewhere need no runtime sizing.
	NumPolicies = numPolicies
)

// allIDs is the paper-order policy set as a fixed array, so hot loops can
// range over it without the per-call slice allocation of IDs.
var allIDs = [numPolicies]ID{IntraLayer, P1IfmapReuse, P2FilterReuse, P3PerChannel, P4PartialIfmap, P5PartialPerChannel}

// IDs lists every policy in paper order. The slice is freshly allocated,
// so callers may append to or reorder it.
func IDs() []ID {
	out := make([]ID, numPolicies)
	copy(out, allIDs[:])
	return out
}

// String returns the paper's name for the policy.
func (id ID) String() string {
	switch id {
	case IntraLayer:
		return "intra-layer reuse"
	case P1IfmapReuse:
		return "policy 1"
	case P2FilterReuse:
		return "policy 2"
	case P3PerChannel:
		return "policy 3"
	case P4PartialIfmap:
		return "policy 4"
	case P5PartialPerChannel:
		return "policy 5"
	case FallbackTiled:
		return "fallback tiling"
	default:
		return fmt.Sprintf("ID(%d)", int(id))
	}
}

// shortNames and shortNamesP are the compact labels, indexed by ID, as
// constants: the planner emits one per progress event, so the labels must
// not allocate (pinned by the policy alloc tests).
var (
	shortNames  = [numPolicies + 1]string{"intra", "p1", "p2", "p3", "p4", "p5", "fb"}
	shortNamesP = [numPolicies + 1]string{"intra+p", "p1+p", "p2+p", "p3+p", "p4+p", "p5+p", "fb+p"}
)

// Short returns a compact label ("intra", "p1", ... "p5", "fb") used in
// the paper's Figure 6 annotations.
func (id ID) Short() string {
	if id >= 0 && int(id) < len(shortNames) {
		return shortNames[id]
	}
	return fmt.Sprintf("p%d", int(id))
}

// ShortID is the inverse of Short: it resolves a compact label back to its
// policy ID. Plan documents store per-layer decisions as short labels, so
// rehydrating a document into an executable plan (peer cache-fill, warm
// snapshot restore) starts here.
func ShortID(s string) (ID, bool) {
	for id, name := range shortNames {
		if name == s {
			return ID(id), true
		}
	}
	return 0, false
}

// Config carries the accelerator specification the paper feeds its
// estimators (§3.3): compute rate, data width, GLB size and off-chip
// bandwidth.
type Config struct {
	// GLBBytes is the unified scratchpad capacity in bytes.
	GLBBytes int64
	// DataWidthBits is the element width (the paper uses 8, 16, 32).
	DataWidthBits int
	// OpsPerCycle is the operations-per-cycle of the PE array (512 for the
	// paper's 16x16 array); a MAC costs two operations, so the MAC rate is
	// OpsPerCycle/2.
	OpsPerCycle int
	// DRAMBytesPerCycle is the off-chip bandwidth. The paper states
	// "16 elements per cycle" at 8-bit width, i.e. 16 bytes/cycle; wider
	// data keeps the byte bandwidth and moves fewer elements per cycle.
	DRAMBytesPerCycle int
	// IncludePadding counts the zero-padding halo in ifmap footprints and
	// transfers, as the paper does for its access/latency results (§5.1);
	// its Table 3 memory figures are unpadded.
	IncludePadding bool
	// Batch processes this many inputs back-to-back (0 or 1 = single
	// inference, the paper's setting). Policies that keep their whole
	// filter working set resident (intra-layer reuse, policies 1 and 4)
	// amortise weight traffic across the batch; the others re-stream
	// weights per input. This is an extension over the paper.
	Batch int
}

// Default returns the paper's experimental setup (§4) with the given GLB
// size in kB: 16x16 PEs (512 ops/cycle), 8-bit data, 16 B/cycle DRAM
// bandwidth, padding counted.
func Default(glbKB int) Config {
	return Config{
		GLBBytes:          int64(glbKB) * 1024,
		DataWidthBits:     8,
		OpsPerCycle:       512,
		DRAMBytesPerCycle: 16,
		IncludePadding:    true,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.GLBBytes <= 0:
		return fmt.Errorf("policy: GLB size must be positive, got %d", c.GLBBytes)
	case c.DataWidthBits <= 0:
		return fmt.Errorf("policy: data width must be positive, got %d", c.DataWidthBits)
	case c.OpsPerCycle < 2:
		return fmt.Errorf("policy: ops/cycle must be >= 2, got %d", c.OpsPerCycle)
	case c.DRAMBytesPerCycle <= 0:
		return fmt.Errorf("policy: DRAM bandwidth must be positive, got %d", c.DRAMBytesPerCycle)
	case c.Batch < 0:
		return fmt.Errorf("policy: batch must be non-negative, got %d", c.Batch)
	}
	return nil
}

// BatchSize returns the effective batch (>= 1).
func (c Config) BatchSize() int64 {
	if c.Batch > 1 {
		return int64(c.Batch)
	}
	return 1
}

// MACsPerCycle returns the multiply-accumulate throughput of the array.
func (c Config) MACsPerCycle() int64 { return int64(c.OpsPerCycle) / 2 }

// CapacityElems returns how many elements fit in the GLB at the configured
// width.
func (c Config) CapacityElems() int64 {
	return c.GLBBytes * 8 / int64(c.DataWidthBits)
}

// Bytes converts an element count to bytes at the configured width.
func (c Config) Bytes(elems int64) int64 {
	return (elems*int64(c.DataWidthBits) + 7) / 8
}

// Options select a policy variant.
type Options struct {
	// Prefetch reserves a second copy of every tile (paper Eq. 2) so the
	// next phase's loads overlap with compute.
	Prefetch bool
	// ResidentIfmap marks the layer's ifmap as already present in the GLB
	// (it is the previous layer's retained ofmap): no ifmap bytes cross the
	// chip boundary, and the resident (unpadded) footprint replaces the
	// ifmap tile in the memory requirement.
	ResidentIfmap bool
	// KeepOfmap retains the full ofmap in the GLB at the end of the layer
	// and skips its off-chip store, so the next layer can consume it
	// (inter-layer reuse producer side).
	KeepOfmap bool
}

// variantNames and variantNamesP are Variant's labels, indexed by ID and
// derived from String, so a plan's policy mix allocates no label.
var variantNames, variantNamesP = func() (names, namesP [numPolicies + 1]string) {
	for id := range names {
		names[id] = ID(id).String()
		namesP[id] = names[id] + " +p"
	}
	return names, namesP
}()

// Variant names the (policy, prefetch) pair the way the paper's Table 4
// does, e.g. "policy 2 +p".
func Variant(id ID, prefetch bool) string {
	if id >= 0 && int(id) < len(variantNames) {
		if prefetch {
			return variantNamesP[id]
		}
		return variantNames[id]
	}
	if prefetch {
		return id.String() + " +p"
	}
	return id.String()
}

// ShortVariant is Variant in the compact Figure-6 labelling ("p2+p",
// "intra", "fb") — the form reports, progress events and metric labels
// share.
func ShortVariant(id ID, prefetch bool) string {
	if !prefetch {
		return id.Short()
	}
	if id >= 0 && int(id) < len(shortNamesP) {
		return shortNamesP[id]
	}
	return id.Short() + "+p"
}

// ShortVariants lists every selectable (policy, prefetch) label, paper
// order then fallback, prefetch-less first — the fixed label set of the
// server's smm_policy_selected_total metric.
func ShortVariants() []string {
	ids := append(IDs(), FallbackTiled)
	out := make([]string, 0, 2*len(ids))
	for _, id := range ids {
		out = append(out, ShortVariant(id, false), ShortVariant(id, true))
	}
	return out
}

// Tiles holds the per-data-type tile sizes of a policy instantiation, in
// elements. For inter-layer variants Ifmap/Ofmap refer to the resident
// regions.
type Tiles struct {
	Ifmap, Filter, Ofmap int64
}

// Total returns the summed tile footprint in elements.
func (t Tiles) Total() int64 { return t.Ifmap + t.Filter + t.Ofmap }

// Estimate is the output of the three estimators for one (layer, policy,
// options) combination.
type Result struct {
	Policy         ID
	Opts           Options
	Layer          string // layer name, for reporting
	N              int    // filter-block size for P4/P5 (0 for other policies)
	Tiles          Tiles  // tile sizes in elements (doubled terms NOT included)
	DoubleBuffered Tiles  // extra elements reserved for prefetching

	MemoryElems int64 // estimate_memory, elements
	MemoryBytes int64 // estimate_memory, bytes

	IfmapLoads   int64 // how many times the full ifmap crosses off-chip (x)
	FilterLoads  int64 // how many times the full filter set crosses off-chip
	AccessIfmap  int64 // off-chip ifmap reads, elements
	AccessFilter int64 // off-chip filter reads, elements
	AccessOfmap  int64 // off-chip ofmap writes, elements
	AccessElems  int64 // estimate_accesses, elements
	AccessBytes  int64 // estimate_accesses, bytes

	ComputeCycles  int64 // ideal MAC-bound cycles
	TransferCycles int64 // DRAM-bound cycles for AccessBytes
	LatencyCycles  int64 // estimate_latency

	Feasible bool // MemoryBytes <= Config.GLBBytes
}
