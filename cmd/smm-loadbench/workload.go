package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strconv"

	scratchmem "scratchmem"
	"scratchmem/internal/layer"
)

// builtins are the networks smm-serve's /v1/models advertises.
var builtins = []string{
	"EfficientNetB0", "GoogLeNet", "MnasNet", "MobileNet", "MobileNetV2",
	"ResNet18", "AlexNet", "VGG16", "TinyCNN",
}

// optionSet is one planning-option combination a request can carry.
type optionSet struct {
	name        string
	objective   string // "" is the server's default, accesses
	homogeneous bool
	interlayer  bool
}

// optionSets are the four option sets the sweep-style workloads cycle
// through: they reach the planner's three code paths (independent
// heterogeneous, inter-layer DP, homogeneous) under both objectives.
var optionSets = []optionSet{
	{name: "het/accesses"},
	{name: "het/latency", objective: "latency"},
	{name: "het/accesses+interlayer", interlayer: true},
	{name: "hom/accesses", homogeneous: true},
}

// GLB sizes of the sweep key space: 16-4096 kB in steps of 16.
const (
	glbStepKB = 16
	glbMaxKB  = 4096
)

// mutation bumps one layer's filter count (F) or input channels (CI) by
// delta: a near-duplicate network of the kind a NAS or DSE inner loop
// sends. Depth-wise layers only take CI, since their F is pinned to 1.
type mutation struct {
	layer int
	ci    bool
	delta int
}

// planSpec is one plan request before encoding: a builtin by name, or a
// one-layer mutant of it sent inline, at a GLB size under an option set.
type planSpec struct {
	model int       // index into builtins
	mut   *mutation // nil: the builtin by name
	glbKB int
	opts  int // index into optionSets
}

// id names the spec uniquely; equal ids mean equal plan keys.
func (s planSpec) id() string {
	id := fmt.Sprintf("%s@%d/%s", builtins[s.model], s.glbKB, optionSets[s.opts].name)
	if s.mut != nil {
		id = mutantName(builtins[s.model], *s.mut) + "@" + id
	}
	return id
}

func mutantName(base string, m mutation) string {
	field := "F"
	if m.ci {
		field = "C"
	}
	return fmt.Sprintf("%s~L%d%s+%d", base, m.layer, field, m.delta)
}

// wireLayer is one layer in the scratchmem network JSON format.
type wireLayer struct {
	Name string `json:"name"`
	Type string `json:"type"`
	IH   int    `json:"ih"`
	IW   int    `json:"iw"`
	CI   int    `json:"ci"`
	FH   int    `json:"fh"`
	FW   int    `json:"fw"`
	F    int    `json:"f"`
	S    int    `json:"s"`
	P    int    `json:"p"`
}

func encodeLayer(l layer.Layer) []byte {
	b, err := json.Marshal(wireLayer{Name: l.Name, Type: l.Kind.String(),
		IH: l.IH, IW: l.IW, CI: l.CI, FH: l.FH, FW: l.FW, F: l.F, S: l.S, P: l.P})
	if err != nil {
		panic(err) // a struct of strings and ints always marshals
	}
	return b
}

// baseNet is a builtin with its layers pre-encoded, so a one-layer mutant
// encodes by splicing a single re-encoded layer into the base's fragments.
type baseNet struct {
	name  string
	net   *scratchmem.Network
	frags [][]byte
}

func loadBases() ([]*baseNet, error) {
	out := make([]*baseNet, len(builtins))
	for i, name := range builtins {
		n, err := scratchmem.BuiltinModel(name)
		if err != nil {
			return nil, err
		}
		b := &baseNet{name: name, net: n, frags: make([][]byte, len(n.Layers))}
		for j, l := range n.Layers {
			b.frags[j] = encodeLayer(l)
		}
		out[i] = b
	}
	return out, nil
}

// appendPlanJSON appends the POST /v1/plan body of s.
func appendPlanJSON(dst []byte, s planSpec, bases []*baseNet) []byte {
	b := bases[s.model]
	if s.mut == nil {
		dst = append(dst, `{"model":`...)
		dst = strconv.AppendQuote(dst, b.name)
	} else {
		m := *s.mut
		l := b.net.Layers[m.layer]
		if m.ci {
			l.CI += m.delta
		} else {
			l.F += m.delta
		}
		dst = append(dst, `{"network":{"name":`...)
		dst = strconv.AppendQuote(dst, mutantName(b.name, m))
		dst = append(dst, `,"layers":[`...)
		for j, f := range b.frags {
			if j > 0 {
				dst = append(dst, ',')
			}
			if j == m.layer {
				f = encodeLayer(l)
			}
			dst = append(dst, f...)
		}
		dst = append(dst, "]}"...)
	}
	dst = append(dst, `,"glb_kb":`...)
	dst = strconv.AppendInt(dst, int64(s.glbKB), 10)
	o := optionSets[s.opts]
	if o.objective != "" {
		dst = append(dst, `,"objective":`...)
		dst = strconv.AppendQuote(dst, o.objective)
	}
	if o.homogeneous {
		dst = append(dst, `,"homogeneous":true`...)
	}
	if o.interlayer {
		dst = append(dst, `,"interlayer":true`...)
	}
	return append(dst, '}')
}

// appendBatchJSON appends the POST /v1/plan/batch body of specs.
func appendBatchJSON(dst []byte, specs []planSpec, bases []*baseNet) []byte {
	dst = append(dst, `{"requests":[`...)
	for i, s := range specs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendPlanJSON(dst, s, bases)
	}
	return append(dst, "]}"...)
}

// request is one HTTP request of a workload. Single plans are encoded up
// front; batches are encoded by the sending client just before its timer
// starts, so a 1000-batch round does not hold a quarter gigabyte of bodies.
type request struct {
	member int        // index of the fleet member it is sent to
	specs  []planSpec // one spec for POST /v1/plan; the items of a batch
	batch  bool
	body   []byte // nil for batches
}

// plans is the number of plan documents a successful response carries.
func (r *request) plans() int { return len(r.specs) }

func (r *request) path() string {
	if r.batch {
		return "/v1/plan/batch"
	}
	return "/v1/plan"
}

// appendBody appends the request's body to dst.
func (r *request) appendBody(dst []byte, bases []*baseNet) []byte {
	if r.body != nil {
		return append(dst, r.body...)
	}
	return appendBatchJSON(dst, r.specs, bases)
}

// sizes fixes how much work one round of each workload does. A round is a
// fixed request count, never a duration: cold-plan cost grows with server
// uptime, so two commits are comparable only over identical request
// sequences.
type sizes struct {
	sweepPlans int // sweep-cold requests
	hotPlans   int // hot-hits requests
	batches    int // neighbor-batch requests (64 plans each)
	fleetKeys  int // fleet-fill keys, each sent to all three members
}

var (
	// fullSizes are the default invocation's rounds.
	fullSizes = sizes{sweepPlans: 5000, hotPlans: 100000, batches: 1000, fleetKeys: 5000}
	// timedSizes are the rounds of a -seconds invocation, which repeats
	// them until the time is used up; each takes about 1.5 seconds on
	// the two-core machine that recorded results/seed-spread.json.
	timedSizes = sizes{sweepPlans: 1500, hotPlans: 10000, batches: 100, fleetKeys: 500}
	// quickSizes keep every workload at 200 plans or fewer (-quick).
	quickSizes = sizes{sweepPlans: 200, hotPlans: 200, batches: 3, fleetKeys: 66}
)

const (
	hotKeys        = 64
	hotZipfS       = 1.1
	batchItems     = 64
	batchMinKB     = 32
	batchMaxKB     = 1024
	maxDelta       = 8
	fleetMembers   = 3
	fleetMinKB     = 64
	checkDocuments = 256
)

// workload is one traffic mix, generated from the seed before any timer
// starts. The servers see only these requests.
type workload struct {
	name    string
	members int
	warm    []request // untimed: part of set-up
	reqs    []request // timed
	keys    int       // distinct plan keys among reqs
	// checks are the timed requests whose every delivered document is
	// compared with an in-process reference.
	checks []int
}

// workloadNames lists the workloads in their run order.
var workloadNames = []string{"sweep-cold", "hot-hits", "neighbor-batch", "fleet-fill"}

// newWorkload generates workload name at the given size from seed.
func newWorkload(name string, sz sizes, seed uint64, bases []*baseNet) (*workload, error) {
	idx := -1
	for i, n := range workloadNames {
		if n == name {
			idx = i
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	// Each workload draws from its own stream, so adding or resizing one
	// leaves the others' inputs unchanged.
	rng := rand.New(rand.NewPCG(seed, uint64(idx)))
	w := &workload{name: name, members: 1}
	switch name {
	case "sweep-cold":
		specs, err := coldSpecs(rng, sz.sweepPlans, glbStepKB)
		if err != nil {
			return nil, err
		}
		for _, s := range specs {
			w.reqs = append(w.reqs, single(0, s, bases))
		}
		w.keys = len(specs)
	case "hot-hits":
		keys := hotSpecs(rng, bases)
		for _, s := range keys {
			w.warm = append(w.warm, single(0, s, bases))
		}
		zipf := rand.NewZipf(rng, hotZipfS, 1, hotKeys-1)
		for i := 0; i < sz.hotPlans; i++ {
			w.reqs = append(w.reqs, w.warm[zipf.Uint64()])
		}
		w.keys = len(keys)
	case "neighbor-batch":
		batches, err := neighborBatches(rng, sz.batches, bases)
		if err != nil {
			return nil, err
		}
		for _, b := range batches {
			w.reqs = append(w.reqs, request{specs: b, batch: true})
		}
		w.keys = len(batches) * batchItems
	case "fleet-fill":
		w.members = fleetMembers
		specs, err := coldSpecs(rng, sz.fleetKeys, fleetMinKB)
		if err != nil {
			return nil, err
		}
		for _, s := range specs {
			for _, m := range rng.Perm(fleetMembers) {
				w.reqs = append(w.reqs, single(m, s, bases))
			}
		}
		w.keys = len(specs)
	}
	w.checks = pickChecks(rng, w.reqs)
	return w, nil
}

func single(member int, s planSpec, bases []*baseNet) request {
	return request{member: member, specs: []planSpec{s}, body: appendPlanJSON(nil, s, bases)}
}

// pairCooldown is how many keys pass before coldSpecs reuses a (GLB,
// option set) pair: twice the 256 entries of smm-serve's default plan
// cache, whose evictions also drop the evicted key's fingerprint.
const pairCooldown = 512

// coldSpecs draws n distinct builtin-by-name keys from the model × GLB ×
// option-set grid (GLB from minKB up). Every run of nine consecutive keys
// covers all nine builtins in a seeded order, so the per-request work mix
// is the same for every seed; the seed picks GLB sizes, option sets and
// order. A (GLB, option set) pair returns, for another builtin, only after
// pairCooldown keys, when the earlier key has left the cache: builtins
// that share their first layers (ResNet18 and GoogLeNet, say) then never
// splice from each other, so the sweep bypasses differential planning.
func coldSpecs(rng *rand.Rand, n, minKB int) ([]planSpec, error) {
	type pair struct{ kb, opts int }
	var free []pair
	for kb := minKB; kb <= glbMaxKB; kb += glbStepKB {
		for o := range optionSets {
			free = append(free, pair{kb, o})
		}
	}
	if grid := len(builtins) * len(free); n > grid {
		return nil, fmt.Errorf("%d cold keys requested, the grid from %d kB holds %d", n, minKB, grid)
	}
	used := make(map[planSpec]bool, n)
	var cooling []pair // oldest first
	out := make([]planSpec, 0, n)
	for len(out) < n {
		for _, m := range rng.Perm(len(builtins)) {
			if len(out) == n {
				break
			}
			if len(cooling) == pairCooldown {
				free = append(free, cooling[0])
				cooling = cooling[1:]
			}
			start, found := rng.IntN(len(free)), false
			for k := range free {
				i := (start + k) % len(free)
				s := planSpec{model: m, glbKB: free[i].kb, opts: free[i].opts}
				if used[s] {
					continue
				}
				used[s], found = true, true
				out = append(out, s)
				cooling = append(cooling, free[i])
				free[i] = free[len(free)-1]
				free = free[:len(free)-1]
				break
			}
			if !found {
				return nil, fmt.Errorf("%d cold keys requested: %s ran out of GLB sizes and option sets", n, builtins[m])
			}
		}
	}
	return out, nil
}

// hotSpecs draws the hot-hits key set. Popularity rank r fixes the model
// (round-robin over the builtins), whether the key is the builtin by name
// (even r) or an inline one-layer mutant (odd r), and the option set, so
// every seed warms up and hits the same kind of work; the seed picks GLB
// sizes and mutations. The three repeat together only every 72 ranks, so
// the 64 keys are distinct.
func hotSpecs(rng *rand.Rand, bases []*baseNet) []planSpec {
	out := make([]planSpec, hotKeys)
	for r := range out {
		m := r % len(builtins)
		out[r] = planSpec{
			model: m,
			glbKB: glbStepKB * (1 + rng.IntN(glbMaxKB/glbStepKB)),
			opts:  r / 2 % len(optionSets),
		}
		if r%2 == 1 {
			mut := randomMutation(rng, bases[m].net)
			out[r].mut = &mut
		}
	}
	return out
}

func randomMutation(rng *rand.Rand, n *scratchmem.Network) mutation {
	i := rng.IntN(len(n.Layers))
	ci := n.Layers[i].Kind == layer.DepthwiseConv || rng.IntN(2) == 1
	return mutation{layer: i, ci: ci, delta: 1 + rng.IntN(maxDelta)}
}

// neighborBatches draws n batches of batchItems distinct one-layer mutants
// of a base network at one GLB size (het/accesses, the option set the
// differential planner splices). Bases cycle through the builtins in
// seeded blocks, and each base draws its GLB sizes (any whole kB from
// batchMinKB to batchMaxKB) without replacement, so within a round no
// item repeats and every item is a plan-cache miss.
func neighborBatches(rng *rand.Rand, n int, bases []*baseNet) ([][]planSpec, error) {
	glbs := make([][]int, len(builtins))
	for m := range glbs {
		glbs[m] = rng.Perm(batchMaxKB - batchMinKB + 1)
	}
	out := make([][]planSpec, 0, n)
	var order []int
	for len(out) < n {
		if len(order) == 0 {
			order = rng.Perm(len(builtins))
		}
		m := order[0]
		order = order[1:]
		if len(glbs[m]) == 0 {
			return nil, fmt.Errorf("neighbor-batch: more than %d batches of %s", batchMaxKB-batchMinKB+1, builtins[m])
		}
		kb := batchMinKB + glbs[m][0]
		glbs[m] = glbs[m][1:]
		seen := make(map[mutation]bool, batchItems)
		items := make([]planSpec, 0, batchItems)
		for attempt := 0; len(items) < batchItems; attempt++ {
			if attempt == 100*batchItems {
				return nil, fmt.Errorf("neighbor-batch: %s has too few distinct one-layer mutants", builtins[m])
			}
			mut := randomMutation(rng, bases[m].net)
			if !seen[mut] {
				seen[mut] = true
				items = append(items, planSpec{model: m, mut: &mut, glbKB: kb})
			}
		}
		out = append(out, items)
	}
	return out, nil
}

// pickChecks selects timed requests whose documents are compared with the
// in-process reference: checkDocuments seeded documents, whole batches
// included, or every request when there are fewer.
func pickChecks(rng *rand.Rand, reqs []request) []int {
	var out []int
	docs := 0
	for _, i := range rng.Perm(len(reqs)) {
		if docs >= checkDocuments {
			break
		}
		out = append(out, i)
		docs += reqs[i].plans()
	}
	return out
}
