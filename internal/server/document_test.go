package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	scratchmem "scratchmem"
	"scratchmem/internal/core"
	"scratchmem/internal/model"
	"scratchmem/internal/policy"
)

// TestRestoreRefusesTamperedRecords: a snapshot record whose document has
// any single byte changed — in the totals, the policy mix, a coverage
// figure, the feasible flag, a layer name, or a structural byte turned to
// white space — restores nothing through RestoreSnapshot (-warm-from and
// re-warm). The untouched record restores.
func TestRestoreRefusesTamperedRecords(t *testing.T) {
	for _, name := range []string{"TinyCNN", "ResNet18"} {
		net, err := scratchmem.BuiltinModel(name)
		if err != nil {
			t.Fatal(err)
		}
		opts := scratchmem.PlanOptions{Config: scratchmem.DefaultConfig(64)}
		p, err := scratchmem.PlanModel(net, opts)
		if err != nil {
			t.Fatal(err)
		}
		body, err := scratchmem.PlanDocument(p).MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		key, err := scratchmem.PlanKey(net, opts)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := appendRecord(nil, key, &planEntry{body: body, net: net, opts: opts})
		if err != nil {
			t.Fatal(err)
		}
		srv := New(Config{})
		restored := func(line []byte) int {
			added, _, _ := srv.RestoreSnapshot(bytes.NewReader(line))
			return added
		}
		doc := bytes.Index(rec, []byte(`,"doc":`)) + len(`,"doc":`)
		// region returns the bytes of the document from the first match of
		// from up to and including the first match of to after it.
		region := func(from, to string) (int, int) {
			i := bytes.Index(rec[doc:], []byte(from))
			if i < 0 {
				t.Fatalf("%s: no %q in the document", name, from)
			}
			i += doc
			j := bytes.Index(rec[i:], []byte(to))
			if j < 0 {
				t.Fatalf("%s: no %q after %q in the document", name, to, from)
			}
			return i, i + j + len(to)
		}
		var positions []int
		for _, r := range [][2]string{
			{`"totals"`, "}"},
			{`"policy_mix"`, "]"},
			{`"prefetch_coverage"`, ","},
			{`"interlayer_coverage"`, ","},
			{`"feasible"`, "}"},
			{`"name":"`, `",`},
		} {
			i, j := region(r[0], r[1])
			for k := i; k < j; k++ {
				positions = append(positions, k)
			}
		}
		positions = append(positions, doc, doc+1, len(rec)-1)
		for _, k := range positions {
			for _, b := range []byte{rec[k] ^ 1, ' ', '0'} {
				if b == rec[k] {
					continue
				}
				tampered := bytes.Clone(rec)
				tampered[k] = b
				if n := restored(tampered); n != 0 {
					t.Fatalf("%s: byte %d %q -> %q: the record restored", name, k, rec[k], b)
				}
			}
		}
		if n := restored(rec); n != 1 {
			t.Fatalf("%s: the untouched record restored %d plans, want 1", name, n)
		}
	}
}

// TestRestoreRefusesDegradedRecord: a snapshot record of a degraded plan,
// whose document is not decision-reproducible, is skipped by
// RestoreSnapshot rather than trusted.
func TestRestoreRefusesDegradedRecord(t *testing.T) {
	// appendRecord refuses degraded plans, so encode the record as
	// json.Marshal writes the wire type.
	net, err := scratchmem.BuiltinModel("AlexNet")
	if err != nil {
		t.Fatal(err)
	}
	opts := scratchmem.PlanOptions{Config: scratchmem.DefaultConfig(1)}
	p, err := scratchmem.PlanModel(net, opts)
	if err != nil || !p.Degraded {
		t.Fatalf("AlexNet at 1 kB: degraded %t, %v; want a degraded plan", p != nil && p.Degraded, err)
	}
	key, err := scratchmem.PlanKey(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	canon, err := model.CanonicalJSON(net)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := json.Marshal(SnapshotRecord{Key: key, Network: canon, Doc: scratchmem.PlanDocument(p)})
	if err != nil {
		t.Fatal(err)
	}
	if added, skipped, err := New(Config{}).RestoreSnapshot(bytes.NewReader(rec)); added != 0 || skipped != 1 || err != nil {
		t.Fatalf("degraded record: %d added, %d skipped, %v; want it skipped", added, skipped, err)
	}
}

// TestSnapshotRecordEncoding: appendRecord writes exactly json.Marshal's
// encoding of the documented wire type, SnapshotRecord, for every option
// combination, so a field added to the type without the encoder fails here.
func TestSnapshotRecordEncoding(t *testing.T) {
	net, err := model.ReadJSON(strings.NewReader(escapedNetwork))
	if err != nil {
		t.Fatal(err)
	}
	for mask := 0; mask < 32; mask++ {
		opts := scratchmem.PlanOptions{Config: scratchmem.DefaultConfig(32), Objective: scratchmem.Objective(mask >> 4),
			Homogeneous: mask&1 != 0, DisablePrefetch: mask&2 != 0, InterLayerReuse: mask&4 != 0, Strict: mask&8 != 0}
		p, err := scratchmem.PlanModel(net, opts)
		if err != nil {
			t.Fatal(err)
		}
		body, err := scratchmem.PlanDocument(p).MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		key, err := scratchmem.PlanKey(net, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendRecord(nil, key, &planEntry{body: body, net: net, opts: opts})
		if err != nil {
			t.Fatal(err)
		}
		canon, err := model.CanonicalJSON(net)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(SnapshotRecord{Key: key, Network: canon, Doc: scratchmem.PlanDocument(p),
			Options: SnapshotOptions{Homogeneous: opts.Homogeneous, DisablePrefetch: opts.DisablePrefetch,
				InterLayerReuse: opts.InterLayerReuse, Strict: opts.Strict}})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("options %+v: appendRecord\n%s\nwant json.Marshal\n%s", opts, got, want)
		}
		rd := model.NewJSONReader(got)
		entry, gotKey, err := readRecord(rd, got).restore()
		if err != nil || rd.Err() != nil || gotKey != key || !bytes.Equal(entry.body, body) {
			t.Fatalf("options %+v: the record does not restore: %v %v", opts, err, rd.Err())
		}
	}
}

// FuzzPlanDocument: the document seam never panics, and accepts only what
// the rule it replaced accepted, with the same rendering. which picks the
// input's kind: a plan document for fuzzNets[which], as RehydratePlan takes
// it, or else one SnapshotRecord as readRecord and restore take a
// -warm-from or re-warm line. The reference rule
// decodes with encoding/json and checks the decisions figure by figure
// (referenceRehydrate), so the seam's accept set is a subset of its.
func FuzzPlanDocument(f *testing.F) {
	nets := fuzzNets(f)
	for which, net := range nets {
		for _, opts := range []scratchmem.PlanOptions{{GLBKiloBytes: 64}, {GLBKiloBytes: 16, Objective: scratchmem.MinLatency},
			{GLBKiloBytes: 64, InterLayerReuse: true}, {GLBKiloBytes: 256, Homogeneous: true}} {
			p, err := scratchmem.PlanModel(net, opts)
			if err != nil || p.Degraded {
				continue
			}
			body, err := scratchmem.PlanDocument(p).MarshalIndent()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(which), body)
		}
	}
	// Documents of the retired DAG planner carried "schedule" and "tensors"
	// members, which this build never renders: one spliced into a valid
	// ResNet18 body must be refused.
	resnet := nets[len(nets)-1]
	p, err := scratchmem.PlanModel(resnet, scratchmem.PlanOptions{GLBKiloBytes: 256})
	if err != nil {
		f.Fatal(err)
	}
	body, err := scratchmem.PlanDocument(p).MarshalIndent()
	if err != nil {
		f.Fatal(err)
	}
	body = append(bytes.TrimSuffix(body, []byte("\n}\n")), `,
  "schedule": [
    0
  ],
  "tensors": [
    {
      "name": "conv1",
      "producer": 0,
      "last_use": 0,
      "bytes": 802816
    }
  ]
}
`...)
	if _, _, err := scratchmem.VerifyPlanDocument(resnet, body); err == nil {
		f.Fatal("a document with schedule and tensors members was accepted")
	}
	f.Add(uint8(len(nets)-1), body)
	golden, err := os.ReadFile(snapshotGoldenPath)
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range bytes.Split(golden, []byte("\n")) {
		if len(line) > 0 && len(line) < 8<<10 {
			f.Add(uint8(255), line)
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		if int(which) < len(nets) {
			checkPlanDocument(t, nets[which], data)
		} else {
			checkRecord(t, data)
		}
	})
}

// fuzzNets are the networks FuzzPlanDocument's plan documents are planned
// for: small builtins, the escaped inline network and, last,
// ResNet18.
func fuzzNets(f *testing.F) []*scratchmem.Network {
	var nets []*scratchmem.Network
	for _, name := range []string{"TinyCNN", "MobileNet"} {
		n, err := scratchmem.BuiltinModel(name)
		if err != nil {
			f.Fatal(err)
		}
		nets = append(nets, n)
	}
	esc, err := model.ReadJSON(strings.NewReader(escapedNetwork))
	if err != nil {
		f.Fatal(err)
	}
	resnet, err := scratchmem.BuiltinModel("ResNet18")
	if err != nil {
		f.Fatal(err)
	}
	return append(nets, esc, resnet)
}

func checkPlanDocument(t *testing.T, net *scratchmem.Network, data []byte) {
	p, body, err := scratchmem.VerifyPlanDocument(net, data)
	if err != nil {
		return
	}
	if !bytes.Equal(body, data) {
		t.Fatalf("accepted a body that is not its rendering:\n%s", data)
	}
	var doc scratchmem.PlanDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("accepted a body encoding/json refuses: %v", err)
	}
	ref, err := referenceRehydrate(net, &doc)
	if err != nil {
		t.Fatalf("accepted a body the figure-by-figure rule refuses: %v", err)
	}
	if want, err := scratchmem.PlanDocument(ref).MarshalIndent(); err != nil || !bytes.Equal(want, body) {
		t.Fatalf("the reference rule renders the body differently (%v)", err)
	}
	if p.Model != net.Name {
		t.Fatalf("rehydrated plan is named %q, network %q", p.Model, net.Name)
	}
}

func checkRecord(t *testing.T, data []byte) {
	rd := model.NewJSONReader(data)
	rec := readRecord(rd, data)
	if rd.Err() != nil {
		return
	}
	entry, key, err := rec.restore()
	if err != nil {
		return
	}
	var ref SnapshotRecord
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ref); err != nil {
		t.Fatalf("accepted a record encoding/json refuses: %v", err)
	}
	if ref.Doc == nil {
		t.Fatal("accepted a record without a document")
	}
	net, err := model.ReadJSON(bytes.NewReader(ref.Network))
	if err != nil {
		t.Fatalf("accepted a record whose network does not read: %v", err)
	}
	obj, err := scratchmem.ParseObjective(ref.Doc.Objective)
	if err != nil {
		t.Fatalf("accepted a record with objective %q", ref.Doc.Objective)
	}
	refKey, err := scratchmem.PlanKey(net, scratchmem.PlanOptions{Config: ref.Doc.Config.ToConfig(), Objective: obj,
		Homogeneous: ref.Options.Homogeneous, DisablePrefetch: ref.Options.DisablePrefetch,
		InterLayerReuse: ref.Options.InterLayerReuse, Strict: ref.Options.Strict})
	if err != nil || refKey != ref.Key || key != ref.Key {
		t.Fatalf("key %s, reference %s (%v)", key, refKey, err)
	}
	p, err := referenceRehydrate(net, ref.Doc)
	if err != nil {
		t.Fatalf("accepted a record the figure-by-figure rule refuses: %v", err)
	}
	if want, err := scratchmem.PlanDocument(p).MarshalIndent(); err != nil || !bytes.Equal(want, entry.body) {
		t.Fatalf("the reference rule renders the record's document differently (%v)", err)
	}
}

// referenceRehydrate is the figure-by-figure rule the document seam
// replaced: rebuild each layer from its decisions and require the
// document's figures to match. A block size EstimateN refuses is a
// refusal.
func referenceRehydrate(net *scratchmem.Network, doc *scratchmem.PlanDoc) (*scratchmem.Plan, error) {
	if doc.Degraded {
		return nil, fmt.Errorf("degraded")
	}
	if len(doc.Layers) != len(net.Layers) {
		return nil, fmt.Errorf("%d layers for %d", len(doc.Layers), len(net.Layers))
	}
	obj, err := scratchmem.ParseObjective(doc.Objective)
	if err != nil {
		return nil, err
	}
	cfg := doc.Config.ToConfig()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &scratchmem.Plan{Model: doc.Model, Cfg: cfg, Objective: obj, Scheme: doc.Scheme,
		Layers: make([]core.LayerPlan, len(net.Layers)), ChainableTransitions: doc.ChainableTransitions}
	for i := range net.Layers {
		l, ld := &net.Layers[i], &doc.Layers[i]
		if ld.Name != l.Name {
			return nil, fmt.Errorf("layer %d is %q, network has %q", i, ld.Name, l.Name)
		}
		id, ok := policy.ShortID(ld.Policy)
		if !ok {
			return nil, fmt.Errorf("unknown policy %q", ld.Policy)
		}
		o := policy.Options{Prefetch: ld.Prefetch, ResidentIfmap: ld.ConsumesResident, KeepOfmap: ld.KeepsResident}
		var est policy.Result
		switch {
		case id == policy.FallbackTiled:
			est = policy.FallbackEstimate(l, o, cfg)
		case ld.N > 0:
			if est, err = policy.EstimateN(l, id, o, cfg, int64(ld.N)); err != nil {
				return nil, err
			}
		default:
			est = policy.Estimate(l, id, o, cfg)
		}
		if est.MemoryBytes != ld.MemoryBytes || est.AccessElems != ld.AccessElems || est.AccessBytes != ld.AccessBytes ||
			est.LatencyCycles != ld.LatencyCycles || (ld.N != 0 && est.N != ld.N) || !est.Feasible {
			return nil, fmt.Errorf("layer %s disagrees with the estimators", ld.Name)
		}
		p.Layers[i] = core.LayerPlan{Layer: *l, Est: est, ConsumesResident: ld.ConsumesResident, KeepsResident: ld.KeepsResident}
	}
	return p, nil
}
